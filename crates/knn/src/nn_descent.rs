//! NN-Descent k-NN graph construction (Dong et al., WWW 2011).
//!
//! CAGRA builds its initial `d_init`-degree k-NN graph with NN-Descent
//! (Sec. III-B1): start from random neighbor lists and iteratively run
//! *local joins* — every pair of neighbors of a node are candidate
//! neighbors of each other — until the update rate drops below a
//! threshold. Every phase here is parallel over nodes and
//! allocation-flat:
//!
//! * neighbor lists live in one row-locked `n × k` slab
//!   ([`LockedLists`]) instead of `n` heap vectors behind `n` mutexes
//!   wrapping `Vec`s;
//! * forward samples go into two [`FlatArena`]s and reverse candidates
//!   into two [`CsrRows`] buffers, all reused (cleared in place)
//!   across iterations;
//! * the reverse-candidate scatter is the deterministic
//!   [`counting_scatter`], so the build is bit-identical for any
//!   thread count — sampling RNGs are seeded per `(iteration, node)`
//!   and termination counts *positional* list changes against a
//!   snapshot rather than racing transient insertions.
//!
//! Neighbor lists are kept sorted ascending by distance throughout, so
//! the paper's final "sort each node list by distance" step is already
//! satisfied on output, and list positions are exactly the *initial
//! ranks* that CAGRA's rank-based reordering consumes.

use crate::flat::{counting_scatter, CsrRows, FlatArena, KnnLists, ScatterScratch};
use crate::parallel::{
    chunk_ranges, default_threads, parallel_chunks, parallel_fill_chunks, parallel_fill_rows_with,
    parallel_map,
};
use crate::topk::{cmp_neighbor, Neighbor};
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-node seed salts. Each RNG in the build is seeded from
/// `(seed, salt, iteration, node)` alone, never from a shared stream,
/// which is what makes every phase parallelizable without changing its
/// output.
pub(crate) const SALT_SAMPLE: u64 = 0xa5a5_5a5a;
pub(crate) const SALT_REV_NEW: u64 = 0x0bad_f00d;
pub(crate) const SALT_REV_OLD: u64 = 0x0bad_f11d;

/// Seed for node `v`'s random initial neighbor list.
#[inline]
pub(crate) fn init_seed(seed: u64, v: usize) -> u64 {
    seed ^ ((v as u64) << 1)
}

/// Seed for a per-`(iteration, node)` sampling RNG.
#[inline]
pub(crate) fn iter_seed(seed: u64, salt: u64, iter: usize, v: usize) -> u64 {
    seed ^ salt ^ ((iter as u64) << 32) ^ v as u64
}

/// Tuning parameters for NN-Descent.
#[derive(Clone, Debug)]
pub struct NnDescentParams {
    /// Neighbors per node in the produced graph (CAGRA's `d_init`).
    pub k: usize,
    /// Local-join sample rate ρ ∈ (0, 1]; Dong et al. recommend 0.5–1.
    pub rho: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Terminate when an iteration changes fewer than `delta * n * k`
    /// list positions.
    pub delta: f64,
    /// RNG seed for the random initialization and sampling.
    pub seed: u64,
    /// Worker threads (0 = [`default_threads`]).
    pub threads: usize,
}

impl NnDescentParams {
    /// Sensible defaults for a given `k`.
    pub fn new(k: usize) -> Self {
        NnDescentParams { k, rho: 0.5, max_iters: 12, delta: 0.001, seed: 0x5eed, threads: 0 }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Entry {
    pub(crate) n: Neighbor,
    pub(crate) is_new: bool,
}

/// `n` bounded neighbor lists in one flat `n × cap` slab, each row
/// guarded by its own lock. The lock's payload *is* the row length, so
/// acquiring it grants exclusive access to the row — no `Vec` per
/// node, no allocation after construction.
pub(crate) struct LockedLists {
    slab: Box<[UnsafeCell<Entry>]>,
    rows: Vec<Mutex<u32>>,
    /// Per row, the bits of its worst retained distance once the row
    /// is full (`+inf` before). Written under the row lock, read
    /// without it by [`Self::offer`].
    worst: Vec<AtomicU32>,
    cap: usize,
}

// SAFETY: a row's slab cells are only touched through `RowGuard`,
// which holds that row's mutex for its whole lifetime; distinct rows
// occupy disjoint `cap`-sized slab ranges (see the in-slab assertion
// in `lock`), so concurrent guards never alias. The `UnsafeCell`
// wrapper is what licenses writes through the `&self`-derived pointer.
// `rows` and `worst` are `Sync` on their own.
unsafe impl Sync for LockedLists {}

impl LockedLists {
    pub(crate) fn new(n: usize, cap: usize) -> Self {
        assert!(cap > 0, "row capacity must be positive");
        LockedLists {
            slab: (0..n * cap).map(|_| UnsafeCell::new(Entry::default())).collect(),
            rows: (0..n).map(|_| Mutex::new(0)).collect(),
            worst: (0..n).map(|_| AtomicU32::new(f32::INFINITY.to_bits())).collect(),
            cap,
        }
    }

    /// Row `v`'s worst retained distance at some moment up to now
    /// (`+inf` while the row is not full).
    // Relaxed: the value publishes nothing — row contents are only
    // read under the row lock. A full row's worst distance only falls,
    // so a stale read is never below the current one and
    // `dist > worst_hint(v)` rejects nothing the locked insert would
    // keep (`loom_models` model 2).
    #[inline]
    pub(crate) fn worst_hint(&self, v: usize) -> f32 {
        f32::from_bits(self.worst[v].load(Ordering::Relaxed))
    }

    /// [`RowGuard::try_insert`] on row `v`, skipping the lock when the
    /// hint already rules the candidate out.
    #[inline]
    pub(crate) fn offer(&self, v: usize, n: Neighbor) -> bool {
        if n.dist > self.worst_hint(v) {
            return false;
        }
        self.lock(v).try_insert(n)
    }

    /// Lock row `v` for exclusive access.
    #[inline]
    pub(crate) fn lock(&self, v: usize) -> RowGuard<'_> {
        let len = self.rows[v].lock();
        #[cfg(feature = "debug_invariants")]
        {
            assert!(
                *len as usize <= self.cap,
                "slab invariant: row {v} length {} exceeds cap {}",
                *len,
                self.cap
            );
            assert!(
                (v + 1) * self.cap <= self.slab.len(),
                "slab invariant: row {v} lies outside the slab"
            );
        }
        // The row pointer is derived from the *whole-slab* pointer, not
        // from one cell's `UnsafeCell::get`: `raw_get` never
        // materializes a reference, so the pointer keeps provenance
        // over all `cap` cells of the row and the guard's
        // `from_raw_parts` slice reconstructions stay inside the
        // aliasing model (Miri-clean, no `&` → raw → `&mut` round
        // trips).
        // SAFETY: `v` indexes `rows`, so `v * cap` is in bounds of the
        // `n * cap` slab; `raw_get` only converts the pointer type.
        let row = unsafe { UnsafeCell::raw_get(self.slab.as_ptr().add(v * self.cap)) };
        RowGuard { len, row, worst: &self.worst[v], cap: self.cap }
    }
}

/// Exclusive access to one row of a [`LockedLists`].
pub(crate) struct RowGuard<'a> {
    len: MutexGuard<'a, u32>,
    row: *mut Entry,
    worst: &'a AtomicU32,
    cap: usize,
}

impl RowGuard<'_> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        *self.len as usize
    }

    #[inline]
    pub(crate) fn entries(&self) -> &[Entry] {
        // SAFETY: the mutex guard makes this row exclusively ours,
        // `len <= cap` is an invariant maintained by every writer (and
        // asserted in `lock` under `debug_invariants`), and `row` has
        // whole-slab provenance (see `lock`), so the `len`-cell slice
        // is in bounds and unaliased.
        unsafe { std::slice::from_raw_parts(self.row, *self.len as usize) }
    }

    #[inline]
    pub(crate) fn entries_mut(&mut self) -> &mut [Entry] {
        // SAFETY: as in `entries`, plus `&mut self` forbids aliasing
        // through the guard itself.
        unsafe { std::slice::from_raw_parts_mut(self.row, *self.len as usize) }
    }

    /// Replace the row contents (used by initialization).
    pub(crate) fn fill(&mut self, entries: &[Entry]) {
        assert!(entries.len() <= self.cap, "row overflow");
        // SAFETY: exclusive access via the guard; length set to match.
        unsafe { std::ptr::copy_nonoverlapping(entries.as_ptr(), self.row, entries.len()) };
        *self.len = entries.len() as u32;
        self.publish_worst();
    }

    /// Refresh the lock-free hint after the row changed.
    #[inline]
    fn publish_worst(&self) {
        if let Some(last) = self.entries().last().filter(|_| self.len() == self.cap) {
            self.worst.store(last.n.dist.to_bits(), Ordering::Relaxed);
        }
    }

    /// Insert into the sorted bounded row if closer than the current
    /// worst and not already present. Returns true if the row changed.
    pub(crate) fn try_insert(&mut self, n: Neighbor) -> bool {
        let len = self.len();
        let full = len == self.cap;
        {
            let row = self.entries();
            if full && cmp_neighbor(&n, &row[len - 1].n) != std::cmp::Ordering::Less {
                return false;
            }
            if row.iter().any(|e| e.n.id == n.id) {
                return false;
            }
        }
        let pos =
            self.entries().partition_point(|e| cmp_neighbor(&e.n, &n) == std::cmp::Ordering::Less);
        if !full {
            *self.len += 1;
        }
        let row = self.entries_mut();
        if pos + 1 < row.len() {
            row.copy_within(pos..row.len() - 1, pos + 1);
        }
        row[pos] = Entry { n, is_new: true };
        self.publish_worst();
        true
    }
}

/// NN-Descent builder.
pub struct NnDescent {
    params: NnDescentParams,
}

impl NnDescent {
    /// Create a builder with the given parameters.
    pub fn new(params: NnDescentParams) -> Self {
        assert!(params.k > 0, "k must be positive");
        assert!(params.rho > 0.0 && params.rho <= 1.0, "rho must be in (0, 1]");
        NnDescent { params }
    }

    /// Build the approximate k-NN lists for every node, each sorted
    /// ascending by distance. Every list has exactly `min(k, n-1)`
    /// entries. The result is bit-identical for any thread count.
    pub fn build<S: VectorStore + ?Sized>(&self, store: &S, metric: Metric) -> KnnLists {
        self.build_with_stats(store, metric).0
    }

    /// Like [`NnDescent::build`], additionally reporting work counters
    /// and the init/iteration timing split — the quantities the GPU
    /// construction-time model prices (Fig. 11's simulated estimate)
    /// and `BuildStats` surfaces.
    pub fn build_with_stats<S: VectorStore + ?Sized>(
        &self,
        store: &S,
        metric: Metric,
    ) -> (KnnLists, NnDescentStats) {
        let n = store.len();
        let k = self.params.k.min(n.saturating_sub(1));
        if k == 0 {
            return (KnnLists::from_flat(Vec::new(), n, 0), NnDescentStats::default());
        }
        if !exact_is_cheaper(n, k, self.params.rho, store.dim()) {
            return self.descent(store, metric);
        }
        let start = Instant::now();
        let lists = exact_all_pairs(store, metric, k, self.params.threads);
        let stats = NnDescentStats {
            distance_computations: (n * (n - 1)) as u64,
            init_time: start.elapsed(),
            ..NnDescentStats::default()
        };
        obs::metrics().build_nn_init.record_duration(stats.init_time);
        obs::metrics().build_nn_distances.add(stats.distance_computations);
        (lists, stats)
    }

    /// The NN-Descent iterations themselves, whatever
    /// [`exact_is_cheaper`] says: what `build` runs above the
    /// crossover, and the entry point for tests and experiments that
    /// must exercise descent below it.
    ///
    /// # Panics
    /// Panics if the store has fewer than two rows.
    pub fn descent<S: VectorStore + ?Sized>(
        &self,
        store: &S,
        metric: Metric,
    ) -> (KnnLists, NnDescentStats) {
        let n = store.len();
        assert!(n >= 2, "NN-Descent needs at least two rows");
        let k = self.params.k.min(n - 1);
        let seed = self.params.seed;
        let threads =
            if self.params.threads == 0 { default_threads() } else { self.params.threads };
        let lists = LockedLists::new(n, k);
        let dist_count = AtomicU64::new(0);

        // Random initialization: k distinct non-self ids per node,
        // gathered first and scored with one batched gang call. The
        // RNG is seeded per node, so the initial lists do not depend
        // on the chunking.
        let t_init = Instant::now();
        parallel_chunks(n, threads, |start, end| {
            let oracle = DistanceOracle::new(store, metric);
            let mut scratch = vec![0.0f32; store.dim()];
            let mut cand: Vec<u32> = Vec::with_capacity(k);
            let mut dists = vec![0.0f32; k];
            let mut entries: Vec<Entry> = Vec::with_capacity(k);
            for v in start..end {
                let mut rng = StdRng::seed_from_u64(init_seed(seed, v));
                store.get_into(v, &mut scratch);
                let prepared = oracle.prepare(&scratch);
                cand.clear();
                while cand.len() < k {
                    let u = rng.gen_range(0..n);
                    if u == v || cand.iter().any(|&c| c as usize == u) {
                        continue;
                    }
                    cand.push(u as u32);
                }
                oracle.to_rows(&prepared, &cand, &mut dists[..k]);
                entries.clear();
                for (&u, &d) in cand.iter().zip(dists.iter()) {
                    entries.push(Entry { n: Neighbor::new(u, d), is_new: true });
                }
                entries.sort_unstable_by(|a, b| cmp_neighbor(&a.n, &b.n));
                lists.lock(v).fill(&entries);
            }
            dist_count.fetch_add(oracle.computed(), Ordering::Relaxed);
        });
        let init_time = t_init.elapsed();
        obs::metrics().build_nn_init.record_duration(init_time);

        let max_samples = ((self.params.rho * k as f64).ceil() as usize).max(1);
        let stop_at = (self.params.delta * n as f64 * k as f64).max(1.0) as u64;
        let ranges = chunk_ranges(n, threads);

        // All iteration scratch is allocated once and reused: forward
        // samples in fixed-stride arenas, reverse candidates in CSR
        // buffers refilled by the counting scatter, plus the previous
        // ids snapshot that drives termination.
        let mut fwd_new: FlatArena<u32> = FlatArena::new(n, max_samples.min(k));
        let mut fwd_old: FlatArena<u32> = FlatArena::new(n, k);
        let mut rev_new: CsrRows<u32> = CsrRows::new();
        let mut rev_old: CsrRows<u32> = CsrRows::new();
        let mut scatter = ScatterScratch::new();
        let mut prev_ids: Vec<u32> = vec![0; n * k];
        parallel_fill_rows_with(
            &mut prev_ids,
            n,
            k,
            threads,
            || (),
            |(), v, row| {
                for (slot, e) in row.iter_mut().zip(lists.lock(v).entries()) {
                    *slot = e.n.id;
                }
            },
        );

        let t_iters = Instant::now();
        let mut iterations = 0u32;
        for iter in 0..self.params.max_iters {
            iterations = iter as u32 + 1;

            obs::metrics().build_nn_iterations.inc();

            // Phase 1: sample forward candidates, marking sampled new
            // entries old (they will have been joined after this
            // round). Parallel over nodes: each worker owns a disjoint
            // row range of both arenas, and the sampling RNG is seeded
            // per (iteration, node).
            let sample_span = obs::metrics().build_nn_sample.start();
            fwd_new.clear();
            fwd_old.clear();
            {
                let new_chunks = fwd_new.chunks_mut(&ranges);
                let old_chunks = fwd_old.chunks_mut(&ranges);
                std::thread::scope(|scope| {
                    for ((mut nc, mut oc), &(start, end)) in
                        new_chunks.into_iter().zip(old_chunks).zip(&ranges)
                    {
                        let lists = &lists;
                        scope.spawn(move || {
                            let mut positions: Vec<usize> = Vec::with_capacity(k);
                            for v in start..end {
                                let mut rng =
                                    StdRng::seed_from_u64(iter_seed(seed, SALT_SAMPLE, iter, v));
                                let mut row = lists.lock(v);
                                // Old set is frozen before this round's
                                // sampling so a sampled entry is joined
                                // once (as "new"), not twice.
                                positions.clear();
                                for (i, e) in row.entries().iter().enumerate() {
                                    if e.is_new {
                                        positions.push(i);
                                    } else {
                                        oc.push(v, e.n.id);
                                    }
                                }
                                positions.shuffle(&mut rng);
                                positions.truncate(max_samples);
                                let entries = row.entries_mut();
                                for &i in &positions {
                                    nc.push(v, entries[i].n.id);
                                    entries[i].is_new = false;
                                }
                            }
                        });
                    }
                });
            }

            drop(sample_span);

            // Phase 2: reverse candidates via the deterministic
            // counting scatter (every row receives its sources in
            // ascending-id order regardless of thread count), then
            // per-node shuffles that pick which prefix survives.
            let scatter_span = obs::metrics().build_nn_scatter.start();
            counting_scatter(n, n, threads, &mut scatter, &mut rev_new, |v| {
                fwd_new.row(v).iter().map(move |&u| (u, v as u32))
            });
            counting_scatter(n, n, threads, &mut scatter, &mut rev_old, |v| {
                fwd_old.row(v).iter().map(move |&u| (u, v as u32))
            });
            rev_new.par_rows_mut(threads, |v, row| {
                if row.len() > max_samples {
                    let mut rng = StdRng::seed_from_u64(iter_seed(seed, SALT_REV_NEW, iter, v));
                    row.shuffle(&mut rng);
                }
            });
            rev_old.par_rows_mut(threads, |v, row| {
                if row.len() > max_samples {
                    let mut rng = StdRng::seed_from_u64(iter_seed(seed, SALT_REV_OLD, iter, v));
                    row.shuffle(&mut rng);
                }
            });

            drop(scatter_span);

            // Phase 3: local joins, parallel over nodes. Joins mutate
            // shared rows under per-row locks; the result is a set
            // (bounded sorted insert with dedup = keep-k-smallest over
            // the round's offer multiset), so it does not depend on
            // the interleaving.
            let join_span = obs::metrics().build_nn_join.start();
            parallel_chunks(n, threads, |start, end| {
                let oracle = DistanceOracle::new(store, metric);
                let mut news: Vec<u32> = Vec::new();
                let mut olds: Vec<u32> = Vec::new();
                let mut a_row = vec![0.0f32; store.dim()];
                let mut partners: Vec<u32> = Vec::new();
                let mut dists: Vec<f32> = Vec::new();
                for v in start..end {
                    news.clear();
                    olds.clear();
                    news.extend_from_slice(fwd_new.row(v));
                    news.extend_from_slice(sample_prefix(rev_new.row(v), max_samples));
                    news.sort_unstable();
                    news.dedup();
                    olds.extend_from_slice(fwd_old.row(v));
                    olds.extend_from_slice(sample_prefix(rev_old.row(v), max_samples));
                    olds.sort_unstable();
                    olds.dedup();
                    // `a` meets every later new and every old: one
                    // prepared query and one gang call for all of
                    // them, then each side is offered the other (no
                    // two row locks are ever held together).
                    for (ai, &a) in news.iter().enumerate() {
                        partners.clear();
                        partners.extend_from_slice(&news[ai + 1..]);
                        partners.extend(olds.iter().copied().filter(|&b| b != a));
                        store.get_into(a as usize, &mut a_row);
                        let prepared = oracle.prepare(&a_row);
                        dists.resize(partners.len(), 0.0);
                        oracle.to_rows(&prepared, &partners, &mut dists);
                        for (&b, &d) in partners.iter().zip(&dists) {
                            lists.offer(a as usize, Neighbor::new(b, d));
                            lists.offer(b as usize, Neighbor::new(a, d));
                        }
                    }
                }
                dist_count.fetch_add(oracle.computed(), Ordering::Relaxed);
            });
            drop(join_span);

            // Termination: count list positions whose id changed this
            // iteration (and refresh the snapshot in the same pass).
            // Unlike a racy "insertions this round" counter, this is a
            // pure function of the lists, hence thread-count
            // independent.
            let changed = AtomicU64::new(0);
            parallel_fill_chunks(&mut prev_ids, n, k, threads, |start, _, rows| {
                let mut local = 0u64;
                for (i, row) in rows.chunks_exact_mut(k).enumerate() {
                    let guard = lists.lock(start + i);
                    for (slot, e) in row.iter_mut().zip(guard.entries()) {
                        if *slot != e.n.id {
                            local += 1;
                            *slot = e.n.id;
                        }
                    }
                }
                changed.fetch_add(local, Ordering::Relaxed);
            });
            if changed.load(Ordering::Relaxed) < stop_at {
                break;
            }
        }
        let iter_time = t_iters.elapsed();

        // Drain the slab into the flat result (no per-node locks left).
        let mut data: Vec<Neighbor> = vec![Neighbor::default(); n * k];
        parallel_fill_rows_with(
            &mut data,
            n,
            k,
            threads,
            || (),
            |(), v, row| {
                for (slot, e) in row.iter_mut().zip(lists.lock(v).entries()) {
                    *slot = e.n;
                }
            },
        );
        let stats = NnDescentStats {
            distance_computations: dist_count.load(Ordering::Relaxed),
            init_time,
            iter_time,
            iterations,
        };
        obs::metrics().build_nn_distances.add(stats.distance_computations);
        (KnnLists::from_flat(data, n, k), stats)
    }
}

/// The subsampled prefix of a shuffled reverse-candidate row.
#[inline]
fn sample_prefix(row: &[u32], max_samples: usize) -> &[u32] {
    &row[..row.len().min(max_samples)]
}

/// Work counters and timing split from one NN-Descent build.
#[derive(Clone, Copy, Debug, Default)]
pub struct NnDescentStats {
    /// Total query/dataset distance computations performed. On the
    /// exact path this is the `n·(n − 1)` ordered pairs offered to the
    /// lists (what Fig. 11's GPU estimate prices); the symmetric scan
    /// computes half of them and offers each result to both rows.
    pub distance_computations: u64,
    /// Time spent in random initialization — or in the whole exact
    /// all-pairs scan when [`exact_is_cheaper`] picked it.
    pub init_time: Duration,
    /// Time spent in the descent iterations (sampling + scatter +
    /// local joins).
    pub iter_time: Duration,
    /// Descent iterations executed. `0` means the exact path ran: the
    /// lists are exact, `distance_computations == n * (n - 1)` and all
    /// of the time is `init_time`.
    pub iterations: u32,
}

/// Whether the exact all-pairs scan beats NN-Descent for `n` rows of
/// `dim` components at list length `k` and sample rate `rho`: a pure
/// function of its arguments — never of wall-clock, thread count or
/// the environment — so the same rows build the same graph anywhere.
///
/// Distance work per node: the scan scores `n` rows at a cost
/// ∝ `dim + 80`; NN-Descent scores ~1.1 rounds of `2s·(2s + k)`
/// local-join pairs (`s = ⌈rho·k⌉`: up to `2s` new samples against each
/// other and `k + s` old ones) at a cost ∝ `1.36·(dim + 300)`. Exact
/// wins up to `n ≈ 1.5·(dim + 300)/(dim + 80)·2s(2s + k)` — 27 648
/// rows at `k = 64, rho = 0.5, dim = 96`. The constants are fitted to
/// `results/ext_knn_crossover.txt` (`eval ext-knn-crossover`); the scan
/// grows as `n²` against NN-Descent's `~n^1.15`, so the two stay within
/// 1.5× of each other for a factor ~1.6 in `n` around the switch.
/// Ties go to the scan, whose lists are exact. Monotone in `n`.
pub fn exact_is_cheaper(n: usize, k: usize, rho: f64, dim: usize) -> bool {
    let s = ((rho * k as f64).ceil() as u128).max(1);
    let round_pairs = 2 * s * (2 * s + k as u128);
    2 * n as u128 * (dim as u128 + 80) <= 3 * (dim as u128 + 300) * round_pairs
}

/// Bytes of data rows per block of [`exact_all_pairs`]: half of a
/// 48 KiB L1d, so a pair of blocks stays cache-resident while one
/// block's rows stream over the other's.
const BLOCK_BYTES: usize = 24 * 1024;
/// Blocks per side of a tile of block pairs. The scan finishes one
/// tile before the next, so the rows and partial lists it touches
/// (about 2 MB at d = 96, k = 64) stay in L2 instead of sweeping the
/// whole dataset and every list once per row block.
const TILE_BLOCKS: usize = 16;

/// Exact k-NN lists by all-pairs distance (the path [`exact_is_cheaper`]
/// picks, and the test oracle).
///
/// The rows are cut into L1-sized blocks, and the scan walks pairs of
/// blocks, so the dataset streams from memory once per block, not once
/// per row. When the oracle is [`symmetric`](DistanceOracle::symmetric)
/// (every layout but PQ) it walks only the upper triangle of block
/// pairs: each unordered pair of rows is scored once and the distance
/// is offered to both rows' lists. A PQ store walks every ordered pair.
///
/// Admission does not depend on arrival order: a candidate passes a
/// `d <= threshold` prefilter and [`cmp_neighbor`]'s `(dist, id)` order
/// decides, so each list holds the `k` smallest rows by `(dist, id)`.
/// Each worker scores a fixed, contiguous share of the block pairs into
/// its own partial lists; every pair lands in exactly one share, so
/// merging the partials row by row gives the same lists at any thread
/// count.
pub fn exact_all_pairs<S: VectorStore + ?Sized>(
    store: &S,
    metric: Metric,
    k: usize,
    threads: usize,
) -> KnnLists {
    let n = store.len();
    let threads = if threads == 0 { default_threads() } else { threads };
    let k = k.min(n.saturating_sub(1));
    if k == 0 {
        return KnnLists::from_flat(Vec::new(), n, 0);
    }
    let block = (BLOCK_BYTES / (4 * store.dim())).clamp(8, crate::brute::GANG);
    let symmetric = DistanceOracle::new(store, metric).symmetric();
    let pairs = block_pairs(n, block, symmetric);
    let shares = split_by_cost(&pairs, threads);
    let partials = parallel_map(shares.len(), shares.len(), |w| {
        scan_block_pairs(store, metric, k, block, symmetric, &pairs[shares[w].clone()])
    });
    let mut data = vec![Neighbor::default(); n * k];
    parallel_fill_rows_with(&mut data, n, k, threads, Vec::new, |all, v, row| {
        all.clear();
        all.extend(partials.iter().flat_map(|p| p.row(v)));
        all.sort_unstable_by(cmp_neighbor);
        row.copy_from_slice(&all[..k]);
    });
    KnnLists::from_flat(data, n, k)
}

/// One pair of row blocks of the exact scan: the first rows of blocks
/// `i` and `j`, and the number of row pairs it scores.
#[derive(Clone, Copy)]
struct BlockPair {
    i: usize,
    j: usize,
    cost: usize,
}

/// The block pairs the scan walks, tile by tile and row block by row
/// block inside a tile: `j >= i` when each unordered pair is scored
/// once, every `j` otherwise.
fn block_pairs(n: usize, block: usize, symmetric: bool) -> Vec<BlockPair> {
    let len = |b: usize| (b + block).min(n) - b;
    let span = block * TILE_BLOCKS;
    let mut pairs = Vec::new();
    for is in (0..n).step_by(span) {
        let first_js = if symmetric { is } else { 0 };
        for js in (first_js..n).step_by(span) {
            for i in (is..(is + span).min(n)).step_by(block) {
                let first_j = if symmetric { i.max(js) } else { js };
                for j in (first_j..(js + span).min(n)).step_by(block) {
                    let cost = match (i == j, symmetric) {
                        (false, _) => len(i) * len(j),
                        (true, true) => len(i) * (len(i) - 1) / 2,
                        (true, false) => len(i) * (len(i) - 1),
                    };
                    pairs.push(BlockPair { i, j, cost });
                }
            }
        }
    }
    pairs
}

/// Cut `pairs` into at most `threads` contiguous shares of about equal
/// cost. A pure function of its arguments, and every pair falls in
/// exactly one share.
fn split_by_cost(pairs: &[BlockPair], threads: usize) -> Vec<std::ops::Range<usize>> {
    let shares = threads.clamp(1, pairs.len().max(1));
    let total: usize = pairs.iter().map(|p| p.cost).sum();
    let mut out = Vec::with_capacity(shares);
    let (mut start, mut acc) = (0usize, 0usize);
    for (idx, p) in pairs.iter().enumerate() {
        acc += p.cost;
        // Close share `w` once the running cost reaches its fraction.
        if out.len() + 1 < shares && acc * shares >= total * (out.len() + 1) {
            out.push(start..idx + 1);
            start = idx + 1;
        }
    }
    out.push(start..pairs.len());
    out
}

/// Score one worker's share of block pairs into partial lists for all
/// `n` rows. Consecutive pairs that share row block `i` prepare its
/// rows once.
fn scan_block_pairs<S: VectorStore + ?Sized>(
    store: &S,
    metric: Metric,
    k: usize,
    block: usize,
    symmetric: bool,
    pairs: &[BlockPair],
) -> PartialLists {
    let (n, dim) = (store.len(), store.dim());
    let oracle = DistanceOracle::new(store, metric);
    let mut lists = PartialLists::new(n, k);
    let mut rows = vec![0.0f32; block * dim];
    let mut ids: Vec<u32> = Vec::with_capacity(block);
    let mut dists = vec![0.0f32; block];
    let mut hopeful = vec![false; block];
    for run in pairs.chunk_by(|a, b| a.i == b.i) {
        let (i0, i1) = (run[0].i, (run[0].i + block).min(n));
        for (v, row) in (i0..i1).zip(rows.chunks_exact_mut(dim)) {
            store.get_into(v, row);
        }
        let prepared: Vec<_> =
            rows.chunks_exact(dim).take(i1 - i0).map(|q| oracle.prepare(q)).collect();
        for pair in run {
            let j1 = (pair.j + block).min(n);
            for (v, q) in (i0..i1).zip(&prepared) {
                // On the diagonal block a symmetric scan meets only the
                // rows after `v`; the rows before it met `v` already.
                let from = if pair.i == pair.j && symmetric { v + 1 } else { pair.j };
                ids.clear();
                ids.extend((from..j1).filter(|&u| u != v).map(|u| u as u32));
                let dists = &mut dists[..ids.len()];
                oracle.to_rows(q, &ids, dists);
                if symmetric {
                    // `ids` is `from..j1`. A branch-free pass marks the
                    // few distances either list might admit (thresholds
                    // only tighten, so `offer` rechecks), and only those
                    // reach the lists.
                    let wv = lists.worst[v];
                    let hopeful = &mut hopeful[..ids.len()];
                    for ((h, &d), &wu) in
                        hopeful.iter_mut().zip(&*dists).zip(&lists.worst[from..j1])
                    {
                        *h = d <= wv.max(wu);
                    }
                    for ((&u, &d), _) in ids.iter().zip(&*dists).zip(&*hopeful).filter(|(_, &h)| h)
                    {
                        lists.offer(v, Neighbor::new(u, d));
                        lists.offer(u as usize, Neighbor::new(v as u32, d));
                    }
                } else {
                    for (&u, &d) in ids.iter().zip(dists.iter()) {
                        lists.offer(v, Neighbor::new(u, d));
                    }
                }
            }
        }
    }
    lists
}

/// One worker's partial lists in the exact scan: each row's best `k`
/// candidates so far, kept sorted by `(dist, id)` in one flat slab,
/// plus each row's admission threshold in a dense array, so the common
/// case (a hopeless candidate) costs one load and one compare.
#[derive(Clone, Default)]
struct PartialLists {
    k: usize,
    slab: Vec<Neighbor>,
    len: Vec<u32>,
    worst: Vec<f32>,
}

impl PartialLists {
    fn new(n: usize, k: usize) -> Self {
        PartialLists {
            k,
            slab: vec![Neighbor::default(); n * k],
            len: vec![0; n],
            worst: vec![f32::INFINITY; n],
        }
    }

    /// Offer a candidate to row `v`: the `d <= threshold` prefilter
    /// drops hopeless ones (and NaN), and `cmp_neighbor`'s `(dist, id)`
    /// order places the rest, ties included. The row therefore holds
    /// the `k` smallest candidates offered, in any arrival order.
    #[inline]
    fn offer(&mut self, v: usize, cand: Neighbor) {
        let hopeful = cand.dist <= self.worst[v]; // false for NaN
        if !hopeful {
            return;
        }
        let k = self.k;
        let len = self.len[v] as usize;
        let row = &mut self.slab[v * k..(v + 1) * k];
        let pos = row[..len].partition_point(|e| cmp_neighbor(e, &cand).is_lt());
        if pos == k {
            return;
        }
        let end = if len < k { len + 1 } else { k };
        row.copy_within(pos..end - 1, pos + 1);
        row[pos] = cand;
        self.len[v] = end as u32;
        if end == k {
            self.worst[v] = row[k - 1].dist;
        }
    }

    /// Row `v`'s candidates, sorted ascending by `(dist, id)`.
    fn row(&self, v: usize) -> &[Neighbor] {
        &self.slab[v * self.k..v * self.k + self.len[v] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::synth::{Family, SynthSpec};

    /// Fraction of true k-NN edges recovered by `approx` (graph recall).
    fn knn_graph_recall(approx: &KnnLists, exact: &KnnLists) -> f64 {
        assert_eq!(approx.len(), exact.len());
        let total = exact.len() * exact.k();
        if total == 0 {
            return 1.0;
        }
        let hit: usize = (approx.rows().zip(exact.rows()))
            .map(|(a, e)| e.iter().filter(|t| a.iter().any(|x| x.id == t.id)).count())
            .sum();
        hit as f64 / total as f64
    }

    #[test]
    fn exact_on_tiny_dataset() {
        let spec = SynthSpec { dim: 4, n: 50, queries: 0, family: Family::Gaussian, seed: 3 };
        let (base, _) = spec.generate();
        let nd = NnDescent::new(NnDescentParams::new(5));
        let (got, stats) = nd.build_with_stats(&base, Metric::SquaredL2);
        // Tiny datasets route through the exact path.
        assert_eq!(got, exact_all_pairs(&base, Metric::SquaredL2, 5, 1));
        assert_eq!((stats.iterations, stats.distance_computations), (0, 50 * 49));
    }

    #[test]
    fn lists_are_sorted_and_self_free() {
        let spec = SynthSpec { dim: 8, n: 4000, queries: 0, family: Family::Gaussian, seed: 9 };
        let (base, _) = spec.generate();
        let nd = NnDescent::new(NnDescentParams { threads: 2, ..NnDescentParams::new(8) });
        let (lists, _) = nd.descent(&base, Metric::SquaredL2);
        for (v, list) in lists.rows().enumerate() {
            assert_eq!(list.len(), 8, "node {v}");
            assert!(list.iter().all(|n| n.id as usize != v), "self loop at {v}");
            assert!(list.windows(2).all(|w| w[0].dist <= w[1].dist), "unsorted at {v}");
            let mut ids: Vec<u32> = list.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 8, "duplicate neighbor at {v}");
        }
    }

    #[test]
    fn converges_to_high_graph_recall_on_easy_data() {
        let spec = SynthSpec { dim: 8, n: 4000, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        let nd = NnDescent::new(NnDescentParams { rho: 1.0, ..NnDescentParams::new(10) });
        let (lists, _) = nd.descent(&base, Metric::SquaredL2);
        let exact = exact_all_pairs(&base, Metric::SquaredL2, 10, 0);
        let recall = knn_graph_recall(&lists, &exact);
        assert!(recall > 0.90, "graph recall {recall}");
    }

    #[test]
    fn k_clamped_to_n_minus_one() {
        let spec = SynthSpec { dim: 4, n: 6, queries: 0, family: Family::Gaussian, seed: 2 };
        let (base, _) = spec.generate();
        let lists = NnDescent::new(NnDescentParams::new(32)).build(&base, Metric::SquaredL2);
        assert_eq!(lists.k(), 5);
        assert!(lists.rows().all(|l| l.len() == 5));
    }

    #[test]
    fn empty_and_singleton_datasets() {
        let empty = dataset::Dataset::empty(4);
        assert!(NnDescent::new(NnDescentParams::new(4))
            .build(&empty, Metric::SquaredL2)
            .is_empty());
        let single = dataset::Dataset::from_flat(vec![1.0, 2.0], 2);
        let lists = NnDescent::new(NnDescentParams::new(4)).build(&single, Metric::SquaredL2);
        assert_eq!((lists.len(), lists.k()), (1, 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = SynthSpec { dim: 6, n: 3000, queries: 0, family: Family::Gaussian, seed: 5 };
        let (base, _) = spec.generate();
        let p = NnDescentParams { threads: 1, ..NnDescentParams::new(6) };
        let a = NnDescent::new(p.clone()).descent(&base, Metric::SquaredL2).0;
        let b = NnDescent::new(p).descent(&base, Metric::SquaredL2).0;
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        // The determinism contract of the flat pipeline: per-node RNG
        // seeding, counting scatter, and snapshot-based termination
        // make the output independent of the chunking.
        let spec = SynthSpec { dim: 6, n: 3000, queries: 0, family: Family::Gaussian, seed: 5 };
        let (base, _) = spec.generate();
        let descend = |threads| {
            NnDescent::new(NnDescentParams { threads, ..NnDescentParams::new(6) })
                .descent(&base, Metric::SquaredL2)
                .0
        };
        let one = descend(1);
        for threads in [2usize, 4, 7] {
            let multi = descend(threads);
            assert_eq!(one, multi, "{threads} threads diverged from 1 thread");
        }
    }

    #[test]
    fn stats_report_iterations_and_timing() {
        let spec = SynthSpec { dim: 6, n: 3000, queries: 0, family: Family::Gaussian, seed: 5 };
        let (base, _) = spec.generate();
        let nd = NnDescent::new(NnDescentParams { threads: 1, ..NnDescentParams::new(6) });
        let (_, stats) = nd.descent(&base, Metric::SquaredL2);
        assert!(stats.iterations >= 1);
        assert!(stats.distance_computations > 0);
        assert!(stats.init_time + stats.iter_time > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn invalid_rho_rejected() {
        NnDescent::new(NnDescentParams { rho: 0.0, ..NnDescentParams::new(4) });
    }

    /// `n` Gaussian rows of which every third is a copy of one of the
    /// first ten, so many distances tie exactly and the `(dist, id)`
    /// order decides who stays in a list.
    fn rows_with_duplicates(n: usize, dim: usize) -> dataset::Dataset {
        let spec = SynthSpec { dim, n, queries: 0, family: Family::Gaussian, seed: 21 };
        let mut flat = spec.generate().0.as_flat().to_vec();
        for v in (0..n).step_by(3) {
            let src = (v / 3) % 10;
            flat.copy_within(src * dim..(src + 1) * dim, v * dim);
        }
        dataset::Dataset::from_flat(flat, dim)
    }

    /// The exact scan's lists for `store`, computed the slow way: every
    /// other row scored one call at a time, fully sorted by `(dist, id)`.
    fn row_at_a_time_lists<S: VectorStore + ?Sized>(
        store: &S,
        metric: Metric,
        k: usize,
    ) -> KnnLists {
        let (n, dim) = (store.len(), store.dim());
        let oracle = DistanceOracle::new(store, metric);
        let mut want = Vec::with_capacity(n * k);
        let mut row = vec![0.0f32; dim];
        for v in 0..n {
            store.get_into(v, &mut row);
            let q = oracle.prepare(&row);
            let mut all: Vec<Neighbor> = (0..n)
                .filter(|&u| u != v)
                .map(|u| Neighbor::new(u as u32, oracle.to_row_prepared(&q, u)))
                .collect();
            all.sort_unstable_by(cmp_neighbor);
            want.extend_from_slice(&all[..k]);
        }
        KnnLists::from_flat(want, n, k)
    }

    /// The blocked, symmetric scan against a row-at-a-time one, on rows
    /// with many exact ties, at 1–4 threads: the lists are equal bit for
    /// bit whatever the block walk, the thread count or the arrival
    /// order of a row's candidates.
    #[test]
    fn tiled_exact_matches_row_at_a_time_scan_bitwise_on_ties() {
        // dim 7: one 256-row block, so n = 700 ends in a short block;
        // dim 200: 30-row blocks, and n = 500 crosses a 480-row tile
        // edge; n = 40 asks for k = n - 1, every other row.
        for (n, dim, k) in [(700usize, 7usize, 9usize), (500, 200, 20), (40, 7, 39)] {
            let base = rows_with_duplicates(n, dim);
            for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
                let want = row_at_a_time_lists(&base, metric, k);
                assert!(
                    want.rows().any(|r| r.windows(2).any(|w| w[0].dist == w[1].dist)),
                    "{metric:?}: the fixture produced no tied distances"
                );
                for threads in 1..=4usize {
                    let got = exact_all_pairs(&base, metric, k, threads);
                    assert_eq!(got, want, "{metric:?} n {n} dim {dim} k {k} at {threads} threads");
                }
            }
        }
    }

    /// A partial list keeps the `k` smallest candidates by `(dist, id)`
    /// whatever order they arrive in, ties at the threshold included.
    #[test]
    fn partial_lists_keep_the_k_smallest_in_any_arrival_order() {
        let cands: Vec<Neighbor> =
            (0..60u32).map(|id| Neighbor::new(id, (id % 7) as f32)).collect();
        let mut want = cands.clone();
        want.sort_unstable_by(cmp_neighbor);
        want.truncate(10);
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..20 {
            let mut order = cands.clone();
            order.shuffle(&mut rng);
            let mut lists = PartialLists::new(2, 10);
            for &c in &order {
                lists.offer(1, c);
            }
            assert_eq!(lists.row(1), &want[..], "arrival order {round}");
            assert!(lists.row(0).is_empty());
        }
    }

    /// A PQ store's distance is not symmetric (exact query, quantized
    /// row), so its scan walks every ordered pair; the lists still equal
    /// the row-at-a-time scan's at any thread count.
    #[test]
    fn exact_scan_over_pq_rows_scores_every_ordered_pair() {
        let base = rows_with_duplicates(300, 16);
        let store = dataset::pq::build(&base, &dataset::PqConfig::new(4));
        for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            assert!(!DistanceOracle::new(&store, metric).symmetric());
            let want = row_at_a_time_lists(&store, metric, 12);
            for threads in [1usize, 3] {
                let got = exact_all_pairs(&store, metric, 12, threads);
                assert_eq!(got, want, "{metric:?} at {threads} threads");
            }
        }
    }

    /// The share split covers every block pair exactly once, in order,
    /// at any thread count, including more threads than pairs.
    #[test]
    fn cost_shares_partition_the_block_pairs() {
        for (n, block, symmetric) in [(700usize, 64usize, true), (700, 64, false), (5, 8, true)] {
            let pairs = block_pairs(n, block, symmetric);
            let total: usize = pairs.iter().map(|p| p.cost).sum();
            let want = if symmetric { n * (n - 1) / 2 } else { n * (n - 1) };
            assert_eq!(total, want, "n {n} symmetric {symmetric}");
            for threads in [1usize, 2, 3, 4, 64] {
                let shares = split_by_cost(&pairs, threads);
                assert!(shares.len() <= threads);
                assert_eq!(shares.first().map(|r| r.start), Some(0));
                assert_eq!(shares.last().map(|r| r.end), Some(pairs.len()));
                assert!(shares.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }

    #[test]
    fn chooser_is_monotone_in_n() {
        for (k, rho, dim) in
            [(8usize, 1.0f64, 6usize), (32, 0.5, 32), (64, 0.5, 96), (96, 0.3, 200)]
        {
            let mut descent_seen = false;
            for n in (k + 1..200_000).step_by(97) {
                let exact = exact_is_cheaper(n, k, rho, dim);
                assert!(!(descent_seen && exact), "k={k} dim={dim}: exact again at n={n}");
                descent_seen |= !exact;
            }
            assert!(exact_is_cheaper(k + 1, k, rho, dim), "k={k}: tiny input not exact");
            assert!(descent_seen, "k={k} dim={dim}: never switches to descent");
        }
    }

    /// One row either side of the switch point: `build` takes the
    /// exact path below it and descent above it, the graph does not
    /// depend on the thread count on either side, and quality does not
    /// fall off the edge.
    #[test]
    fn both_sides_of_the_switch_point_build_the_same_graph_at_any_thread_count() {
        let (k, rho, dim) = (8usize, 1.0f64, 6usize);
        let last_exact =
            (k + 1..).find(|&n| !exact_is_cheaper(n + 1, k, rho, dim)).expect("chooser switches");
        for (n, exact_side) in [(last_exact, true), (last_exact + 1, false)] {
            let spec = SynthSpec { dim, n, queries: 0, family: Family::Gaussian, seed: 4 };
            let (base, _) = spec.generate();
            let build = |threads| {
                let p = NnDescentParams { rho, threads, ..NnDescentParams::new(k) };
                NnDescent::new(p).build_with_stats(&base, Metric::SquaredL2)
            };
            let (one, stats) = build(1);
            assert_eq!(stats.iterations == 0, exact_side, "n={n} took the wrong path");
            for threads in [2usize, 4] {
                assert_eq!(build(threads).0, one, "n={n}: {threads} threads diverged");
            }
            let recall = knn_graph_recall(&one, &exact_all_pairs(&base, Metric::SquaredL2, k, 0));
            if exact_side {
                assert_eq!(recall, 1.0, "n={n}");
            } else {
                assert!(recall >= 0.95, "n={n}: descent-side graph recall {recall}");
            }
        }
    }

    #[test]
    fn offers_beyond_the_worst_hint_never_take_the_lock() {
        let lists = LockedLists::new(1, 2);
        assert_eq!(lists.worst_hint(0), f32::INFINITY);
        assert!(lists.offer(0, Neighbor::new(4, 4.0)));
        assert_eq!(lists.worst_hint(0), f32::INFINITY, "row not full yet");
        assert!(lists.offer(0, Neighbor::new(2, 2.0)));
        assert_eq!(lists.worst_hint(0), 4.0);
        let held = lists.lock(0);
        // Would deadlock if the hopeless offer went for the row lock.
        assert!(!lists.offer(0, Neighbor::new(9, 9.0)));
        drop(held);
        // A tie on the worst distance goes through the lock: the id decides.
        assert!(lists.offer(0, Neighbor::new(3, 4.0)));
        assert!(!lists.offer(0, Neighbor::new(5, 4.0)));
        assert_eq!(lists.worst_hint(0), 4.0);
        assert!(lists.offer(0, Neighbor::new(1, 1.0)));
        assert_eq!(lists.worst_hint(0), 2.0);
    }

    #[test]
    fn row_guard_insert_matches_sorted_bounded_semantics() {
        let lists = LockedLists::new(1, 3);
        let mut g = lists.lock(0);
        assert!(g.try_insert(Neighbor::new(5, 5.0)));
        assert!(g.try_insert(Neighbor::new(1, 1.0)));
        assert!(g.try_insert(Neighbor::new(3, 3.0)));
        // Full: worse is rejected, duplicate is rejected, better evicts.
        assert!(!g.try_insert(Neighbor::new(9, 9.0)));
        assert!(!g.try_insert(Neighbor::new(1, 1.0)));
        assert!(g.try_insert(Neighbor::new(2, 2.0)));
        let ids: Vec<u32> = g.entries().iter().map(|e| e.n.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(g.entries().windows(2).all(|w| w[0].n.dist <= w[1].n.dist));
    }
}
