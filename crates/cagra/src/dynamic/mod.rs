//! `cagra::dynamic` — a mutable index over the immutable CAGRA graph.
//!
//! CAGRA's fixed-degree graph is build-once: there is no incremental
//! insert, and the paper's answer to churn is "rebuild". This module
//! makes that answer *online*. A [`DynamicIndex`] wraps everything
//! behind an epoch-stamped snapshot pointer ([`EpochPtr`]):
//!
//! * **Readers** clone the current [`Snapshot`] ([`EpochPtr::load`]: a
//!   short critical section on the active slot's mutex that clones an
//!   `Arc`) and search it with no locks held — a snapshot is
//!   immutable, so searches race nothing.
//! * **Inserts** route into a small delta segment ([`delta::DeltaSeg`]):
//!   rows in fixed-size chunks that every search brute-force
//!   gang-scores, so its results are exact. Full chunks are shared
//!   between snapshots, so an insert copies only the newest, partly
//!   filled chunk. Each mutation publishes a fresh snapshot and bumps
//!   the epoch.
//! * **Deletes** are tombstones: a sorted array of external ids behind
//!   an `Arc`, masked out when main and delta results merge at the
//!   top-k boundary (searches over-fetch by the tombstone count so
//!   masking cannot starve `k`). A delete copies the array once with
//!   the new id in place.
//! * **Compaction** (a background thread, or [`DynamicIndex::compact_now`])
//!   rebuilds delta + live main rows — minus tombstones — into a
//!   fresh [`CagraIndex`] *off the writer lock*, then splices: rows
//!   inserted during the rebuild are copied over as the new delta (the
//!   delta is append-only, so the pre-rebuild prefix is exact),
//!   tombstones added during the rebuild are retained, and the swap is
//!   one epoch publish concurrent with readers. A rebuild that panics
//!   publishes nothing: readers keep the old snapshot, the background
//!   compactor survives and retries on its next wake, and
//!   [`DynamicIndex::compact_now`] hands the panic to its caller.
//!
//! External ids are `u32`, assigned once, never reused. Every mutation
//! and compaction records into the `dyn.*` observability group (delta
//! size, tombstone ratio, compaction wall time, epoch swaps).

pub mod delta;
pub mod epoch;

#[cfg(all(loom, test))]
mod loom_model;

use crate::build::GraphConfig;
use crate::error::SearchError;
use crate::params::SearchParams;
use crate::search::index::CagraIndex;
use crate::search::planner::Mode;
use crate::search::scratch::SearchScratch;
use dataset::{Dataset, VectorStore};
use delta::DeltaSeg;
use distance::Metric;
pub use epoch::EpochPtr;
use knn::parallel::{default_threads, parallel_map_with};
use knn::topk::{cmp_neighbor, Neighbor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs for a [`DynamicIndex`].
#[derive(Clone, Debug)]
pub struct DynamicParams {
    /// Build configuration for compacted main segments.
    pub graph: GraphConfig,
    /// Search parameters for the main-segment traversal. `itopk` is
    /// raised per query as the tombstone over-fetch requires; `k`
    /// stays per-request.
    pub search: SearchParams,
    /// Delta size that triggers a compaction.
    pub max_delta: usize,
    /// Tombstone ratio (deleted / total rows) that triggers a
    /// compaction.
    pub max_tombstone_ratio: f64,
    /// Smallest live count worth a graph build; below it compaction
    /// folds everything into the brute-scanned delta and no main
    /// segment exists.
    pub min_main: usize,
    /// Run the background compaction thread. Off: compaction happens
    /// only via [`DynamicIndex::compact_now`] (deterministic tests).
    pub auto_compact: bool,
}

impl DynamicParams {
    /// Defaults for a target main-graph degree.
    pub fn new(degree: usize) -> Self {
        DynamicParams {
            graph: GraphConfig::new(degree),
            search: SearchParams::for_k(degree.max(10)),
            max_delta: 512,
            max_tombstone_ratio: 0.25,
            min_main: (4 * degree).max(64),
            auto_compact: true,
        }
    }

    /// Effective floor for building a main segment: a CAGRA build
    /// needs more rows than the intermediate k-NN degree.
    fn min_main_eff(&self) -> usize {
        self.min_main.max(2 * self.graph.d_init() + 2)
    }
}

/// The compacted bulk of the index: an immutable CAGRA graph plus the
/// external id of every row (`ids[row]`, ascending — compaction lays
/// rows out in external-id order and never relabels).
pub struct MainSeg {
    index: CagraIndex<Dataset>,
    ids: Vec<u32>,
}

impl MainSeg {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// The wrapped immutable index (observability / tests).
    pub fn index(&self) -> &CagraIndex<Dataset> {
        &self.index
    }
}

/// One immutable, searchable state of the index. Readers hold an
/// `Arc<Snapshot>`; mutations build a successor and publish it.
pub struct Snapshot {
    main: Option<Arc<MainSeg>>,
    delta: Arc<DeltaSeg>,
    /// Tombstoned external ids, strictly ascending.
    deleted: Arc<[u32]>,
}

impl Snapshot {
    fn empty(dim: usize) -> Self {
        Snapshot { main: None, delta: Arc::new(DeltaSeg::empty(dim)), deleted: Arc::new([]) }
    }

    fn main_len(&self) -> usize {
        self.main.as_ref().map_or(0, |m| m.len())
    }

    /// Rows physically present (live + tombstoned).
    fn total_rows(&self) -> usize {
        self.main_len() + self.delta.len()
    }

    /// Searchable rows. Every tombstone refers to exactly one present
    /// row (deletes validate liveness; compaction drops both
    /// together), so this is exact.
    pub fn live(&self) -> usize {
        self.total_rows() - self.deleted.len()
    }

    fn contains_live(&self, id: u32) -> bool {
        self.deleted.binary_search(&id).is_err()
            && (self.delta.contains(id) || self.main.as_ref().is_some_and(|m| m.contains(id)))
    }

    /// Tombstoned share of the rows physically present.
    fn tombstone_ratio(&self) -> f64 {
        self.deleted.len() as f64 / self.total_rows().max(1) as f64
    }
}

/// The one compaction trigger rule: the delta has reached `max_delta`
/// rows or tombstones exceed `max_tombstone_ratio` of the rows present.
/// Mutators use it to decide whether to wake the compactor, and the
/// compactor re-checks it against the snapshot current when it wakes,
/// so wake-ups queued during a rebuild do not start a second one over
/// a delta that rebuild just folded.
fn needs_compaction(snap: &Snapshot, params: &DynamicParams) -> bool {
    snap.delta.len() >= params.max_delta || snap.tombstone_ratio() > params.max_tombstone_ratio
}

/// Point-in-time shape of a [`DynamicIndex`] (for eval tables and
/// logs; the `dyn.*` metrics carry the histories).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicStats {
    /// Published epoch (snapshot generation).
    pub epoch: u64,
    /// Rows in the compacted main segment.
    pub main: usize,
    /// Rows in the delta segment.
    pub delta: usize,
    /// Tombstoned rows awaiting compaction.
    pub tombstones: usize,
    /// Searchable rows.
    pub live: usize,
    /// Compactions completed so far.
    pub compactions: u64,
    /// Compactions that panicked and published nothing.
    pub failed_compactions: u64,
}

/// State shared with the background compactor.
struct Shared {
    dim: usize,
    metric: Metric,
    params: DynamicParams,
    ptr: EpochPtr<Snapshot>,
    /// Serializes every snapshot publish; holds the id counter.
    writer: Mutex<u32>,
    /// Serializes compactions (manual vs. background).
    compact_lock: Mutex<u64>,
    /// Compactor wake-up: `(woken, shutdown)` under the gate. `woken`
    /// only says "look again"; [`needs_compaction`] decides.
    gate: Mutex<(bool, bool)>,
    cv: Condvar,
    compacting: AtomicBool,
    failed_compactions: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Scratch for a read path that drops the trace: no per-iteration
/// records, so reuse stays allocation-free.
fn untraced_scratch() -> SearchScratch {
    let mut scratch = SearchScratch::new();
    scratch.set_record_trace(false);
    scratch
}

/// A mutable ANN index: immutable CAGRA main segment + delta +
/// tombstones behind an epoch pointer. All methods take `&self`; the
/// index is `Sync` and meant to be shared (`Arc<DynamicIndex>`)
/// between serving threads and mutators. See module docs.
pub struct DynamicIndex {
    shared: Arc<Shared>,
    compactor: Option<JoinHandle<()>>,
}

impl DynamicIndex {
    /// The mapping the main segment's search runs: one CTA per query,
    /// under [`DynamicParams::search`].
    pub const MAIN_MODE: Mode = Mode::SingleCta;

    /// An empty index accepting `dim`-dimensional vectors.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, metric: Metric, params: DynamicParams) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self::spawn_compactor(Snapshot::empty(dim), dim, metric, params, 0)
    }

    /// Wrap an already-built index: its rows become the main segment
    /// with external ids `0..n`, and the id counter continues at `n`.
    ///
    /// # Panics
    /// Panics if `index` was relabeled (renumbering is a static-index
    /// layout optimization; the dynamic wrapper rebuilds its main
    /// segment on every compaction, so relabel before serving instead)
    /// or has zero dimension.
    pub fn from_index(index: CagraIndex<Dataset>, params: DynamicParams) -> Self {
        assert!(index.id_map().is_none(), "wrap the index before relabeling");
        let dim = index.store().dim();
        assert!(dim > 0, "dim must be positive");
        let n = index.store().len() as u32;
        let metric = index.metric();
        let ids: Vec<u32> = (0..n).collect();
        let snapshot = Snapshot {
            main: Some(Arc::new(MainSeg { index, ids })),
            delta: Arc::new(DeltaSeg::empty(dim)),
            deleted: Arc::new([]),
        };
        Self::spawn_compactor(snapshot, dim, metric, params, n)
    }

    fn spawn_compactor(
        snapshot: Snapshot,
        dim: usize,
        metric: Metric,
        params: DynamicParams,
        next_id: u32,
    ) -> Self {
        let auto = params.auto_compact;
        let shared = Arc::new(Shared {
            dim,
            metric,
            params,
            ptr: EpochPtr::new(Arc::new(snapshot)),
            writer: Mutex::new(next_id),
            compact_lock: Mutex::new(0),
            gate: Mutex::new((false, false)),
            cv: Condvar::new(),
            compacting: AtomicBool::new(false),
            failed_compactions: AtomicU64::new(0),
        });
        let compactor = auto.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cagra-dyn-compact".into())
                .spawn(move || compactor_loop(&shared))
                .expect("spawn compactor thread")
        });
        DynamicIndex { shared, compactor }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.shared.dim
    }

    /// Distance metric.
    pub fn metric(&self) -> Metric {
        self.shared.metric
    }

    /// Published snapshot generation; bumped by every insert, delete,
    /// and compaction swap. Cache anything derived from a search
    /// result set against this.
    pub fn epoch(&self) -> u64 {
        self.shared.ptr.epoch()
    }

    /// Searchable rows right now.
    pub fn live(&self) -> usize {
        self.shared.ptr.load().live()
    }

    /// Whether `id` is present and not tombstoned.
    pub fn contains(&self, id: u32) -> bool {
        self.shared.ptr.load().contains_live(id)
    }

    /// Current shape.
    pub fn stats(&self) -> DynamicStats {
        let snap = self.shared.ptr.load();
        DynamicStats {
            epoch: self.shared.ptr.epoch(),
            main: snap.main_len(),
            delta: snap.delta.len(),
            tombstones: snap.deleted.len(),
            live: snap.live(),
            compactions: *lock(&self.shared.compact_lock),
            failed_compactions: self.shared.failed_compactions.load(Ordering::Relaxed),
        }
    }

    /// Insert a vector; returns its permanent external id. The row is
    /// searchable as soon as this returns (the publish happens before
    /// the return, and ids are never reused).
    pub fn insert(&self, vector: &[f32]) -> Result<u32, SearchError> {
        if vector.len() != self.shared.dim {
            return Err(SearchError::DimMismatch { expected: self.shared.dim, got: vector.len() });
        }
        let shared = &*self.shared;
        let (id, delta_len, wake);
        {
            let mut next = lock(&shared.writer);
            id = *next;
            // ALLOW(panic): documented hard limit — the u32 external id
            // space is exhausted only after 2^32 lifetime inserts.
            *next = next.checked_add(1).unwrap_or_else(|| panic!("external id space exhausted"));
            let snap = shared.ptr.load();
            let succ = Snapshot {
                // ALLOW(alloc): an `Arc` handle, not a copy of the segment.
                main: snap.main.clone(),
                delta: Arc::new(snap.delta.appended(id, vector)),
                // ALLOW(alloc): an `Arc` handle, not a copy of the set.
                deleted: snap.deleted.clone(),
            };
            delta_len = succ.delta.len();
            wake = needs_compaction(&succ, &shared.params);
            shared.ptr.publish(Arc::new(succ));
        }
        let m = obs::metrics();
        m.dyn_inserts.inc();
        m.dyn_delta_size.record(delta_len as u64);
        if wake {
            self.wake_compactor();
        }
        Ok(id)
    }

    /// Tombstone `id`. Returns whether it was live (idempotent:
    /// deleting a missing or already-deleted id is `false`, not an
    /// error). The row stops appearing in results as soon as this
    /// returns; its storage is reclaimed by the next compaction.
    pub fn delete(&self, id: u32) -> bool {
        let shared = &*self.shared;
        let (ratio, wake);
        {
            let _w = lock(&shared.writer);
            let snap = shared.ptr.load();
            if !snap.contains_live(id) {
                return false;
            }
            // Copy-on-write tombstones — readers of the published
            // snapshot must not observe the new entry: one sized copy of
            // the array with `id` in its sorted place.
            let (lo, hi) = snap.deleted.split_at(snap.deleted.partition_point(|&d| d < id));
            let succ = Snapshot {
                main: snap.main.clone(),
                delta: snap.delta.clone(),
                deleted: lo.iter().chain([&id]).chain(hi).copied().collect(),
            };
            ratio = succ.tombstone_ratio();
            wake = needs_compaction(&succ, &shared.params);
            shared.ptr.publish(Arc::new(succ));
        }
        let m = obs::metrics();
        m.dyn_deletes.inc();
        m.dyn_tombstone_permille.record((ratio * 1000.0) as u64);
        if wake {
            self.wake_compactor();
        }
        true
    }

    /// Validate a request shape against the *current* snapshot. `k`
    /// validated here can become stale after deletes — key any cache
    /// of this answer on [`DynamicIndex::epoch`].
    pub fn validate_shape(&self, query_dim: usize, k: usize) -> Result<(), SearchError> {
        if query_dim != self.shared.dim {
            return Err(SearchError::DimMismatch { expected: self.shared.dim, got: query_dim });
        }
        if k == 0 {
            return Err(SearchError::ZeroK);
        }
        let live = self.live();
        if k > live {
            return Err(SearchError::KExceedsDataset { k, n: live });
        }
        Ok(())
    }

    /// Top-`k` live neighbors of `query` (external ids, ascending by
    /// `(dist, id)`).
    ///
    /// # Panics
    /// Panics on invalid input; [`DynamicIndex::try_search`] is the
    /// non-panicking form.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        // ALLOW(panic): documented panicking wrapper; `try_search` is
        // the typed-error form.
        self.try_search(query, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`DynamicIndex::search`].
    pub fn try_search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, SearchError> {
        self.validate_shape(query.len(), k)?;
        Ok(self.search_clamped(query, k, &mut untraced_scratch()))
    }

    /// Search with `k` clamped to the live count instead of erroring —
    /// the serving hot path uses this after admission-time validation,
    /// because concurrent deletes can shrink `live` below a `k` that
    /// validated moments ago, and a serve worker must not panic.
    /// Returns fewer than `k` results exactly when `k > live`. The main
    /// segment's traversal runs on the caller's `scratch`, so a worker
    /// that keeps one across requests searches without allocating it.
    pub fn search_clamped(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<Neighbor> {
        let snap = self.shared.ptr.load();
        let k = k.min(snap.live());
        if k == 0 || query.len() != self.shared.dim {
            return Vec::new();
        }
        // Over-fetch both segments by the tombstone count: at most
        // `deleted.len()` of any prefix can be masked, so the k live
        // survivors of the merge are always reachable.
        let masked = &snap.deleted;
        let mut from_main: Vec<Neighbor> = Vec::new();
        if let Some(main) = &snap.main {
            let k_main = (k + masked.len()).min(main.len());
            let mut params = self.shared.params.search;
            params.itopk = params.itopk.max(k_main);
            // Shape is valid by construction (k_main <= n, <= itopk),
            // so the validation-free entry point is safe here.
            main.index.search_mode_with(query, k_main, &params, Self::MAIN_MODE, scratch);
            from_main = scratch
                .results()
                .iter()
                .filter_map(|nb| {
                    let ext = *main.ids.get(nb.id as usize)?;
                    masked.binary_search(&ext).is_err().then_some(Neighbor::new(ext, nb.dist))
                })
                .collect();
        }
        let from_delta = snap.delta.search(query, k, self.shared.metric, masked);
        merge_topk(&from_main, &from_delta, k)
    }

    /// Thread-parallel batch search (eval/bench convenience). Each
    /// query independently loads the current snapshot.
    pub fn search_batch<Q: VectorStore>(&self, queries: &Q, k: usize) -> Vec<Vec<Neighbor>> {
        // Per-thread state: the traversal scratch and one query buffer.
        let state = || (untraced_scratch(), vec![0.0f32; queries.dim()]);
        parallel_map_with(queries.len(), default_threads(), state, |(scratch, q), qi| {
            queries.get_into(qi, q);
            self.search_clamped(q, k, scratch)
        })
    }

    /// Wake the background compactor to re-check the trigger (no-op
    /// without one).
    fn wake_compactor(&self) {
        if self.compactor.is_none() {
            return;
        }
        lock(&self.shared.gate).0 = true;
        self.shared.cv.notify_all();
    }

    /// Run one compaction synchronously: rebuild live rows into a
    /// fresh main segment (or a delta-only snapshot when too few
    /// remain), splice in concurrent mutations, swap. Blocks if the
    /// background compactor is mid-cycle.
    ///
    /// # Panics
    /// Re-raises a panic of the rebuild (say, a [`GraphConfig`] the
    /// build rejects). Nothing is published then: the index keeps
    /// serving its current snapshot, and a later compaction retries.
    pub fn compact_now(&self) {
        compact_once(&self.shared);
    }

    /// True while a compaction cycle is rebuilding (test/obs hook).
    pub fn is_compacting(&self) -> bool {
        self.shared.compacting.load(Ordering::Acquire)
    }
}

impl Drop for DynamicIndex {
    fn drop(&mut self) {
        lock(&self.shared.gate).1 = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
    }
}

fn compactor_loop(shared: &Shared) {
    loop {
        {
            let mut gate = lock(&shared.gate);
            while !gate.0 && !gate.1 {
                gate = shared.cv.wait(gate).unwrap_or_else(|p| p.into_inner());
            }
            if gate.1 {
                return;
            }
            gate.0 = false;
        }
        if needs_compaction(&shared.ptr.load(), &shared.params) {
            // A rebuild that panics must not take the compactor with it:
            // nothing was published, so the old snapshot keeps serving,
            // and the next wake retries.
            let _ = catch_unwind(AssertUnwindSafe(|| compact_once(shared)));
        }
    }
}

/// Ends a compaction cycle however it ends: clears `compacting`, and
/// counts the cycle as failed when a panic unwinds through it.
struct CycleGuard<'a>(&'a Shared);

impl Drop for CycleGuard<'_> {
    fn drop(&mut self) {
        self.0.compacting.store(false, Ordering::Release);
        if std::thread::panicking() {
            self.0.failed_compactions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One full compaction cycle. The expensive rebuild runs off the
/// writer lock — inserts, deletes, and searches proceed concurrently —
/// and only the splice-and-swap at the end serializes with writers.
fn compact_once(shared: &Shared) {
    let mut cycles = lock(&shared.compact_lock);
    shared.compacting.store(true, Ordering::Release);
    let _cycle = CycleGuard(shared);
    let t0 = Instant::now();
    let s0 = shared.ptr.load();

    // Phase 1 (off-lock): gather live rows in ascending external-id
    // order. Main ids all precede delta ids (the id counter is
    // monotonic and compaction preserves order), so concatenation
    // stays sorted.
    let mut ids: Vec<u32> = Vec::with_capacity(s0.live());
    let mut flat: Vec<f32> = Vec::with_capacity(s0.live() * shared.dim);
    let mut keep_live = |id: u32, row: &[f32]| {
        if s0.deleted.binary_search(&id).is_err() {
            ids.push(id);
            flat.extend_from_slice(row);
        }
    };
    if let Some(main) = &s0.main {
        let store = main.index.store();
        for (row, &id) in main.ids.iter().enumerate() {
            keep_live(id, store.row(row));
        }
    }
    for (chunk_ids, chunk_rows) in s0.delta.rows_from(0) {
        for (&id, row) in chunk_ids.iter().zip(chunk_rows.chunks_exact(shared.dim)) {
            keep_live(id, row);
        }
    }

    // Phase 2 (off-lock): rebuild. Below the viability floor the rows
    // stay delta-resident (brute-scanned) and no main exists.
    let (new_main, mut ids, mut flat) = if ids.len() >= shared.params.min_main_eff() {
        let store = Dataset::from_flat(flat, shared.dim);
        let (index, _report) = CagraIndex::build(store, shared.metric, &shared.params.graph);
        (Some(Arc::new(MainSeg { index, ids })), Vec::new(), Vec::new())
    } else {
        (None, ids, flat)
    };

    // Phase 3 (writer lock): splice concurrent mutations and swap.
    // The delta is append-only, so everything past s0's length arrived
    // during the rebuild and is copied over as is; tombstones added
    // since s0 still refer to rows we just kept, so they carry over.
    {
        let _w = lock(&shared.writer);
        let s1 = shared.ptr.load();
        for (tail_ids, tail_rows) in s1.delta.rows_from(s0.delta.len()) {
            ids.extend_from_slice(tail_ids);
            flat.extend_from_slice(tail_rows);
        }
        shared.ptr.publish(Arc::new(Snapshot {
            main: new_main,
            delta: Arc::new(DeltaSeg::from_rows(&ids, &flat, shared.dim)),
            deleted: added_since(&s1.deleted, &s0.deleted),
        }));
    }
    *cycles += 1;
    let m = obs::metrics();
    m.dyn_compactions.inc();
    m.dyn_compaction_ns.record(t0.elapsed().as_nanos() as u64);
}

/// The ids of `now` missing from `before`, both strictly ascending: one
/// merge walk over the two arrays.
fn added_since(now: &[u32], before: &[u32]) -> Arc<[u32]> {
    let mut before = before.iter().peekable();
    now.iter()
        .copied()
        .filter(|&id| {
            while before.next_if(|&&old| old < id).is_some() {}
            before.next_if_eq(&&id).is_none()
        })
        .collect()
}

/// Merge two `(dist, id)`-ascending result lists, keeping the `k`
/// best. Both sides carry external ids and are already tombstone-free
/// and duplicate-free (main and delta rows are disjoint).
fn merge_topk(a: &[Neighbor], b: &[Neighbor], k: usize) -> Vec<Neighbor> {
    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    while out.len() < k {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => {
                if cmp_neighbor(x, y).is_le() {
                    out.push(*x);
                    i += 1;
                } else {
                    out.push(*y);
                    j += 1;
                }
            }
            (Some(x), None) => {
                out.push(*x);
                i += 1;
            }
            (None, Some(y)) => {
                out.push(*y);
                j += 1;
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> DynamicParams {
        let mut p = DynamicParams::new(8);
        p.auto_compact = false;
        p.min_main = 48;
        p.max_delta = 64;
        p
    }

    fn vec_for(i: u32, dim: usize) -> Vec<f32> {
        (0..dim).map(|d| ((i as usize * dim + d) as f32 * 0.173).sin()).collect()
    }

    #[test]
    fn empty_index_rejects_and_reports() {
        let ix = DynamicIndex::new(4, Metric::SquaredL2, small_params());
        assert_eq!(ix.live(), 0);
        assert_eq!(ix.epoch(), 0);
        assert_eq!(ix.try_search(&[0.0; 4], 1), Err(SearchError::KExceedsDataset { k: 1, n: 0 }));
        assert_eq!(
            ix.try_search(&[0.0; 3], 1),
            Err(SearchError::DimMismatch { expected: 4, got: 3 })
        );
        assert_eq!(ix.try_search(&[0.0; 4], 0), Err(SearchError::ZeroK));
        assert!(ix.search_clamped(&[0.0; 4], 5, &mut SearchScratch::new()).is_empty());
    }

    #[test]
    fn insert_assigns_monotonic_ids_and_bumps_epoch() {
        let ix = DynamicIndex::new(4, Metric::SquaredL2, small_params());
        assert_eq!(ix.insert(&[1.0, 0.0, 0.0, 0.0]), Ok(0));
        assert_eq!(ix.insert(&[0.0, 1.0, 0.0, 0.0]), Ok(1));
        assert_eq!(ix.insert(&[9.0]), Err(SearchError::DimMismatch { expected: 4, got: 1 }));
        assert_eq!(ix.epoch(), 2);
        assert_eq!(ix.live(), 2);
        let hits = ix.search(&[1.0, 0.0, 0.0, 0.0], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn delete_masks_immediately_and_is_idempotent() {
        let ix = DynamicIndex::new(4, Metric::SquaredL2, small_params());
        for i in 0..10u32 {
            ix.insert(&vec_for(i, 4)).unwrap();
        }
        let top = ix.search(&vec_for(3, 4), 1)[0].id;
        assert!(ix.delete(top));
        assert!(!ix.delete(top), "double delete reports false");
        assert!(!ix.delete(999), "unknown id reports false");
        assert!(ix.search(&vec_for(3, 4), 9).iter().all(|nb| nb.id != top));
        assert_eq!(ix.live(), 9);
        assert!(!ix.contains(top));
    }

    /// The trigger rule on hand-built snapshots, no thread involved:
    /// `max_delta` is inclusive, `max_tombstone_ratio` is exclusive and
    /// taken over the rows present (live + tombstoned).
    #[test]
    fn needs_compaction_is_delta_size_or_tombstone_ratio() {
        let snap = |rows: u32, dead: u32| Snapshot {
            main: None,
            delta: Arc::new(DeltaSeg::from_rows(
                &(0..rows).collect::<Vec<_>>(),
                &vec![0.0; rows as usize],
                1,
            )),
            deleted: (0..dead).collect(),
        };
        let mut p = small_params();
        (p.max_delta, p.max_tombstone_ratio) = (64, 0.25);
        assert!(!needs_compaction(&snap(0, 0), &p));
        assert!(!needs_compaction(&snap(63, 0), &p));
        assert!(needs_compaction(&snap(64, 0), &p), "delta == max_delta triggers");
        assert!(!needs_compaction(&snap(40, 10), &p), "ratio == max does not trigger");
        assert!(needs_compaction(&snap(40, 11), &p), "ratio > max triggers");
        // The post-compaction shape that must *not* re-trigger: a short
        // delta suffix, no tombstones.
        assert!(!needs_compaction(&snap(5, 0), &p));
    }

    #[test]
    fn compaction_builds_main_and_drops_tombstones() {
        let ix = DynamicIndex::new(8, Metric::SquaredL2, small_params());
        for i in 0..200u32 {
            ix.insert(&vec_for(i, 8)).unwrap();
        }
        for id in 0..20u32 {
            assert!(ix.delete(id));
        }
        let before = ix.stats();
        assert_eq!((before.main, before.delta, before.tombstones), (0, 200, 20));
        ix.compact_now();
        let after = ix.stats();
        assert_eq!((after.main, after.delta, after.tombstones), (180, 0, 0));
        assert_eq!(after.live, 180);
        assert_eq!(after.compactions, 1);
        // Deleted ids stay gone; survivors keep their external ids.
        let hits = ix.search(&vec_for(30, 8), 5);
        assert_eq!(hits[0].id, 30);
        assert!(hits.iter().all(|nb| nb.id >= 20));
    }

    #[test]
    fn tiny_live_set_compacts_to_delta_only() {
        let ix = DynamicIndex::new(4, Metric::SquaredL2, small_params());
        for i in 0..10u32 {
            ix.insert(&vec_for(i, 4)).unwrap();
        }
        ix.delete(4);
        ix.compact_now();
        let s = ix.stats();
        assert_eq!((s.main, s.delta, s.tombstones, s.live), (0, 9, 0, 9));
        assert!(ix.search(&vec_for(5, 4), 9).iter().all(|nb| nb.id != 4));
    }

    #[test]
    fn from_index_continues_ids_after_the_wrapped_rows() {
        use dataset::synth::{Family, SynthSpec};
        let spec = SynthSpec { dim: 8, n: 300, queries: 5, family: Family::Gaussian, seed: 7 };
        let (base, queries) = spec.generate();
        let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8));
        let ix = DynamicIndex::from_index(index, small_params());
        assert_eq!(ix.live(), 300);
        assert_eq!(ix.insert(queries.row(0)), Ok(300));
        let hits = ix.search(queries.row(0), 3);
        assert_eq!(hits[0].id, 300, "the fresh exact duplicate must win");
        assert_eq!(hits[0].dist, 0.0);
    }

    /// A rebuild that always panics: `intermediate_degree` below
    /// `degree` trips `build_graph`'s precondition once compaction has
    /// enough rows for a main segment.
    fn panicking_params() -> DynamicParams {
        let mut p = small_params();
        p.graph.intermediate_degree = p.graph.degree / 2;
        p
    }

    #[test]
    fn a_panicking_compact_now_leaves_the_index_serving() {
        let ix = DynamicIndex::new(8, Metric::SquaredL2, panicking_params());
        for i in 0..64u32 {
            ix.insert(&vec_for(i, 8)).unwrap();
        }
        assert!(ix.delete(3));
        let before = ix.search(&vec_for(10, 8), 5);
        for attempt in 1..=2 {
            assert!(catch_unwind(AssertUnwindSafe(|| ix.compact_now())).is_err());
            assert!(!ix.is_compacting(), "attempt {attempt} left the compacting flag set");
            let s = ix.stats();
            assert_eq!((s.main, s.delta, s.tombstones), (0, 64, 1), "nothing was published");
            assert_eq!((s.compactions, s.failed_compactions), (0, attempt));
        }
        assert_eq!(ix.search(&vec_for(10, 8), 5), before);
        assert_eq!(ix.insert(&vec_for(64, 8)), Ok(64));
        assert!(ix.delete(4));
    }

    #[test]
    fn the_background_compactor_survives_a_panicking_rebuild_and_retries() {
        let mut p = panicking_params();
        p.auto_compact = true;
        let ix = DynamicIndex::new(8, Metric::SquaredL2, p);
        let wait_for_failures = |n: u64| {
            let deadline = Instant::now() + std::time::Duration::from_secs(60);
            while ix.stats().failed_compactions < n {
                assert!(Instant::now() < deadline, "the compactor never reported failure {n}");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        };
        // The 64th insert reaches `max_delta` and wakes the compactor.
        for i in 0..64u32 {
            ix.insert(&vec_for(i, 8)).unwrap();
        }
        wait_for_failures(1);
        assert!(!ix.is_compacting());
        // The thread is still there: the next trigger wakes a retry.
        ix.insert(&vec_for(64, 8)).unwrap();
        wait_for_failures(2);
        let s = ix.stats();
        assert_eq!((s.main, s.delta, s.compactions), (0, 65, 0));
        assert_eq!(ix.search(&vec_for(64, 8), 1)[0], Neighbor::new(64, 0.0));
    }

    #[test]
    fn added_since_is_the_sorted_difference() {
        let diff = |now: &[u32], before: &[u32]| added_since(now, before).to_vec();
        assert_eq!(diff(&[1, 3, 5, 8, 9], &[3, 8]), [1, 5, 9]);
        assert_eq!(diff(&[1, 3], &[1, 3]), [0u32; 0]);
        assert_eq!(diff(&[2, 4], &[]), [2, 4]);
        assert_eq!(diff(&[], &[]), [0u32; 0]);
    }

    #[test]
    fn deletes_keep_the_tombstones_sorted() {
        let ix = DynamicIndex::new(4, Metric::SquaredL2, small_params());
        for i in 0..10u32 {
            ix.insert(&vec_for(i, 4)).unwrap();
        }
        for id in [7, 2, 9, 0, 5] {
            assert!(ix.delete(id));
        }
        assert_eq!(*ix.shared.ptr.load().deleted, [0, 2, 5, 7, 9]);
        assert_eq!(ix.live(), 5);
        assert!((0..10).all(|id| ix.contains(id) != [0, 2, 5, 7, 9].contains(&id)));
    }

    #[test]
    fn merge_prefers_globally_closest_and_breaks_ties_by_id() {
        let a = [Neighbor::new(1, 0.5), Neighbor::new(3, 2.0)];
        let b = [Neighbor::new(2, 0.5), Neighbor::new(4, 1.0)];
        let got = merge_topk(&a, &b, 3);
        let ids: Vec<u32> = got.iter().map(|nb| nb.id).collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert_eq!(merge_topk(&a, &[], 10).len(), 2);
        assert!(merge_topk(&[], &[], 3).is_empty());
    }
}
