//! Flat-arena storage for the construction pipeline.
//!
//! The paper's whole build — NN-Descent, detour reordering, pruning,
//! reverse-edge addition, merge — is embarrassingly parallel over
//! nodes (Sec. III-B). The enemies of that parallelism on a CPU are
//! the same ones a GPU port would face: per-node heap allocations
//! (`Vec<Vec<_>>` rebuilt every iteration) and per-node locks guarding
//! output lists. This module provides the allocation-flat substitutes:
//!
//! * [`KnnLists`] — the NN-Descent result as one `n × k` slab of
//!   [`Neighbor`] entries (every row has exactly `k` entries, sorted
//!   ascending by distance).
//! * [`FlatArena`] — a fixed-stride `n × cap` scratch slab with a
//!   per-row length array, cleared in place and reused across
//!   NN-Descent iterations.
//! * [`CsrRows`] — variable-stride rows over one backing buffer
//!   (offsets + data, both reused across iterations), filled by the
//!   deterministic [`counting_scatter`].
//!
//! [`counting_scatter`] is the piece that makes reverse-edge
//! construction parallel *and* bit-deterministic: a two-pass counting
//! scatter (parallel per-chunk histograms → serial prefix-sum over
//! targets → parallel placement through per-chunk cursors) that lands
//! every item at exactly the index a serial ascending-source scatter
//! would have used, for any thread count and any chunking.

use crate::parallel::{chunk_ranges, SendPtr};
use crate::topk::Neighbor;

/// NN-Descent output: `n` neighbor lists of exactly `k` entries each,
/// stored as one flat row-major slab.
#[derive(Clone, Debug, PartialEq)]
pub struct KnnLists {
    data: Vec<Neighbor>,
    n: usize,
    k: usize,
}

impl KnnLists {
    /// Wrap a flat row-major buffer (`data.len() == n * k`).
    pub fn from_flat(data: Vec<Neighbor>, n: usize, k: usize) -> Self {
        assert_eq!(data.len(), n * k, "knn list buffer shape mismatch");
        KnnLists { data, n, k }
    }

    /// Flatten per-node rows; every row must have the same length.
    pub fn from_rows(rows: &[Vec<Neighbor>]) -> Self {
        let n = rows.len();
        let k = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * k);
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), k, "row {v} has {} entries, expected {k}", row.len());
            data.extend_from_slice(row);
        }
        KnnLists { data, n, k }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Entries per node.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Node `v`'s neighbor list, sorted ascending by distance.
    #[inline]
    pub fn row(&self, v: usize) -> &[Neighbor] {
        &self.data[v * self.k..(v + 1) * self.k]
    }

    /// Iterate rows in node order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Neighbor]> {
        self.data.chunks_exact(self.k.max(1)).take(self.n)
    }
}

/// Fixed-stride scratch arena: one `n × cap` slab plus a per-row
/// length array. `clear` resets lengths without touching the slab, so
/// the allocation survives across NN-Descent iterations.
#[derive(Clone, Debug)]
pub struct FlatArena<T> {
    slab: Vec<T>,
    lens: Vec<u32>,
    cap: usize,
}

impl<T: Copy + Default> FlatArena<T> {
    /// An arena of `n` rows with capacity `cap` each, all empty.
    pub fn new(n: usize, cap: usize) -> Self {
        FlatArena { slab: vec![T::default(); n * cap], lens: vec![0; n], cap }
    }

    /// Reset every row to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }

    /// Row `v`'s current contents.
    #[inline]
    pub fn row(&self, v: usize) -> &[T] {
        &self.slab[v * self.cap..v * self.cap + self.lens[v] as usize]
    }

    /// Split into disjoint per-chunk mutable views matching `ranges`
    /// (as produced by [`chunk_ranges`]); each view may only touch its
    /// own rows, which makes parallel row writes safe without locks.
    pub fn chunks_mut<'a>(&'a mut self, ranges: &[(usize, usize)]) -> Vec<ArenaChunkMut<'a, T>> {
        let cap = self.cap;
        let mut out = Vec::with_capacity(ranges.len());
        let mut slab: &mut [T] = &mut self.slab;
        let mut lens: &mut [u32] = &mut self.lens;
        let mut consumed = 0usize;
        for &(start, end) in ranges {
            assert_eq!(start, consumed, "ranges must tile the arena contiguously");
            let rows = end - start;
            let (s_head, s_tail) = std::mem::take(&mut slab).split_at_mut(rows * cap);
            let (l_head, l_tail) = std::mem::take(&mut lens).split_at_mut(rows);
            slab = s_tail;
            lens = l_tail;
            consumed = end;
            out.push(ArenaChunkMut { start, cap, slab: s_head, lens: l_head });
        }
        out
    }
}

/// Mutable view over a contiguous row range of a [`FlatArena`];
/// indices are global row ids.
pub struct ArenaChunkMut<'a, T> {
    start: usize,
    cap: usize,
    slab: &'a mut [T],
    lens: &'a mut [u32],
}

impl<T: Copy> ArenaChunkMut<'_, T> {
    /// Append to (global) row `v`.
    ///
    /// # Panics
    /// Panics if the row is at capacity.
    #[inline]
    pub fn push(&mut self, v: usize, x: T) {
        let r = v - self.start;
        let len = self.lens[r] as usize;
        assert!(len < self.cap, "arena row {v} overflow (cap {})", self.cap);
        self.slab[r * self.cap + len] = x;
        self.lens[r] += 1;
    }
}

/// Variable-stride rows over one reused backing buffer (CSR layout).
/// Filled by [`counting_scatter`]; `offsets` has `rows + 1` entries.
#[derive(Clone, Debug, Default)]
pub struct CsrRows<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy + Default> CsrRows<T> {
    /// An empty buffer (backing storage grows on first scatter).
    pub fn new() -> Self {
        CsrRows { offsets: Vec::new(), data: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `v`'s contents.
    #[inline]
    pub fn row(&self, v: usize) -> &[T] {
        &self.data[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Run `f(row_index, row)` over every row with mutable access, in
    /// parallel chunks of whole rows. Safe: the data buffer is
    /// pre-split at chunk boundaries.
    pub fn par_rows_mut<F>(&mut self, threads: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = self.len();
        let ranges = chunk_ranges(n, threads);
        let offsets = &self.offsets;
        if ranges.len() == 1 {
            let mut rest: &mut [T] = &mut self.data;
            for v in 0..n {
                let len = (offsets[v + 1] - offsets[v]) as usize;
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(len);
                f(v, row);
                rest = tail;
            }
            return;
        }
        let mut rest: &mut [T] = &mut self.data;
        let mut consumed = 0usize;
        std::thread::scope(|scope| {
            for &(start, end) in &ranges {
                let take = offsets[end] as usize - consumed;
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                consumed = offsets[end] as usize;
                let f = &f;
                scope.spawn(move || {
                    let mut head = head;
                    for v in start..end {
                        let len = (offsets[v + 1] - offsets[v]) as usize;
                        let (row, t) = std::mem::take(&mut head).split_at_mut(len);
                        f(v, row);
                        head = t;
                    }
                });
            }
        });
    }
}

/// Reused per-chunk histogram storage for [`counting_scatter`]
/// (`chunks × n_targets` counters).
#[derive(Clone, Debug, Default)]
pub struct ScatterScratch {
    hist: Vec<u32>,
}

impl ScatterScratch {
    /// An empty scratch (storage grows on first scatter).
    pub fn new() -> Self {
        ScatterScratch::default()
    }
}

/// Deterministic two-pass parallel counting scatter.
///
/// `each(v)` yields `(target, payload)` items for source `v`. Every
/// payload is placed in `out.row(target)` at exactly the position a
/// serial `for v in 0..n_sources { push }` loop would have used
/// (ascending source order within each target row), independent of
/// thread count:
///
/// 1. parallel count — each source chunk histograms its targets;
/// 2. serial prefix sum — per-target offsets plus per-(chunk, target)
///    starting cursors (`O(chunks × n_targets)` additions);
/// 3. parallel placement — each chunk writes through its own cursors,
///    so all writes are disjoint by construction.
pub fn counting_scatter<T, I, F>(
    n_targets: usize,
    n_sources: usize,
    threads: usize,
    scratch: &mut ScatterScratch,
    out: &mut CsrRows<T>,
    each: F,
) where
    T: Copy + Default + Send,
    I: Iterator<Item = (u32, T)>,
    F: Fn(usize) -> I + Sync,
{
    if n_targets == 0 {
        out.offsets.clear();
        out.offsets.resize(1, 0);
        out.data.clear();
        return;
    }
    let ranges = chunk_ranges(n_sources, threads);
    let nchunks = ranges.len();
    scratch.hist.clear();
    scratch.hist.resize(nchunks * n_targets, 0);

    // Pass 1: per-chunk histograms (disjoint rows of `hist`).
    {
        let mut hists: Vec<&mut [u32]> = scratch.hist.chunks_mut(n_targets.max(1)).collect();
        if nchunks == 1 {
            let hist = &mut hists[0];
            for v in ranges[0].0..ranges[0].1 {
                for (u, _) in each(v) {
                    hist[u as usize] += 1;
                }
            }
        } else {
            std::thread::scope(|scope| {
                for (hist, &(start, end)) in hists.into_iter().zip(&ranges) {
                    let each = &each;
                    scope.spawn(move || {
                        for v in start..end {
                            for (u, _) in each(v) {
                                hist[u as usize] += 1;
                            }
                        }
                    });
                }
            });
        }
    }

    // Prefix sums: row offsets, and per-chunk cursors in `hist`.
    out.offsets.clear();
    out.offsets.resize(n_targets + 1, 0);
    let mut total = 0u32;
    for u in 0..n_targets {
        out.offsets[u] = total;
        let mut run = total;
        for c in 0..nchunks {
            let slot = &mut scratch.hist[c * n_targets + u];
            let count = *slot;
            *slot = run;
            run += count;
        }
        total = run;
    }
    out.offsets[n_targets] = total;
    out.data.clear();
    out.data.resize(total as usize, T::default());

    // Checked shadow (debug_invariants): snapshot each (chunk, target)
    // cursor's exclusive end — the next chunk's start cursor, or the
    // target row's end for the last chunk — and verify the starts tile
    // every target row exactly. Combined with the post-placement check
    // below (each cursor must land exactly on its end) this proves the
    // raw writes of pass 2 cover each target row's half-open ranges
    // disjointly, once and only once: a permutation of the emitted
    // items. Compiled out entirely without the feature.
    #[cfg(feature = "debug_invariants")]
    let cursor_ends: Vec<u32> = {
        let mut ends = vec![0u32; nchunks * n_targets];
        for u in 0..n_targets {
            assert_eq!(
                scratch.hist[u], out.offsets[u],
                "scatter invariant: chunk 0's cursor for target {u} must start at the row offset"
            );
            for c in 0..nchunks {
                let start = scratch.hist[c * n_targets + u];
                let end = if c + 1 < nchunks {
                    scratch.hist[(c + 1) * n_targets + u]
                } else {
                    out.offsets[u + 1]
                };
                assert!(
                    start <= end,
                    "scatter invariant: target {u} cursor ranges are not ascending half-open \
                     ranges (chunk {c}: {start} > {end})"
                );
                ends[c * n_targets + u] = end;
            }
        }
        ends
    };

    // Pass 2: placement through per-chunk cursors.
    {
        let data = SendPtr::new(&mut out.data);
        let mut hists: Vec<&mut [u32]> = scratch.hist.chunks_mut(n_targets.max(1)).collect();
        if nchunks == 1 {
            let cursor = &mut hists[0];
            for v in ranges[0].0..ranges[0].1 {
                for (u, x) in each(v) {
                    let slot = cursor[u as usize] as usize;
                    cursor[u as usize] += 1;
                    out.data[slot] = x;
                }
            }
        } else {
            std::thread::scope(|scope| {
                for (cursor, &(start, end)) in hists.into_iter().zip(&ranges) {
                    let each = &each;
                    scope.spawn(move || {
                        // Rebind the whole wrapper so the closure captures
                        // `SendPtr` (Send), not the raw pointer field.
                        let base = data;
                        for v in start..end {
                            for (u, x) in each(v) {
                                let slot = cursor[u as usize] as usize;
                                cursor[u as usize] += 1;
                                // SAFETY: each (chunk, target) pair owns the
                                // cursor range [its start, next chunk's
                                // start); ranges are disjoint across chunks
                                // and in-bounds by the prefix-sum pass, so
                                // no two threads ever write the same slot.
                                // `debug_invariants` machine-checks both
                                // claims (bounds in `write`, disjointness
                                // via the cursor tiling + landing checks
                                // around this pass).
                                unsafe { base.write(slot, x) };
                            }
                        }
                    });
                }
            });
        }
    }

    // Post-placement shadow check: every cursor must have advanced
    // exactly to its range end. Since cursors start at the range
    // starts (verified above) and bump by one per write, this proves
    // each chunk performed exactly `end - start` writes at slots
    // `start..end` — no slot missed, no slot written twice, and `each`
    // emitted the same targets in both passes.
    #[cfg(feature = "debug_invariants")]
    for (c, (cursors, ends)) in
        scratch.hist.chunks(n_targets).zip(cursor_ends.chunks(n_targets)).enumerate()
    {
        for (u, (&cur, &end)) in cursors.iter().zip(ends).enumerate() {
            assert_eq!(
                cur, end,
                "scatter invariant: chunk {c} left target {u}'s cursor at {cur}, expected {end} \
                 — `each` emitted different (target, payload) streams across the two passes"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_lists_round_trip() {
        let rows = vec![
            vec![Neighbor::new(1, 0.5), Neighbor::new(2, 1.5)],
            vec![Neighbor::new(0, 0.5), Neighbor::new(2, 2.0)],
        ];
        let lists = KnnLists::from_rows(&rows);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists.k(), 2);
        assert_eq!(lists.row(1)[1].id, 2);
        assert!(lists.rows().eq(rows.iter().map(Vec::as_slice)));
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn ragged_rows_rejected() {
        KnnLists::from_rows(&[vec![Neighbor::new(1, 0.0)], vec![]]);
    }

    #[test]
    fn arena_push_clear_reuse() {
        let mut a = FlatArena::<u32>::new(3, 2);
        let push = |a: &mut FlatArena<u32>, v, x| a.chunks_mut(&[(0, 3)])[0].push(v, x);
        push(&mut a, 0, 7);
        push(&mut a, 2, 9);
        push(&mut a, 2, 11);
        assert_eq!(a.row(0), &[7]);
        assert_eq!(a.row(1), &[] as &[u32]);
        assert_eq!(a.row(2), &[9, 11]);
        a.clear();
        assert_eq!(a.row(2), &[] as &[u32]);
        push(&mut a, 2, 1);
        assert_eq!(a.row(2), &[1]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn arena_overflow_rejected() {
        let mut a = FlatArena::<u32>::new(1, 1);
        let mut chunk = a.chunks_mut(&[(0, 1)]).remove(0);
        chunk.push(0, 1);
        chunk.push(0, 2);
    }

    #[test]
    fn arena_chunks_write_disjoint_rows() {
        let ranges = chunk_ranges(10, 3);
        let mut a = FlatArena::<u32>::new(10, 4);
        std::thread::scope(|s| {
            for mut chunk in a.chunks_mut(&ranges).into_iter().zip(&ranges) {
                s.spawn(move || {
                    let (start, end) = *chunk.1;
                    for v in start..end {
                        chunk.0.push(v, v as u32);
                        chunk.0.push(v, 100 + v as u32);
                    }
                });
            }
        });
        for v in 0..10 {
            assert_eq!(a.row(v), &[v as u32, 100 + v as u32]);
        }
    }

    /// The parallel counting scatter must land every item exactly
    /// where the serial push loop would, for any thread count.
    #[test]
    fn counting_scatter_matches_serial_for_any_thread_count() {
        let n = 97usize;
        // Source v emits (v*j % n, payload v*1000+j) for j in 0..(v%5).
        let emit =
            |v: usize| (0..v % 5).map(move |j| (((v * (j + 3)) % n) as u32, (v * 1000 + j) as u32));
        let mut serial: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            for (u, x) in emit(v) {
                serial[u as usize].push(x);
            }
        }
        for threads in [1usize, 2, 3, 8, 64] {
            let mut scratch = ScatterScratch::new();
            let mut out = CsrRows::new();
            counting_scatter(n, n, threads, &mut scratch, &mut out, emit);
            assert_eq!(out.len(), n);
            for (u, expected) in serial.iter().enumerate() {
                assert_eq!(out.row(u), &expected[..], "target {u} at {threads} threads");
            }
        }
    }

    #[test]
    fn scatter_scratch_and_csr_are_reusable() {
        let mut scratch = ScatterScratch::new();
        let mut out = CsrRows::new();
        counting_scatter(4, 4, 2, &mut scratch, &mut out, |v| {
            std::iter::once((v as u32, v as u32))
        });
        assert_eq!(out.row(2), &[2]);
        // Second scatter with different shape reuses both buffers.
        counting_scatter(2, 3, 2, &mut scratch, &mut out, |v| {
            std::iter::once(((v % 2) as u32, v as u32))
        });
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0), &[0, 2]);
        assert_eq!(out.row(1), &[1]);
    }

    #[test]
    fn csr_par_rows_mut_sees_every_row() {
        let mut scratch = ScatterScratch::new();
        let mut out = CsrRows::new();
        counting_scatter(5, 20, 2, &mut scratch, &mut out, |v| {
            std::iter::once(((v % 5) as u32, v as u32))
        });
        out.par_rows_mut(3, |_, row| row.sort_unstable_by(|a, b| b.cmp(a)));
        for u in 0..5 {
            let row = out.row(u);
            assert_eq!(row.len(), 4);
            assert!(row.windows(2).all(|w| w[0] > w[1]), "row {u} not reverse-sorted");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut scratch = ScatterScratch::new();
        let mut out = CsrRows::<u32>::new();
        counting_scatter(0, 0, 4, &mut scratch, &mut out, |_| std::iter::empty());
        assert!(out.is_empty());
        let lists = KnnLists::from_rows(&[]);
        assert!(lists.is_empty());
        assert_eq!(lists.k(), 0);
    }
}
