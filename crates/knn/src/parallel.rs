//! Minimal data-parallel helper shared by the index builders.
//!
//! `rayon` is outside the allowed dependency list, so this module
//! provides the one primitive the workspace needs: run a closure over
//! index ranges on `num_threads` scoped threads with static chunking.
//! Builders in this repo are embarrassingly parallel over nodes or
//! queries, so static chunking is sufficient and keeps the code
//! auditable.

/// Number of worker threads to use: the `CAGRA_THREADS` environment
/// variable if set, otherwise `std::thread::available_parallelism()`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CAGRA_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The canonical static chunking of `0..n` over up to `threads`
/// workers: contiguous equal-size ranges (the last may be short).
/// Every parallel helper in the workspace chunks this way, so code
/// that pre-splits buffers (arena chunk views, histogram rows) lines
/// up exactly with the ranges the workers receive. Always returns at
/// least one range (`(0, 0)` when `n == 0`).
pub fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(threads).max(1);
    let mut out = Vec::with_capacity(threads);
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        out.push((start, end));
        start = end;
    }
    if out.is_empty() {
        out.push((0, 0));
    }
    out
}

/// Invoke `f(start, end)` over disjoint chunks of `0..n` on up to
/// `threads` scoped threads. Falls back to a direct call when `n` is
/// small or one thread is requested (avoids spawn overhead — the
/// "handle common special cases first" idiom).
pub fn parallel_chunks<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let ranges = chunk_ranges(n, threads);
    if ranges.len() == 1 {
        f(ranges[0].0, ranges[0].1);
        return;
    }
    std::thread::scope(|scope| {
        for &(start, end) in &ranges {
            let f = &f;
            scope.spawn(move || f(start, end));
        }
    });
}

/// Hand each worker its own contiguous block of rows of a flat
/// row-major `n_rows x row_len` buffer: `f(start, end, rows)` runs once
/// per [`chunk_ranges`] chunk with `rows` covering rows `start..end`.
/// Entirely safe: the buffer is pre-split at chunk boundaries, so no
/// worker can alias another's rows. This is the primitive behind the
/// flat-arena construction pipeline (exact k-NN tiles, reorder/prune
/// output, merge output).
pub fn parallel_fill_chunks<T, F>(
    buf: &mut [T],
    n_rows: usize,
    row_len: usize,
    threads: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert_eq!(buf.len(), n_rows * row_len, "row buffer shape mismatch");
    let ranges = chunk_ranges(n_rows, threads);
    if ranges.len() == 1 {
        f(0, n_rows, buf);
        return;
    }
    let mut rest = buf;
    std::thread::scope(|scope| {
        for &(start, end) in &ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut((end - start) * row_len);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(start, end, head));
        }
    });
}

/// [`parallel_fill_chunks`] one row at a time:
/// `f(&mut state, row_index, row)` runs once per row and `init`
/// creates the per-worker scratch state.
pub fn parallel_fill_rows_with<T, S, I, F>(
    buf: &mut [T],
    n_rows: usize,
    row_len: usize,
    threads: usize,
    init: I,
    f: F,
) where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    parallel_fill_chunks(buf, n_rows, row_len, threads, |start, end, rows| {
        let mut state = init();
        let mut rest = rows;
        for v in start..end {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(row_len);
            f(&mut state, v, row);
            rest = tail;
        }
    });
}

/// Map `0..n` to a `Vec<T>` in parallel, preserving index order.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, threads, || (), |(), i| f(i))
}

/// [`parallel_map`] with persistent per-worker state: `init` runs once
/// per worker and the resulting state is passed (mutably) to every
/// `f(&mut state, i)` call that worker serves.
///
/// This is the primitive behind allocation-free batch search: the
/// state is a scratch arena created once per worker and recycled
/// across all of its items. Chunking is static (one contiguous chunk
/// per thread), so each state sees its chunk's indices in ascending
/// order.
pub fn parallel_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    parallel_fill_chunks(&mut out, n, 1, threads, |start, _, slots| {
        let mut state = init();
        for (offset, slot) in slots.iter_mut().enumerate() {
            *slot = f(&mut state, start + offset);
        }
    });
    out
}

/// Raw mutable base pointer that workers move across `thread::scope`
/// boundaries for *disjoint-range writes only*: every user partitions
/// `0..len` into per-worker index sets before spawning, and each index
/// is written by exactly one worker while the owning buffer outlives
/// the scope. Under `debug_invariants` the allocation length rides
/// along and every write is bounds-asserted.
pub(crate) struct SendPtr<T> {
    ptr: *mut T,
    #[cfg(feature = "debug_invariants")]
    len: usize,
}

impl<T> SendPtr<T> {
    /// Capture `buf`'s base pointer (and, under `debug_invariants`,
    /// its length) for scoped-thread writes.
    pub(crate) fn new(buf: &mut [T]) -> Self {
        SendPtr {
            ptr: buf.as_mut_ptr(),
            #[cfg(feature = "debug_invariants")]
            len: buf.len(),
        }
    }

    /// Write `x` to slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the captured buffer, the buffer must
    /// still be live, and no other thread may concurrently read or
    /// write slot `i` (callers guarantee this by partitioning indices
    /// across workers before spawning).
    #[inline]
    pub(crate) unsafe fn write(self, i: usize, x: T) {
        #[cfg(feature = "debug_invariants")]
        assert!(i < self.len, "SendPtr write out of bounds: {i} >= {}", self.len);
        // SAFETY: forwarded caller contract — `i` in bounds of a live
        // buffer and this thread is the only one touching slot `i`.
        unsafe { *self.ptr.add(i) = x };
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: sending the pointer to another thread only ever results in
// values of `T` being *moved into* the buffer from that thread (see
// `write`'s contract: disjoint slots, no reads), which is exactly what
// `T: Send` licenses. No `&T`/`&mut T` to the same slot ever exists on
// two threads, so `T: Sync` is not required.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: `&SendPtr` only exposes `Copy` + the by-value `write` above,
// so sharing the wrapper across threads grants nothing beyond what
// `Send` already granted: disjoint-slot moves of `T`. `T: Send`
// therefore suffices here too (`T: Sync` would be needed only if two
// threads could hold references into the same slot, which the write
// contract rules out).
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_chunks(n, 4, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_is_a_noop() {
        let called = AtomicUsize::new(0);
        parallel_chunks(0, 8, |s, e| {
            assert_eq!((s, e), (0, 0));
            called.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(called.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn more_threads_than_items() {
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        parallel_chunks(3, 64, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(257, 4, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn parallel_map_with_reuses_state_within_a_thread() {
        // Each worker's state counts the items it served; the total
        // must cover every index exactly once, and (with one chunk per
        // thread) at least one state must serve more than one item.
        let n = 100;
        let out = parallel_map_with(
            n,
            4,
            || 0usize,
            |served, i| {
                *served += 1;
                (i, *served)
            },
        );
        assert_eq!(out.len(), n);
        for (idx, (i, served)) in out.iter().enumerate() {
            assert_eq!(*i, idx);
            assert!(*served >= 1);
        }
        assert!(out.iter().any(|&(_, served)| served > 1), "no state was reused");
        let total: usize = out.iter().filter(|&&(_, s)| s == 1).count();
        assert!(total <= 4, "at most one fresh state per thread, got {total}");
    }

    #[test]
    fn parallel_map_with_single_thread_sees_all_items() {
        let out = parallel_map_with(
            10,
            1,
            || 0usize,
            |count, _| {
                *count += 1;
                *count
            },
        );
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }
}
