//! A warmed-up search on a recycled scratch allocates nothing.
//!
//! `CagraIndex::search_mode_with` promises that reusing one
//! `SearchScratch` across queries performs zero heap allocations per
//! query in steady state. A counting global allocator checks it on an
//! f32 index under both mappings, without and with an f32 rerank
//! store. The allocator is process-wide, so this test has its own
//! binary; it counts only the test thread's allocations, so the
//! harness's threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cagra::search::planner::Mode;
use cagra::{CagraIndex, GraphConfig, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::Metric;

thread_local! {
    // `const` initializers: no lazy setup and no destructor, so the
    // allocator can touch them without allocating itself.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the count
// is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    /// # Safety
    /// `GlobalAlloc::alloc`'s contract, forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded caller contract (non-zero-size `layout`).
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    /// `GlobalAlloc::alloc_zeroed`'s contract, forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded caller contract (non-zero-size `layout`).
        unsafe { System.alloc_zeroed(layout) }
    }

    /// # Safety
    /// `GlobalAlloc::realloc`'s contract, forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded caller contract (`ptr` came from this
        // allocator with `layout`, `new_size` is non-zero).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    /// # Safety
    /// `GlobalAlloc::dealloc`'s contract, forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract (`ptr` came from this
        // allocator with `layout`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

/// Every later query of `queries` on one recycled scratch, under both
/// mappings, allocates nothing.
fn assert_steady_state_allocates_nothing<S: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Dataset,
    params: &SearchParams,
) {
    for mode in [Mode::SingleCta, Mode::MultiCta] {
        let mut scratch = SearchScratch::new();
        // The first query sizes the scratch (and any lazily created
        // process state); every later one must reuse it.
        index.search_mode_with(queries.row(0), 10, params, mode, &mut scratch);
        for qi in 1..queries.len() {
            let allocs = allocations_in(|| {
                index.search_mode_with(queries.row(qi), 10, params, mode, &mut scratch)
            });
            assert_eq!(allocs, 0, "{mode:?}: query {qi} allocated {allocs} times");
            assert_eq!(scratch.results().len(), 10);
        }
    }
}

#[test]
fn a_warmed_up_search_on_recycled_scratch_allocates_nothing() {
    let spec = SynthSpec { dim: 24, n: 600, queries: 12, family: Family::Gaussian, seed: 13 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    assert_steady_state_allocates_nothing(&index, &queries, &SearchParams::for_k(10));
}

#[test]
fn a_warmed_up_reranked_search_allocates_nothing() {
    let spec = SynthSpec { dim: 24, n: 600, queries: 12, family: Family::Gaussian, seed: 14 };
    let (base, queries) = spec.generate();
    let rows = Dataset::from_flat(base.as_flat().to_vec(), base.dim());
    let (mut index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    index.set_rerank_store(Box::new(rows));
    let params = SearchParams { rerank_depth: 32, ..SearchParams::for_k(10) };
    assert_steady_state_allocates_nothing(&index, &queries, &params);
}
