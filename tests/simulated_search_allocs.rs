//! A warmed-up simulated search on a recycled table and scratch
//! allocates nothing, access log included.
//!
//! `gpu_sim::search_with` keeps one `SimTable` — its hash slots, its
//! per-round record and, when it logs, its access log — across the
//! searches it runs, so a caller that borrows the log after each search
//! pays no allocation per query in steady state. A counting global
//! allocator checks it under both mappings and both hash policies. The
//! allocator is process-wide, so this test has its own binary; it
//! counts only the test thread's allocations, so the harness's threads
//! cannot disturb it. It lives in the root package because `gpu-sim`
//! is pinned to zero `unsafe` (`crates/analyze/unsafe_budget.toml`),
//! tests included, and a global allocator is an `unsafe impl`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cagra::search::planner::Mode;
use cagra::{CagraIndex, GraphConfig, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::VectorStore;
use distance::Metric;
use gpu_sim::{search_with, HashPolicy, SimTable};

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

#[test]
fn a_warmed_up_logging_search_allocates_nothing() {
    let spec = SynthSpec { dim: 24, n: 600, queries: 12, family: Family::Gaussian, seed: 13 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let params = SearchParams::for_k(10);
    let forgettable = HashPolicy::Forgettable { bits: 9, reset_interval: 2 };
    for policy in [HashPolicy::Standard, forgettable] {
        for mode in [Mode::SingleCta, Mode::MultiCta] {
            let mut scratch = SearchScratch::new();
            let mut table = SimTable::new(policy, true);
            let mut search = |qi: usize| {
                let p = SearchParams { seed: params.seed_for_query(qi), ..params };
                search_with(&index, queries.row(qi), 10, &p, mode, &mut table, &mut scratch);
                let log = table.record().accesses.as_ref().expect("the table logs");
                log.init_scored.len() as u64
            };
            // One pass sizes the table, its record and its log for
            // every query (and any lazily created process state); a
            // second pass over the same queries must reuse them.
            let first: Vec<u64> = (0..queries.len()).map(&mut search).collect();
            for (qi, &init) in first.iter().enumerate() {
                let mut logged = 0;
                let allocs = allocations_in(|| logged = search(qi));
                assert_eq!(allocs, 0, "{policy:?}/{mode:?}: query {qi} allocated {allocs} times");
                assert_eq!(logged, init, "{policy:?}/{mode:?}: query {qi} log");
            }
        }
    }
}
