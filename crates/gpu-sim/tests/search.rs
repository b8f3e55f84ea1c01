//! The simulated entries: what the GPU's visited tables do to a search
//! and its trace. Moved from `cagra` with the tables: `kernel.rs`'s
//! forgettable-recall test, `scratch.rs`'s policy check and `shard.rs`'s
//! traced test.

use cagra::search::planner::Mode;
use cagra::{CagraIndex, GraphConfig, SearchParams, SearchScratch, ShardedIndex};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use gpu_sim::{search_batch_traced, search_sharded_traced, search_with, HashPolicy, SimTable};
use knn::brute::exact_search;

fn setup(n: usize) -> CagraIndex<Dataset> {
    let spec = SynthSpec { dim: 8, n, queries: 0, family: Family::Gaussian, seed: 3 };
    CagraIndex::build(spec.generate().0, Metric::SquaredL2, &GraphConfig::new(16)).0
}

#[test]
fn forgettable_hash_recall_not_catastrophic() {
    // Paper: periodic reset may recompute distances but must not
    // collapse recall.
    let ix = setup(2000);
    let spec = SynthSpec { dim: 8, n: 0, queries: 20, family: Family::Gaussian, seed: 7 };
    let (_, queries) = spec.generate();
    let p = SearchParams::for_k(10);
    let policy = HashPolicy::Forgettable { bits: 8, reset_interval: 1 };
    let out = search_batch_traced(&ix, &queries, 10, &p, Mode::SingleCta, policy);
    let mut hits = 0usize;
    for (qi, (got, trace)) in out.iter().enumerate() {
        assert!(trace.sim.hash_in_shared && trace.sim.rounds.iter().any(|r| r.reset));
        let want = exact_search(ix.store(), Metric::SquaredL2, queries.row(qi), 10);
        hits += got.iter().filter(|n| want.iter().any(|w| w.id == n.id)).count();
    }
    let recall = hits as f64 / (queries.len() * 10) as f64;
    assert!(recall > 0.8, "forgettable recall@10 = {recall}");
    // Multi-CTA's table lives in device memory and is never reset.
    let (_, trace) = &search_batch_traced(&ix, &queries, 10, &p, Mode::MultiCta, policy)[0];
    assert!(!trace.sim.hash_in_shared && trace.sim.rounds.iter().all(|r| !r.reset));
}

#[test]
fn simulate_rejects_degenerate_forgettable_tables() {
    let ix = setup(200);
    let (q, p) = (ix.store().row(0).to_vec(), SearchParams::for_k(5));
    let run = |policy| {
        let mut scratch = SearchScratch::new();
        let mut table = SimTable::new(policy, false);
        search_with(&ix, &q, 5, &p, Mode::SingleCta, &mut table, &mut scratch);
        table.record().clone()
    };
    for policy in [
        HashPolicy::Forgettable { bits: 2, reset_interval: 1 },
        HashPolicy::Forgettable { bits: 25, reset_interval: 1 },
        HashPolicy::Forgettable { bits: 11, reset_interval: 0 },
    ] {
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(policy)));
        assert!(refused.is_err(), "{policy:?} accepted");
    }
    let smallest = run(HashPolicy::Forgettable { bits: 4, reset_interval: 1 });
    assert_eq!((smallest.hash_slots, smallest.hash_in_shared), (16, true));
    let standard = run(HashPolicy::Standard);
    assert!(standard.hash_slots >= 256 && !standard.hash_in_shared);
}

#[test]
fn traced_search_returns_one_trace_per_shard() {
    let spec = SynthSpec { dim: 8, n: 2400, queries: 25, family: Family::Gaussian, seed: 77 };
    let (base, queries) = spec.generate();
    let (sharded, _) = ShardedIndex::build(&base, Metric::SquaredL2, &GraphConfig::new(8), 3);
    let p = SearchParams::for_k(5);
    let (got, traces) = search_sharded_traced(
        &sharded,
        queries.row(0),
        5,
        &p,
        Mode::SingleCta,
        HashPolicy::Standard,
    );
    assert_eq!(traces.len(), 3);
    assert!(traces.iter().all(|t| t.sim.hash_slots > 0), "simulated traces carry their table");
    assert_eq!(got, sharded.search(queries.row(0), 5, &p, Mode::SingleCta));
}
