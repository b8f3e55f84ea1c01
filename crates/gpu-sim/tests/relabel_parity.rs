//! Relabeling must be invisible in simulated results too — the
//! forgettable-hash leg of `cagra`'s `tests/relabel_parity.rs`. The
//! forgettable reset re-seeds exactly the worker's top-M, whose entries
//! are placed by geometry, so it is id-independent (see DESIGN.md,
//! "Memory locality").

use cagra::search::planner::Mode;
use cagra::{CagraIndex, GraphConfig, RelabelStrategy, SearchParams};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use gpu_sim::{search_batch_traced, HashPolicy};
use knn::topk::Neighbor;

fn clone_of(index: &CagraIndex<Dataset>) -> CagraIndex<Dataset> {
    let store = Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim());
    CagraIndex::from_parts(store, index.graph().clone(), index.metric())
}

fn assert_bit_identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: batch size");
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{label}: query {qi} result count");
        for (rank, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(p.id, q.id, "{label}: query {qi} rank {rank} id");
            assert_eq!(
                p.dist.to_bits(),
                q.dist.to_bits(),
                "{label}: query {qi} rank {rank} distance bits"
            );
        }
    }
}

/// The Forgettable-hash leg of the parity contract, on the simulated
/// entry: periodic resets re-seed the top-M, so relabeled forgettable
/// search is bit-identical too — across strategies, both kernel
/// mappings, several table sizes, and reset intervals (interval 1 is
/// the adversarial case: a reset before every expansion).
#[test]
fn forgettable_hash_relabeled_search_is_bit_identical() {
    let spec = SynthSpec {
        dim: 12,
        n: 900,
        queries: 25,
        family: Family::Clustered { clusters: 12, spread: 0.8 },
        seed: 1010,
    };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let k = 10;

    let params = SearchParams::for_k(k);
    let simulated = |index: &CagraIndex<Dataset>, mode, policy| -> Vec<Vec<Neighbor>> {
        let out = search_batch_traced(index, &queries, k, &params, mode, policy);
        out.into_iter().map(|(results, _)| results).collect()
    };
    for (bits, reset_interval) in [(8u8, 1u8), (8, 2), (10, 1)] {
        let policy = HashPolicy::Forgettable { bits, reset_interval };
        for strategy in [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder] {
            let mut relabeled = clone_of(&index);
            relabeled.relabel(strategy);
            for mode in [Mode::SingleCta, Mode::MultiCta] {
                let baseline = simulated(&index, mode, policy);
                let got = simulated(&relabeled, mode, policy);
                assert_bit_identical(
                    &got,
                    &baseline,
                    &format!(
                        "forgettable bits={bits} interval={reset_interval}/{strategy:?}/{mode:?}"
                    ),
                );
            }
        }
    }
}
