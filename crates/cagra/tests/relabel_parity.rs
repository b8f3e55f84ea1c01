//! Relabeling must be invisible in results: a relabeled index returns
//! bit-identical `Neighbor` lists (original ids *and* distance bits)
//! to the unpermuted index, for every strategy, both kernel mappings,
//! any thread count, on the host's dense visited set, which is
//! id-independent by construction. (The simulated forgettable hash
//! table's leg lives in `gpu-sim`'s `tests/relabel_parity.rs`.)
//! Env-mutating legs (`CAGRA_THREADS`) live in one `#[test]` because
//! Rust runs `#[test]`s concurrently.

use cagra::search::planner::Mode;
use cagra::{CagraIndex, GraphConfig, Permutation, RelabelStrategy, SearchParams};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use knn::topk::Neighbor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn clone_of(index: &CagraIndex<Dataset>) -> CagraIndex<Dataset> {
    let store = Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim());
    CagraIndex::from_parts(store, index.graph().clone(), index.metric())
}

fn batch(
    index: &CagraIndex<Dataset>,
    queries: &Dataset,
    k: usize,
    params: &SearchParams,
    mode: Mode,
) -> Vec<Vec<Neighbor>> {
    index.try_search_batch(queries, k, params, mode, false).expect("valid request").neighbors
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

#[test]
fn relabeled_search_is_bit_identical_across_strategies_modes_threads() {
    // Clustered data: the workload relabeling is built for.
    let spec = SynthSpec {
        dim: 12,
        n: 1000,
        queries: 30,
        family: Family::Clustered { clusters: 16, spread: 0.8 },
        seed: 404,
    };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let k = 10;
    let params = SearchParams::for_k(k);

    for strategy in [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder] {
        let mut relabeled = clone_of(&index);
        relabeled.relabel(strategy);
        assert!(
            relabeled.id_map().is_some(),
            "{strategy:?} on a real graph must not be the identity"
        );
        for mode in [Mode::SingleCta, Mode::MultiCta] {
            let baseline = batch(&index, &queries, k, &params, mode);
            for threads in ["1", "4"] {
                std::env::set_var("CAGRA_THREADS", threads);
                let got = batch(&relabeled, &queries, k, &params, mode);
                std::env::remove_var("CAGRA_THREADS");
                assert_bit_identical(
                    &got,
                    &baseline,
                    &format!("{strategy:?}/{mode:?}/threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn composed_relabels_still_match_the_unpermuted_index() {
    let spec = SynthSpec { dim: 8, n: 600, queries: 15, family: Family::Gaussian, seed: 99 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8));
    let k = 5;
    let params = SearchParams::for_k(k);
    let baseline = index.search_batch(&queries, k, &params);

    let mut twice = clone_of(&index);
    twice.relabel(RelabelStrategy::Degree);
    twice.relabel(RelabelStrategy::Rcm);
    assert_eq!(twice.id_map().unwrap().strategy, RelabelStrategy::Rcm);
    assert_bit_identical(&twice.search_batch(&queries, k, &params), &baseline, "degree∘rcm");
}

/// Every third row replaced by a copy of one of the first ten rows, so
/// each query below sits at one distance from about 40 rows.
fn rows_with_duplicates(n: usize, dim: usize) -> Dataset {
    let spec = SynthSpec { dim, n, queries: 0, family: Family::Gaussian, seed: 21 };
    let mut flat = spec.generate().0.as_flat().to_vec();
    for v in (0..n).step_by(3) {
        let src = (v / 3) % 10;
        flat.copy_within(src * dim..(src + 1) * dim, v * dim);
    }
    Dataset::from_flat(flat, dim)
}

#[test]
fn relabeled_multi_cta_keeps_every_tie_at_the_kth_distance() {
    // A worker's list is in internal-id order within a tie, and the
    // merge picks ties by original id: a per-worker cut at the k-th
    // entry that dropped the rest of its tie would answer with other
    // copies than the unpermuted index does.
    let (n, dim, k) = (1200, 8, 10);
    let base = rows_with_duplicates(n, dim);
    let queries = Dataset::from_flat((0..10).flat_map(|j| base.row(3 * j).to_vec()).collect(), dim);
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let params = SearchParams::for_k(k);
    let baseline = batch(&index, &queries, k, &params, Mode::MultiCta);
    for answer in &baseline {
        assert!(answer.iter().all(|nb| nb.dist == 0.0), "every answer is a copy of its query");
    }
    for strategy in [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder] {
        let mut relabeled = clone_of(&index);
        relabeled.relabel(strategy);
        let got = batch(&relabeled, &queries, k, &params, Mode::MultiCta);
        assert_bit_identical(&got, &baseline, &format!("{strategy:?} on duplicate rows"));
    }
}

fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut old_of_new: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        old_of_new.swap(i, j);
    }
    old_of_new
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn permutation_inverse_round_trips(n in 1usize..400, seed in 0u64..u64::MAX) {
        let perm = Permutation::from_old_of_new(random_permutation(n, seed));
        let inv = perm.inverse();
        prop_assert!(perm.then(&inv).is_identity(), "p ∘ p⁻¹ must be the identity");
        prop_assert!(inv.then(&perm).is_identity(), "p⁻¹ ∘ p must be the identity");
        for i in 0..n as u32 {
            prop_assert_eq!(perm.new_of_old(perm.old_of_new(i)), i);
            prop_assert_eq!(perm.old_of_new(perm.new_of_old(i)), i);
        }
    }
}

proptest! {
    // Each case builds a full index; keep the count small.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_small_indexes_search_identically_after_relabel(
        seed in 0u64..1 << 32,
        strategy_pick in 0usize..3,
        clusters in 2usize..12,
    ) {
        let strategy = [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder]
            [strategy_pick];
        let spec = SynthSpec {
            dim: 6,
            n: 300,
            queries: 8,
            family: Family::Clustered { clusters, spread: 0.7 },
            seed,
        };
        let (base, queries) = spec.generate();
        let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8));
        let k = 5;
        let params = SearchParams::for_k(k);
        let baseline = index.search_batch(&queries, k, &params);
        let mut relabeled = clone_of(&index);
        relabeled.relabel(strategy);
        let got = relabeled.search_batch(&queries, k, &params);
        for (b, g) in baseline.iter().zip(&got) {
            prop_assert_eq!(b, g, "{:?} moved results", strategy);
        }
    }
}
