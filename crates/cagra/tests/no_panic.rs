//! No-panic guarantee of the fallible public API: for *any*
//! combination of dataset shape, graph degree, query dimension, and
//! knob settings — including degenerate ones (n = 0, n = 1,
//! n < itopk, self-loop-only graphs, zero widths) — the `try_*`
//! entry points return `Ok` or a typed [`SearchError`], never panic.
//!
//! The second property pins the error taxonomy: `try_search_batch`
//! errors exactly when the input violates a documented rule, so the
//! fallible API neither invents spurious failures nor lets invalid
//! input through.

use cagra::search::planner::Mode;
use cagra::{CagraIndex, SearchError, SearchParams};
use dataset::Dataset;
use distance::Metric;
use graph::FixedDegreeGraph;
use proptest::prelude::*;

/// Ring-shifted fixed-degree graph: node `v` points at
/// `v+1 .. v+degree` (mod n). For `n == 1` every edge is a self loop,
/// which the searcher must tolerate.
fn ring(n: usize, degree: usize) -> FixedDegreeGraph {
    let flat: Vec<u32> =
        (0..n).flat_map(|v| (1..=degree).map(move |j| ((v + j) % n.max(1)) as u32)).collect();
    FixedDegreeGraph::from_flat(flat, n, degree)
}

/// Deterministic filler vectors (an LCG; the values themselves are
/// irrelevant to the no-panic property).
fn filler(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut x = seed | 1;
    let flat: Vec<f32> = (0..n * dim)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 40) as i32 % 1000) as f32 / 16.0
        })
        .collect();
    Dataset::from_flat(flat, dim)
}

/// Mirror of the documented validity rules, computed independently of
/// `validate()` so the test catches drift in either direction.
#[allow(clippy::too_many_arguments)]
fn input_is_valid(p: &SearchParams, k: usize, n: usize, dim: usize, qdim: usize) -> bool {
    qdim == dim
        && k >= 1
        && k <= p.itopk
        && k <= n
        && p.itopk <= SearchParams::MAX_ITOPK
        && (1..=SearchParams::MAX_SEARCH_WIDTH).contains(&p.search_width)
        && (1..=SearchParams::MAX_NUM_CTA).contains(&p.num_cta)
        && p.max_iterations <= SearchParams::MAX_ITERATION_BOUND
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn try_search_batch_never_panics_and_errors_exactly_on_invalid_input(
        n in 0usize..48,
        dim in 1usize..8,
        degree in 1usize..6,
        qdim in 1usize..8,
        k in 0usize..24,
        itopk in 0usize..64,
        width in 0usize..4,
        num_cta in 0usize..4,
        single in any::<bool>(),
    ) {
        let index =
            CagraIndex::try_new(filler(n, dim, 7), ring(n, degree), Metric::SquaredL2).unwrap();
        let mut p = SearchParams::for_k(k.max(1));
        p.itopk = itopk;
        p.search_width = width;
        p.num_cta = num_cta;
        let q = Dataset::from_flat(vec![0.25f32; qdim], qdim);
        let mode = if single { Mode::SingleCta } else { Mode::MultiCta };
        // Reaching a match arm at all is the no-panic property.
        match index.try_search_batch(&q, k, &p, mode, false) {
            Ok(out) => {
                let res = &out.neighbors[0];
                prop_assert!(
                    input_is_valid(&p, k, n, dim, qdim),
                    "invalid input accepted: n={} dim={} qdim={} k={} params={:?}",
                    n, dim, qdim, k, p
                );
                prop_assert!(res.len() <= k, "{} results for k={}", res.len(), k);
                for w in res.windows(2) {
                    prop_assert!(w[0].dist <= w[1].dist, "results not sorted");
                }
                let mut ids: Vec<u32> = res.iter().map(|x| x.id).collect();
                for &id in &ids {
                    prop_assert!((id as usize) < n, "id {} out of range (n={})", id, n);
                }
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), res.len(), "duplicate ids in results");
            }
            Err(e) => {
                prop_assert!(
                    !input_is_valid(&p, k, n, dim, qdim),
                    "spurious {e} for valid input: n={} dim={} qdim={} k={} params={:?}",
                    n, dim, qdim, k, p
                );
            }
        }
    }

    #[test]
    fn try_search_batch_never_panics_for_any_batch_size(
        n in 0usize..40,
        dim in 1usize..6,
        degree in 1usize..5,
        nq in 0usize..5,
        qdim in 1usize..6,
        k in 0usize..12,
    ) {
        let index =
            CagraIndex::try_new(filler(n, dim, 11), ring(n, degree), Metric::SquaredL2).unwrap();
        let queries = filler(nq, qdim, 13);
        let p = SearchParams::for_k(k.max(1));
        if let Ok(out) = index.try_search_batch(&queries, k, &p, Mode::MultiCta, false) {
            prop_assert_eq!(out.neighbors.len(), nq);
            prop_assert!(out.traces.is_empty());
        }
        if let Ok(out) = index.try_search_batch(&queries, k, &p, Mode::SingleCta, true) {
            prop_assert_eq!((out.neighbors.len(), out.traces.len()), (nq, nq));
        }
    }

    /// Hostile query *values*: NaN and ±∞ components make some or all
    /// distances NaN / infinite. The top-M list never admits a NaN
    /// distance, so the search must come back `Ok` with at most `k`
    /// distinct in-range ids — possibly none — in both modes.
    #[test]
    fn non_finite_query_components_never_panic_or_duplicate(
        n in 1usize..48,
        dim in 1usize..8,
        degree in 1usize..6,
        k in 1usize..12,
        poison in proptest::collection::vec((0usize..8, 0u8..3), 1..4),
        metric in 0usize..3,
    ) {
        let metric = [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine][metric];
        let index = CagraIndex::try_new(filler(n, dim, 19), ring(n, degree), metric).unwrap();
        let mut q = filler(1, dim, 23).as_flat().to_vec();
        for &(at, kind) in &poison {
            q[at % dim] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind as usize];
        }
        let q = Dataset::from_flat(q, dim);
        let k = k.min(n);
        for mode in [Mode::SingleCta, Mode::MultiCta] {
            let out = index.try_search_batch(&q, k, &SearchParams::for_k(k), mode, false);
            prop_assert!(out.is_ok(), "{:?}: {:?}", mode, out.err());
            let res = &out.unwrap().neighbors[0];
            prop_assert!(res.len() <= k, "{} results for k={}", res.len(), k);
            prop_assert!(res.iter().all(|x| !x.dist.is_nan()), "NaN distance in results");
            let mut ids: Vec<u32> = res.iter().map(|x| x.id).collect();
            prop_assert!(ids.iter().all(|&id| (id as usize) < n));
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), res.len(), "duplicate ids in results");
        }
    }

    #[test]
    fn try_new_rejects_exactly_size_mismatches(
        n_store in 0usize..30,
        n_graph in 0usize..30,
        dim in 1usize..6,
        degree in 1usize..5,
    ) {
        let r = CagraIndex::try_new(
            filler(n_store, dim, 17),
            ring(n_graph, degree),
            Metric::SquaredL2,
        );
        if n_store == n_graph {
            prop_assert!(r.is_ok());
        } else {
            prop_assert_eq!(
                r.err(),
                Some(SearchError::SizeMismatch { store: n_store, graph: n_graph })
            );
        }
    }
}

/// The exact-k contract on healthy input: a valid request over a
/// dataset with at least `itopk` vectors returns exactly `k` results.
#[test]
fn valid_request_returns_exactly_k() {
    let n = 200;
    let index = CagraIndex::try_new(filler(n, 4, 3), ring(n, 8), Metric::SquaredL2).unwrap();
    let p = SearchParams::for_k(10);
    for mode in [Mode::SingleCta, Mode::MultiCta] {
        let (res, _) = index.search_mode(&[0.5; 4], 10, &p, mode);
        assert_eq!(res.len(), 10);
    }
}

/// Tiny-dataset edge cases the fuzz above covers probabilistically,
/// pinned deterministically: n = 1 (all self loops) and n < itopk.
#[test]
fn tiny_datasets_search_cleanly() {
    // n = 1: the only node is its own neighbor.
    let index = CagraIndex::try_new(filler(1, 3, 5), ring(1, 2), Metric::SquaredL2).unwrap();
    let mut p = SearchParams::for_k(1);
    p.itopk = 1;
    let res = index.search(&[0.0; 3], 1, &p);
    assert_eq!(res.len(), 1);
    assert_eq!(res[0].id, 0);

    // n = 5 with the default itopk = 64 (n < itopk): valid, returns k.
    let index = CagraIndex::try_new(filler(5, 3, 5), ring(5, 2), Metric::SquaredL2).unwrap();
    let p = SearchParams::for_k(3);
    let res = index.search(&[0.0; 3], 3, &p);
    assert_eq!(res.len(), 3);

    // n = 0: any k >= 1 exceeds the dataset.
    let index = CagraIndex::try_new(Dataset::empty(3), ring(0, 2), Metric::SquaredL2).unwrap();
    let q = Dataset::from_flat(vec![0.0; 3], 3);
    assert_eq!(
        index.try_search_batch(&q, 1, &SearchParams::for_k(1), Mode::SingleCta, false).err(),
        Some(SearchError::KExceedsDataset { k: 1, n: 0 })
    );
}
