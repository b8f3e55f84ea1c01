//! Parity between the zero-allocation batch path and per-query
//! fresh-state search.
//!
//! The scratch-reuse refactor must be invisible in results: a batch
//! searched on recycled per-thread scratch has to return bit-identical
//! `Neighbor` lists (ids *and* distances) to searching each query on a
//! brand-new scratch, across both kernel mappings and any thread count.
//! The same goes for the SIMD distance backends: forcing the scalar
//! fallback (the `CAGRA_FORCE_SCALAR` switch) must not move a bit
//! either. (The simulated hash tables' legs live in `gpu-sim`'s
//! `tests/scratch_parity.rs`.) Everything runs inside one `#[test]` function because
//! the thread-count and backend legs mutate process-wide state
//! (`CAGRA_THREADS`, the forced-scalar flag), and Rust runs
//! `#[test]`s concurrently.

use cagra::search::planner::Mode;
use cagra::search::trace::SearchTrace;
use cagra::{CagraIndex, GraphConfig, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::VectorStore;
use distance::Metric;
use knn::topk::Neighbor;

/// Each query on a brand-new scratch with the seed the batch entry
/// gives it.
fn fresh_per_query(
    index: &CagraIndex<dataset::Dataset>,
    queries: &dataset::Dataset,
    k: usize,
    params: &SearchParams,
    mode: Mode,
) -> Vec<Vec<Neighbor>> {
    (0..queries.len())
        .map(|qi| {
            let p = SearchParams { seed: params.seed_for_query(qi), ..*params };
            let mut scratch = SearchScratch::new();
            index.search_mode_with(queries.row(qi), k, &p, mode, &mut scratch);
            scratch.results().to_vec()
        })
        .collect()
}

/// The validated batch entry, traced.
fn batch(
    index: &CagraIndex<dataset::Dataset>,
    queries: &dataset::Dataset,
    k: usize,
    params: &SearchParams,
    mode: Mode,
) -> Vec<(Vec<Neighbor>, SearchTrace)> {
    let out = index.try_search_batch(queries, k, params, Some(mode), true);
    let out = out.expect("valid request");
    out.neighbors.into_iter().zip(out.traces).collect()
}

fn assert_bit_identical(batch: &[Vec<Neighbor>], fresh: &[Vec<Neighbor>], label: &str) {
    assert_eq!(batch.len(), fresh.len(), "{label}: batch size");
    for (qi, (b, f)) in batch.iter().zip(fresh).enumerate() {
        assert_eq!(b.len(), f.len(), "{label}: query {qi} result count");
        for (rank, (x, y)) in b.iter().zip(f).enumerate() {
            assert_eq!(x.id, y.id, "{label}: query {qi} rank {rank} id");
            assert_eq!(
                x.dist.to_bits(),
                y.dist.to_bits(),
                "{label}: query {qi} rank {rank} distance bits"
            );
        }
    }
}

#[test]
fn batch_scratch_reuse_is_bit_identical_to_fresh_state() {
    let spec = SynthSpec { dim: 12, n: 1200, queries: 40, family: Family::Gaussian, seed: 77 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let k = 10;
    let params = SearchParams::for_k(k);

    for mode in [Mode::SingleCta, Mode::MultiCta] {
        let fresh = fresh_per_query(&index, &queries, k, &params, mode);

        // SIMD-vs-scalar axis: the kernel backends share one canonical
        // summation order, so forcing the scalar fallback must not move
        // a single result bit — across both CTA mappings.
        let forcing_before = distance::kernels::forcing_scalar();
        distance::kernels::force_scalar(true);
        let scalar_results = fresh_per_query(&index, &queries, k, &params, mode);
        distance::kernels::force_scalar(false);
        let simd_results = fresh_per_query(&index, &queries, k, &params, mode);
        distance::kernels::force_scalar(forcing_before);
        assert_bit_identical(&scalar_results, &simd_results, &format!("{mode:?}/scalar-vs-simd"));
        assert_bit_identical(&fresh, &simd_results, &format!("{mode:?}/env"));

        // The batch path must match fresh state at every thread count:
        // 1 (one scratch serves the whole batch — maximum reuse) and
        // several (one scratch per worker). At one thread its traces
        // must report reuse for every query after the first.
        for threads in ["1", "4"] {
            std::env::set_var("CAGRA_THREADS", threads);
            let out = batch(&index, &queries, k, &params, mode);
            std::env::remove_var("CAGRA_THREADS");
            let results: Vec<Vec<Neighbor>> = out.iter().map(|(r, _)| r.clone()).collect();
            let label = format!("{mode:?}/threads={threads}");
            assert_bit_identical(&results, &fresh, &label);
            if threads == "1" {
                assert!(!out[0].1.scratch_reused, "{label}: first query is not a reuse");
                assert!(out[1..].iter().all(|(_, t)| t.scratch_reused), "{label}: reuse");
            }
        }
    }

    // Explicitly driving one scratch through many queries (the `*_with`
    // API a custom batch loop would use) also matches.
    let mut scratch = SearchScratch::new();
    for mode in [Mode::SingleCta, Mode::MultiCta] {
        let fresh = fresh_per_query(&index, &queries, k, &params, mode);
        for (qi, fresh_qi) in fresh.iter().enumerate() {
            let p = SearchParams { seed: params.seed_for_query(qi), ..params };
            index.search_mode_with(queries.row(qi), k, &p, mode, &mut scratch);
            assert_bit_identical(
                std::slice::from_ref(&scratch.results().to_vec()),
                std::slice::from_ref(fresh_qi),
                &format!("manual/{mode:?}/query {qi}"),
            );
        }
    }
    assert!(scratch.reused(), "the manually driven scratch served many searches");
}
