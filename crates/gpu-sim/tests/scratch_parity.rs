//! Parity between the zero-allocation simulated batch path and
//! per-query fresh-state simulated search — the hash-table legs of
//! `cagra`'s `tests/scratch_parity.rs`.
//!
//! A batch searched on recycled per-thread scratch and hash tables has
//! to return bit-identical `Neighbor` lists (ids *and* distances), and
//! record the same walk and table work, as searching each query on a
//! brand-new scratch and table, across both kernel
//! mappings, any thread count and both hash policies — and the
//! standard table must return what the host entry
//! (`search_mode_with`, the dense visited set) returns on a fresh or a
//! recycled scratch, walking the graph the same way.
//! The same goes for the SIMD distance backends: forcing the scalar
//! fallback (the `CAGRA_FORCE_SCALAR` switch) must not move a bit
//! either. Everything runs inside one `#[test]` function because
//! the thread-count and backend legs mutate process-wide state
//! (`CAGRA_THREADS`, the forced-scalar flag), and Rust runs
//! `#[test]`s concurrently.

use cagra::search::planner::Mode;
use cagra::search::trace::SearchTrace;
use cagra::{CagraIndex, GraphConfig, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::VectorStore;
use distance::Metric;
use gpu_sim::{search_batch_traced, search_with, HashPolicy, SimRound, SimTable, SimTrace};
use knn::topk::Neighbor;

/// One query's results, host trace and table rounds (none for a host
/// search).
type Run = (Vec<Neighbor>, SearchTrace, Vec<SimRound>);

/// Each query on a brand-new scratch with the seed the batch entry
/// gives it: through the host entry (`search_mode_with`, the dense
/// visited set) for `None`, else on a brand-new table under `policy`.
fn fresh_per_query(
    index: &CagraIndex<dataset::Dataset>,
    queries: &dataset::Dataset,
    k: usize,
    params: &SearchParams,
    mode: Mode,
    policy: Option<HashPolicy>,
) -> Vec<Run> {
    (0..queries.len())
        .map(|qi| {
            let p = SearchParams { seed: params.seed_for_query(qi), ..*params };
            let mut scratch = SearchScratch::new();
            let rounds = match policy {
                None => {
                    index.search_mode_with(queries.row(qi), k, &p, mode, &mut scratch);
                    Vec::new()
                }
                Some(policy) => {
                    let mut table = SimTable::new(policy, false);
                    search_with(index, queries.row(qi), k, &p, mode, &mut table, &mut scratch);
                    table.record().rounds.clone()
                }
            };
            (scratch.results().to_vec(), scratch.trace().clone(), rounds)
        })
        .collect()
}

/// What a search did apart from its visited table: distances per
/// round, candidates and sort lengths, and the shape it ran.
type Walk = (u64, Vec<(u64, u64, u64)>, [usize; 4]);

fn walk(t: &SearchTrace) -> Walk {
    let rounds = t.iterations.iter().map(|i| (i.candidates, i.distances_computed, i.sort_len));
    (t.init_distances, rounds.collect(), [t.itopk, t.search_width, t.degree, t.num_workers])
}

fn neighbors_of(runs: &[Run]) -> Vec<Vec<Neighbor>> {
    runs.iter().map(|(r, _, _)| r.clone()).collect()
}

/// `simulated` returns what `host` does, bit for bit, and walks the
/// graph the same way.
fn assert_same_search(simulated: &[Run], host: &[Run], label: &str) {
    assert_bit_identical(&neighbors_of(simulated), &neighbors_of(host), label);
    for (qi, ((_, s, _), (_, h, _))) in simulated.iter().zip(host).enumerate() {
        assert_eq!(walk(s), walk(h), "{label}: query {qi} trace");
    }
}

/// The simulated batch entry.
fn batch(
    index: &CagraIndex<dataset::Dataset>,
    queries: &dataset::Dataset,
    k: usize,
    params: &SearchParams,
    mode: Mode,
    policy: HashPolicy,
) -> Vec<(Vec<Neighbor>, SimTrace)> {
    search_batch_traced(index, queries, k, params, mode, policy)
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
    let forgettable = HashPolicy::Forgettable { bits: 9, reset_interval: 2 };
    let tables = [(forgettable, "forgettable"), (HashPolicy::Standard, "standard")];

    for mode in [Mode::SingleCta, Mode::MultiCta] {
        let host = fresh_per_query(&index, &queries, k, &params, mode, None);
        // The host entry on one recycled scratch, as a serving worker
        // drives it.
        let mut scratch = SearchScratch::new();
        let recycled: Vec<_> = (0..queries.len())
            .map(|qi| {
                let p = SearchParams { seed: params.seed_for_query(qi), ..params };
                index.search_mode_with(queries.row(qi), k, &p, mode, &mut scratch);
                (scratch.results().to_vec(), scratch.trace().clone(), Vec::new())
            })
            .collect();
        for (policy, table) in tables {
            let fresh_runs = fresh_per_query(&index, &queries, k, &params, mode, Some(policy));
            let fresh = neighbors_of(&fresh_runs);
            if policy == HashPolicy::Standard {
                // Sized never to fill, the standard table admits what
                // the host's dense one does.
                assert_same_search(&fresh_runs, &host, &format!("{mode:?}/standard-vs-host"));
                let label = format!("{mode:?}/standard-vs-recycled-host");
                assert_same_search(&fresh_runs, &recycled, &label);
            }

            // SIMD-vs-scalar axis: the kernel backends share one
            // canonical summation order, so forcing the scalar
            // fallback must not move a single result bit — across
            // both CTA mappings and every visited table.
            let forcing_before = distance::kernels::forcing_scalar();
            distance::kernels::force_scalar(true);
            let scalar_results =
                neighbors_of(&fresh_per_query(&index, &queries, k, &params, mode, Some(policy)));
            distance::kernels::force_scalar(false);
            let simd_results =
                neighbors_of(&fresh_per_query(&index, &queries, k, &params, mode, Some(policy)));
            distance::kernels::force_scalar(forcing_before);
            assert_bit_identical(
                &scalar_results,
                &simd_results,
                &format!("{table}/{mode:?}/scalar-vs-simd"),
            );
            assert_bit_identical(&fresh, &simd_results, &format!("{table}/{mode:?}/env"));

            // The batch path must match fresh state at every thread
            // count: 1 (one scratch serves the whole batch — maximum
            // reuse) and several (one scratch per worker), walking and
            // probing as fresh state does. At one thread its traces
            // must report reuse for every query after the first.
            for threads in ["1", "4"] {
                std::env::set_var("CAGRA_THREADS", threads);
                let out = batch(&index, &queries, k, &params, mode, policy);
                std::env::remove_var("CAGRA_THREADS");
                let results: Vec<Vec<Neighbor>> = out.iter().map(|(r, _)| r.clone()).collect();
                let label = format!("{table}/{mode:?}/threads={threads}");
                assert_bit_identical(&results, &fresh, &label);
                for (qi, ((_, t), (_, h, rounds))) in out.iter().zip(&fresh_runs).enumerate() {
                    assert_eq!(walk(&t.host), walk(h), "{label}: query {qi} trace");
                    assert_eq!(&t.sim.rounds, rounds, "{label}: query {qi} table rounds");
                }
                assert!(out[0].1.sim.hash_slots > 0, "{label}: table");
                if threads == "1" {
                    assert!(!out[0].1.host.scratch_reused, "{label}: first query is not a reuse");
                    let reused = out[1..].iter().all(|(_, t)| t.host.scratch_reused);
                    assert!(reused, "{label}: reuse");
                }
            }
        }
    }

    // Explicitly driving one scratch and one table through many
    // queries (the `search_with` loop a custom batch would run) also
    // matches.
    let mut scratch = SearchScratch::new();
    for mode in [Mode::SingleCta, Mode::MultiCta] {
        let fresh = fresh_per_query(&index, &queries, k, &params, mode, Some(forgettable));
        let mut table = SimTable::new(forgettable, false);
        for (qi, (fresh_qi, _, _)) in fresh.iter().enumerate() {
            let p = SearchParams { seed: params.seed_for_query(qi), ..params };
            search_with(&index, queries.row(qi), k, &p, mode, &mut table, &mut scratch);
            assert_bit_identical(
                std::slice::from_ref(&scratch.results().to_vec()),
                std::slice::from_ref(fresh_qi),
                &format!("manual/{mode:?}/query {qi}"),
            );
        }
    }
    assert!(scratch.reused(), "the manually driven scratch served many searches");
}
