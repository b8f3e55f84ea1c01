//! Traced best-first search — the "SONG-style" GPU kernel shape shared
//! by the GGNN and GANNS baselines.
//!
//! Both comparison methods search with a bounded priority queue plus an
//! open-addressing visited table, expanding one node per iteration and
//! computing the distances of its not-yet-visited neighbors (Zhao et
//! al.'s SONG formulation, which GGNN and GANNS inherit). This module
//! implements that loop once and records a [`SimTrace`] so
//! [`crate::simulate_batch`]
//! can cost the baselines with the *same* device model as CAGRA —
//! keeping the GPU-vs-GPU comparisons of Figs. 11 and 13 apples-to-
//! apples. The baselines map one distance to a full warp (`team = 32`)
//! and keep their visited tables in device memory, as their papers
//! describe.

use crate::trace::{SimRound, SimTrace};
use cagra::search::trace::IterationTrace;
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use knn::topk::{cmp_neighbor, Neighbor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Parameters of the baseline GPU search loop.
#[derive(Clone, Copy, Debug)]
pub struct BeamParams {
    /// Priority-queue width (the methods' `ef`/slack beam).
    pub beam: usize,
    /// Entry points: number of random starts (GGNN uses block
    /// entry points; random starts are the degree-matched equivalent).
    pub n_starts: usize,
    /// Iteration cap.
    pub max_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Best-first search over `adjacency`, returning results plus the
/// kernel trace (visited table modeled in device memory).
pub fn traced_beam_search<S: VectorStore + ?Sized>(
    adjacency: &[Vec<u32>],
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &BeamParams,
) -> (Vec<Neighbor>, SimTrace) {
    // A graph over a prefix of the store is allowed: incremental
    // builders (GANNS batch insertion) search the part built so far.
    assert!(adjacency.len() <= store.len(), "graph larger than dataset");
    assert_eq!(query.len(), store.dim(), "query dimension mismatch");
    let n = adjacency.len();
    let beam = params.beam.max(k).max(1);
    let avg_degree =
        if n == 0 { 0 } else { adjacency.iter().map(Vec::len).sum::<usize>() / n.max(1) };
    // SONG-style: hash sized for the whole search.
    let hash_slots = (2 * params.max_iterations.max(1) * avg_degree.max(1)).next_power_of_two();
    let mut trace = SimTrace::serial(beam, avg_degree.max(1), hash_slots);
    if n == 0 || k == 0 {
        return (Vec::new(), trace);
    }

    let oracle = DistanceOracle::new(store, metric);
    // A BTreeSet (not HashSet) keeps the membership structure free of
    // RandomState: nothing here iterates it today, but the determinism
    // lint bans hash containers on the search path outright.
    let mut visited: BTreeSet<u32> = BTreeSet::new();
    let mut pool: Vec<(Neighbor, bool)> = Vec::with_capacity(beam + 1);
    let mut rng = StdRng::seed_from_u64(params.seed);
    for _ in 0..params.n_starts.max(1).min(n) {
        let id = rng.gen_range(0..n) as u32;
        if visited.insert(id) {
            pool.push((Neighbor::new(id, oracle.to_row(query, id as usize)), false));
            trace.host.init_distances += 1;
        }
    }
    pool.sort_unstable_by(|a, b| cmp_neighbor(&a.0, &b.0));
    pool.truncate(beam);

    for _ in 0..params.max_iterations {
        let Some(pos) = pool.iter().position(|(_, expanded)| !expanded) else {
            break;
        };
        pool[pos].1 = true;
        let node = pool[pos].0.id;
        let neighbors = &adjacency[node as usize];
        let mut computed = 0usize;
        for &nb in neighbors {
            if !visited.insert(nb) {
                continue;
            }
            computed += 1;
            let d = oracle.to_row(query, nb as usize);
            let worst = pool.last().map(|(p, _)| p.dist).unwrap_or(f32::INFINITY);
            if pool.len() < beam || d < worst {
                let item = (Neighbor::new(nb, d), false);
                let at = pool.partition_point(|(p, _)| cmp_neighbor(p, &item.0).is_lt());
                pool.insert(at, item);
                pool.truncate(beam);
            }
        }
        trace.host.iterations.push(IterationTrace {
            candidates: neighbors.len() as u64,
            distances_computed: computed as u64,
            sort_len: neighbors.len() as u64,
        });
        // Open-addressing probe estimate: one probe per lookup plus
        // collisions for the repeats.
        let probes = (neighbors.len() as u64 * 3) / 2;
        trace.sim.rounds.push(SimRound { probes, reset: false });
    }

    let out = pool.into_iter().take(k).map(|(p, _)| p).collect();
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> (dataset::Dataset, Vec<Vec<u32>>) {
        let d = dataset::Dataset::from_flat((0..n).map(|i| i as f32).collect(), 1);
        let adj = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push((i - 1) as u32);
                }
                if i + 1 < n {
                    v.push((i + 1) as u32);
                }
                v
            })
            .collect();
        (d, adj)
    }

    #[test]
    fn walks_to_the_nearest_point() {
        let (d, adj) = line_graph(100);
        let p = BeamParams { beam: 16, n_starts: 8, max_iterations: 200, seed: 1 };
        let (got, trace) = traced_beam_search(&adj, &d, Metric::SquaredL2, &[37.2], 3, &p);
        assert_eq!(got[0].id, 37);
        assert!(trace.host.iteration_count() > 0);
        assert!(!trace.sim.hash_in_shared, "baselines keep the hash in device memory");
    }

    #[test]
    fn trace_counts_are_consistent() {
        let (d, adj) = line_graph(50);
        let p = BeamParams { beam: 8, n_starts: 4, max_iterations: 100, seed: 2 };
        let (_, trace) = traced_beam_search(&adj, &d, Metric::SquaredL2, &[10.0], 3, &p);
        for it in &trace.host.iterations {
            assert!(it.distances_computed <= it.candidates);
        }
        assert!(trace.host.total_distances() >= trace.host.init_distances);
    }

    #[test]
    fn respects_iteration_cap() {
        let (d, adj) = line_graph(500);
        let p = BeamParams { beam: 64, n_starts: 4, max_iterations: 5, seed: 3 };
        let (_, trace) = traced_beam_search(&adj, &d, Metric::SquaredL2, &[250.0], 3, &p);
        assert!(trace.host.iteration_count() <= 5);
    }

    #[test]
    fn empty_graph_is_fine() {
        let d = dataset::Dataset::empty(1);
        let p = BeamParams { beam: 4, n_starts: 2, max_iterations: 10, seed: 0 };
        let (got, _) = traced_beam_search(&[], &d, Metric::SquaredL2, &[0.0], 3, &p);
        assert!(got.is_empty());
    }
}
