//! GGNN baseline — Groh et al.'s GPU graph construction and search.
//!
//! GGNN builds its graph hierarchically: the dataset is split into
//! blocks small enough for exact in-block kNN, and successive merge /
//! refinement sweeps let every node improve its neighbor list by
//! searching the current partial graph — all steps embarrassingly
//! parallel, which is what made it fast on GPUs. This reproduction
//! keeps that structure (block kNN + graph-guided refinement sweeps +
//! symmetrization) on CPU threads; searches run through the SONG-style
//! kernel in `gpu_sim::kernels` so the GPU cost model prices GGNN the
//! same way it prices CAGRA (Figs. 11 and 13).

use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use gpu_sim::{traced_beam_search, BeamParams, SimTrace};
use knn::parallel::{default_threads, parallel_chunks};
use knn::topk::{cmp_neighbor, Neighbor, TopK};
use std::time::{Duration, Instant};

/// GGNN construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct GgnnParams {
    /// Out-degree of the final graph (GGNN's `k_build`).
    pub degree: usize,
    /// Block size for the exact bottom-level kNN (GGNN uses O(1k)).
    pub block: usize,
    /// Graph-guided refinement sweeps (GGNN's merge/refine passes).
    pub refinements: usize,
    /// Beam width used during refinement searches.
    pub refine_beam: usize,
    /// RNG seed for refinement starts.
    pub seed: u64,
}

impl GgnnParams {
    /// Defaults roughly matching the GGNN paper's settings.
    pub fn new(degree: usize) -> Self {
        GgnnParams { degree, block: 512, refinements: 2, refine_beam: degree * 2, seed: 0x66a1 }
    }
}

/// A built GGNN index owning its store.
pub struct Ggnn<S> {
    store: S,
    metric: Metric,
    adjacency: Vec<Vec<u32>>,
    params: GgnnParams,
}

impl<S: VectorStore> Ggnn<S> {
    /// Build the GGNN graph.
    pub fn build(store: S, metric: Metric, params: GgnnParams) -> (Self, Duration) {
        assert!(params.degree >= 2, "degree must be at least 2");
        let n = store.len();
        let t0 = Instant::now();
        let threads = default_threads();

        // Stage 1: exact kNN inside each block.
        let block = params.block.max(params.degree + 1);
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        let blocks: Vec<(usize, usize)> =
            (0..n).step_by(block).map(|s| (s, (s + block).min(n))).collect();
        {
            let slots = std::sync::Mutex::new(&mut adjacency);
            parallel_chunks(blocks.len(), threads, |bs, be| {
                let oracle = DistanceOracle::new(&store, metric);
                let mut scratch = vec![0.0f32; store.dim()];
                let mut local: Vec<(usize, Vec<u32>)> = Vec::new();
                for &(start, end) in &blocks[bs..be] {
                    for v in start..end {
                        store.get_into(v, &mut scratch);
                        let mut top =
                            TopK::new(params.degree.min((end - start).saturating_sub(1)).max(1));
                        for u in start..end {
                            if u == v {
                                continue;
                            }
                            let d = oracle.to_row(&scratch, u);
                            if d < top.threshold() {
                                top.push(Neighbor::new(u as u32, d));
                            }
                        }
                        local.push((v, top.into_sorted().into_iter().map(|nb| nb.id).collect()));
                    }
                }
                let mut guard = slots.lock().unwrap();
                for (v, list) in local {
                    guard[v] = list;
                }
            });
        }

        // Stage 2: graph-guided refinement sweeps — every node searches
        // the current graph for itself and keeps the best `degree`
        // candidates (GGNN's hierarchical merge collapses to this on a
        // flat layout; the fixpoint behaviour is the same).
        for sweep in 0..params.refinements {
            let snapshot = adjacency.clone();
            let slots = std::sync::Mutex::new(&mut adjacency);
            parallel_chunks(n, threads, |vs, ve| {
                let mut scratch = vec![0.0f32; store.dim()];
                let mut local: Vec<(usize, Vec<u32>)> = Vec::with_capacity(ve - vs);
                for v in vs..ve {
                    store.get_into(v, &mut scratch);
                    let beam = BeamParams {
                        beam: params.refine_beam,
                        n_starts: 4,
                        max_iterations: params.refine_beam * 2,
                        seed: params.seed ^ ((sweep as u64) << 32) ^ v as u64,
                    };
                    let (mut found, _) = traced_beam_search(
                        &snapshot,
                        &store,
                        metric,
                        &scratch,
                        params.degree + 1,
                        &beam,
                    );
                    found.retain(|nb| nb.id as usize != v);
                    // Merge with current list (dedup, keep best).
                    let oracle = DistanceOracle::new(&store, metric);
                    for &u in &snapshot[v] {
                        if !found.iter().any(|nb| nb.id == u) {
                            found.push(Neighbor::new(u, oracle.to_row(&scratch, u as usize)));
                        }
                    }
                    found.sort_unstable_by(cmp_neighbor);
                    found.truncate(params.degree);
                    local.push((v, found.into_iter().map(|nb| nb.id).collect()));
                }
                let mut guard = slots.lock().unwrap();
                for (v, list) in local {
                    guard[v] = list;
                }
            });
        }

        // Stage 3: symmetrization — add reverse edges where a node has
        // spare degree (GGNN's sym-link step).
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, list) in adjacency.iter().enumerate() {
            for &u in list {
                incoming[u as usize].push(v as u32);
            }
        }
        for v in 0..n {
            let cap = params.degree + params.degree / 2;
            for &u in &incoming[v] {
                if adjacency[v].len() >= cap {
                    break;
                }
                if !adjacency[v].contains(&u) {
                    adjacency[v].push(u);
                }
            }
        }

        (Ggnn { store, metric, adjacency, params }, t0.elapsed())
    }

    /// Single-query search with the SONG-style kernel; returns results
    /// plus the GPU-costing trace.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        beam: usize,
        seed: u64,
    ) -> (Vec<Neighbor>, SimTrace) {
        let p =
            BeamParams { beam: beam.max(k), n_starts: 8, max_iterations: beam.max(k) * 4, seed };
        traced_beam_search(&self.adjacency, &self.store, self.metric, query, k, &p)
    }

    /// Batch search (thread-parallel), returning per-query results and
    /// traces for `gpu_sim::simulate_batch`.
    pub fn search_batch<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        beam: usize,
    ) -> Vec<(Vec<Neighbor>, SimTrace)> {
        let dim = queries.dim();
        assert_eq!(dim, self.store.dim(), "query dimension mismatch");
        knn::parallel::parallel_map(queries.len(), default_threads(), |qi| {
            let mut q = vec![0.0f32; dim];
            queries.get_into(qi, &mut q);
            self.search(&q, k, beam, 0x99 ^ qi as u64)
        })
    }

    /// Average out-degree.
    pub fn average_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            return 0.0;
        }
        self.adjacency.iter().map(Vec::len).sum::<usize>() as f64 / self.adjacency.len() as f64
    }

    /// The owned store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Adjacency lists.
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.adjacency
    }

    /// Build parameters.
    pub fn params(&self) -> &GgnnParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagra::search::planner::Mode;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::ground_truth;

    fn setup(n: usize) -> (Ggnn<dataset::Dataset>, dataset::Dataset) {
        let spec = SynthSpec { dim: 8, n, queries: 40, family: Family::Gaussian, seed: 13 };
        let (base, queries) = spec.generate();
        let (g, _) = Ggnn::build(base, Metric::SquaredL2, GgnnParams::new(16));
        (g, queries)
    }

    #[test]
    fn builds_bounded_degree_graph() {
        let (g, _) = setup(1200);
        assert_eq!(g.adjacency().len(), 1200);
        for (v, list) in g.adjacency().iter().enumerate() {
            assert!(list.len() <= 16 + 8, "node {v} degree {}", list.len());
            assert!(list.iter().all(|&u| u as usize != v));
            let mut ids = list.clone();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), list.len(), "duplicates at {v}");
        }
    }

    #[test]
    fn refinement_links_across_blocks() {
        // Block kNN alone cannot produce cross-block edges; after
        // refinement most nodes should have at least one.
        let (g, _) = setup(1200);
        let block = g.params().block;
        let cross = g
            .adjacency()
            .iter()
            .enumerate()
            .filter(|(v, list)| list.iter().any(|&u| (u as usize) / block != v / block))
            .count();
        assert!(cross > 600, "only {cross} nodes have cross-block edges");
    }

    #[test]
    fn reaches_reasonable_recall() {
        let (g, queries) = setup(2000);
        let gt = ground_truth(g.store(), Metric::SquaredL2, &queries, 10);
        let got = g.search_batch(&queries, 10, 128);
        let mut hits = 0usize;
        for ((res, _), t) in got.iter().zip(&gt) {
            let ts: std::collections::HashSet<u32> = t.iter().copied().collect();
            hits += res.iter().filter(|nb| ts.contains(&nb.id)).count();
        }
        let recall = hits as f64 / (gt.len() * 10) as f64;
        assert!(recall > 0.85, "GGNN recall@10 = {recall}");
    }

    #[test]
    fn traces_are_gpu_costable() {
        let (g, queries) = setup(600);
        let results = g.search_batch(&queries, 10, 64);
        let traces: Vec<_> = results.into_iter().map(|(_, t)| t).collect();
        let device = gpu_sim::DeviceSpec::a100();
        let timing = gpu_sim::simulate_batch(&device, &traces, 8, 4, 32, Mode::SingleCta);
        assert!(timing.qps > 0.0);
        assert!(traces.iter().all(|t| !t.sim.hash_in_shared));
    }

    #[test]
    #[should_panic(expected = "degree must be at least 2")]
    fn tiny_degree_rejected() {
        let spec = SynthSpec { dim: 4, n: 50, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        let _ = Ggnn::build(base, Metric::SquaredL2, GgnnParams::new(1));
    }
}
