//! GANNS baseline — Yu et al.'s GPU-accelerated NSW construction and
//! search.
//!
//! GANNS builds Navigable Small World graphs by inserting points in
//! parallel batches: every point of a batch searches the *current*
//! graph snapshot for its nearest neighbors (a GPU-wide, conflict-free
//! step), then the batch's bidirectional links are committed, with
//! overflowing neighbor lists truncated to the closest entries. This
//! reproduction keeps the batched-snapshot structure on CPU threads;
//! searches run through the SONG-style kernel in `gpu_sim::kernels`
//! so the same device model prices GANNS and CAGRA (Figs. 11, 13).

use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use gpu_sim::{traced_beam_search, BeamParams, SimTrace};
use knn::parallel::{default_threads, parallel_map};
use knn::topk::{cmp_neighbor, Neighbor};
use std::time::{Duration, Instant};

/// GANNS construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct GannsParams {
    /// Links created per inserted point (NSW's `M`); lists may grow to
    /// `2M` from reverse links before truncation.
    pub m: usize,
    /// Beam width for the insertion-time search (`efConstruction`).
    pub ef_construction: usize,
    /// Points inserted per parallel batch.
    pub batch: usize,
    /// RNG seed for insertion-search starts.
    pub seed: u64,
}

impl GannsParams {
    /// Defaults comparable to the GANNS paper's NSW configuration.
    pub fn new(m: usize) -> Self {
        GannsParams { m, ef_construction: m * 4, batch: 256, seed: 0x9a25 }
    }
}

/// A built GANNS (NSW) index owning its store.
pub struct Ganns<S> {
    store: S,
    metric: Metric,
    adjacency: Vec<Vec<u32>>,
    params: GannsParams,
}

impl<S: VectorStore> Ganns<S> {
    /// Build the NSW graph by batched parallel insertion.
    pub fn build(store: S, metric: Metric, params: GannsParams) -> (Self, Duration) {
        assert!(params.m >= 2, "M must be at least 2");
        let n = store.len();
        let t0 = Instant::now();
        let threads = default_threads();
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];

        // Seed clique: the first M+1 points link to each other.
        let seed_count = (params.m + 1).min(n);
        for (v, adj) in adjacency.iter_mut().enumerate().take(seed_count) {
            for u in 0..seed_count {
                if u != v {
                    adj.push(u as u32);
                }
            }
        }

        let mut next = seed_count;
        while next < n {
            let end = (next + params.batch).min(n);
            let snapshot = adjacency.clone();
            let found: Vec<Vec<Neighbor>> = parallel_map(end - next, threads, |i| {
                let v = next + i;
                let mut q = vec![0.0f32; store.dim()];
                store.get_into(v, &mut q);
                let beam = BeamParams {
                    beam: params.ef_construction,
                    n_starts: 4,
                    max_iterations: params.ef_construction * 4,
                    seed: params.seed ^ v as u64,
                };
                let (mut res, _) =
                    traced_beam_search(&snapshot[..next], &store, metric, &q, params.m, &beam);
                res.retain(|nb| nb.id as usize != v);
                res
            });
            // Commit the batch serially (the GPU does this with atomics).
            let oracle = DistanceOracle::new(&store, metric);
            for (i, neighbors) in found.into_iter().enumerate() {
                let v = next + i;
                for nb in neighbors {
                    adjacency[v].push(nb.id);
                    adjacency[nb.id as usize].push(v as u32);
                    truncate_closest(&mut adjacency[nb.id as usize], nb.id, &oracle, 2 * params.m);
                }
                truncate_closest(&mut adjacency[v], v as u32, &oracle, 2 * params.m);
            }
            next = end;
        }

        (Ganns { store, metric, adjacency, params }, t0.elapsed())
    }

    /// Single-query search via the SONG-style kernel.
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

    /// Thread-parallel batch search returning results and traces.
    pub fn search_batch<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        beam: usize,
    ) -> Vec<(Vec<Neighbor>, SimTrace)> {
        let dim = queries.dim();
        assert_eq!(dim, self.store.dim(), "query dimension mismatch");
        parallel_map(queries.len(), default_threads(), |qi| {
            let mut q = vec![0.0f32; dim];
            queries.get_into(qi, &mut q);
            self.search(&q, k, beam, 0xaa55 ^ qi as u64)
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
    pub fn params(&self) -> &GannsParams {
        &self.params
    }
}

/// Keep the `cap` closest links of `v`, dropping duplicates.
fn truncate_closest<S: VectorStore + ?Sized>(
    links: &mut Vec<u32>,
    v: u32,
    oracle: &DistanceOracle<'_, S>,
    cap: usize,
) {
    links.sort_unstable();
    links.dedup();
    if links.len() <= cap {
        return;
    }
    let mut with_dist: Vec<Neighbor> = links
        .iter()
        .map(|&u| Neighbor::new(u, oracle.between_rows(v as usize, u as usize)))
        .collect();
    with_dist.sort_unstable_by(cmp_neighbor);
    with_dist.truncate(cap);
    *links = with_dist.into_iter().map(|nb| nb.id).collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagra::search::planner::Mode;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::ground_truth;

    fn setup(n: usize) -> (Ganns<dataset::Dataset>, dataset::Dataset) {
        let spec = SynthSpec { dim: 8, n, queries: 40, family: Family::Gaussian, seed: 17 };
        let (base, queries) = spec.generate();
        let (g, _) = Ganns::build(base, Metric::SquaredL2, GannsParams::new(12));
        (g, queries)
    }

    #[test]
    fn builds_bounded_degree_graph() {
        let (g, _) = setup(1500);
        for (v, list) in g.adjacency().iter().enumerate() {
            assert!(list.len() <= 24, "node {v} degree {}", list.len());
            assert!(list.iter().all(|&u| u as usize != v), "self link at {v}");
        }
        assert!(g.average_degree() >= 4.0);
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
        assert!(recall > 0.85, "GANNS recall@10 = {recall}");
    }

    #[test]
    fn every_late_node_is_linked_bidirectionally() {
        let (g, _) = setup(800);
        // NSW insertion always commits v->nb and nb->v (possibly later
        // truncated); every node must keep at least one edge.
        assert!(g.adjacency().iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn traces_cost_on_the_device_model() {
        let (g, queries) = setup(600);
        let results = g.search_batch(&queries, 10, 64);
        let traces: Vec<_> = results.into_iter().map(|(_, t)| t).collect();
        let device = gpu_sim::DeviceSpec::a100();
        let timing = gpu_sim::simulate_batch(&device, &traces, 8, 4, 32, Mode::SingleCta);
        assert!(timing.qps > 0.0);
    }

    #[test]
    fn tiny_dataset_builds() {
        let spec = SynthSpec { dim: 4, n: 5, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        let (g, _) = Ganns::build(base, Metric::SquaredL2, GannsParams::new(4));
        assert_eq!(g.adjacency().len(), 5);
        assert!(g.adjacency().iter().all(|l| !l.is_empty()));
    }

    #[test]
    #[should_panic(expected = "M must be at least 2")]
    fn tiny_m_rejected() {
        let spec = SynthSpec { dim: 4, n: 50, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        let _ = Ganns::build(
            base,
            Metric::SquaredL2,
            GannsParams { m: 1, ef_construction: 8, batch: 16, seed: 0 },
        );
    }
}
