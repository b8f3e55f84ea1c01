//! NSSG beam search: random-start best-first traversal over any
//! adjacency structure.
//!
//! Exposed as a free function so the Fig. 12 experiment can run the
//! *same* search implementation over both the NSSG graph and a
//! converted CAGRA graph, exactly as the paper does.

use crate::build::Nssg;
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use knn::parallel::{default_threads, parallel_map};
use knn::topk::{cmp_neighbor, Neighbor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Best-first beam search with pool width `l`, starting from
/// `n_starts` random nodes (NSSG initializes by random sampling, like
/// CAGRA). Returns up to `k` ascending-distance results and the number
/// of distance computations performed.
#[allow(clippy::too_many_arguments)]
pub fn beam_search<S: VectorStore + ?Sized>(
    adjacency: &[Vec<u32>],
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    l: usize,
    n_starts: usize,
    seed: u64,
) -> (Vec<Neighbor>, u64) {
    assert_eq!(adjacency.len(), store.len(), "graph and dataset sizes differ");
    assert_eq!(query.len(), store.dim(), "query dimension mismatch");
    let n = adjacency.len();
    if n == 0 || k == 0 {
        return (Vec::new(), 0);
    }
    let l = l.max(k);
    let oracle = DistanceOracle::new(store, metric);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut visited: HashSet<u32> = HashSet::with_capacity(l * 8);

    // Pool: sorted ascending, bounded at `l`, with an "expanded" flag
    // (the classic NSG/NSSG search loop).
    let mut pool: Vec<(Neighbor, bool)> = Vec::with_capacity(l + 1);
    for _ in 0..n_starts.max(1).min(n) {
        let id = rng.gen_range(0..n) as u32;
        if visited.insert(id) {
            pool.push((Neighbor::new(id, oracle.to_row(query, id as usize)), false));
        }
    }
    pool.sort_unstable_by(|a, b| cmp_neighbor(&a.0, &b.0));
    pool.truncate(l);

    while let Some(pos) = pool.iter().position(|(_, expanded)| !expanded) {
        pool[pos].1 = true;
        let node = pool[pos].0.id;
        for &nb in &adjacency[node as usize] {
            if !visited.insert(nb) {
                continue;
            }
            let d = oracle.to_row(query, nb as usize);
            let worst = pool.last().map(|(n, _)| n.dist).unwrap_or(f32::INFINITY);
            if pool.len() < l || d < worst {
                let item = (Neighbor::new(nb, d), false);
                let at = pool.partition_point(|(p, _)| cmp_neighbor(p, &item.0).is_lt());
                pool.insert(at, item);
                pool.truncate(l);
            }
        }
    }

    let out = pool.into_iter().take(k).map(|(n, _)| n).collect();
    (out, oracle.computed())
}

impl<S: VectorStore> Nssg<S> {
    /// Single-query search with pool width `l` (the NSSG `L_search`).
    /// NSSG fills the initial pool with `l` random points (like
    /// CAGRA's random initialization), so `n_starts = l`.
    pub fn search(&self, query: &[f32], k: usize, l: usize, seed: u64) -> Vec<Neighbor> {
        beam_search(self.adjacency(), self.store(), self.metric(), query, k, l, l, seed).0
    }

    /// Thread-parallel batch search (the paper uses HNSW's
    /// bottom-layer multithreaded search for NSSG batching; ours is
    /// query-parallel, which is the same structure).
    pub fn search_batch<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        l: usize,
    ) -> Vec<Vec<Neighbor>> {
        let dim = queries.dim();
        assert_eq!(dim, self.store().dim(), "query dimension mismatch");
        parallel_map(queries.len(), default_threads(), |qi| {
            let mut q = vec![0.0f32; dim];
            queries.get_into(qi, &mut q);
            self.search(&q, k, l, 0x5eed ^ qi as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NssgParams;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::ground_truth;

    fn setup(n: usize) -> (Nssg<dataset::Dataset>, dataset::Dataset) {
        let spec = SynthSpec { dim: 8, n, queries: 40, family: Family::Gaussian, seed: 9 };
        let (base, queries) = spec.generate();
        let (g, _) = Nssg::build(base, Metric::SquaredL2, NssgParams::new(16));
        (g, queries)
    }

    fn recall(g: &Nssg<dataset::Dataset>, queries: &dataset::Dataset, k: usize, l: usize) -> f64 {
        let got = g.search_batch(queries, k, l);
        let gt = ground_truth(g.store(), Metric::SquaredL2, queries, k);
        let mut hits = 0usize;
        for (a, b) in got.iter().zip(&gt) {
            let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
            hits += a.iter().filter(|n| bs.contains(&n.id)).count();
        }
        hits as f64 / (gt.len() * k) as f64
    }

    #[test]
    fn reaches_high_recall() {
        let (g, queries) = setup(2000);
        let r = recall(&g, &queries, 10, 128);
        assert!(r > 0.9, "NSSG recall@10 = {r}");
    }

    #[test]
    fn recall_grows_with_pool_width() {
        let (g, queries) = setup(1500);
        let lo = recall(&g, &queries, 10, 10);
        let hi = recall(&g, &queries, 10, 160);
        assert!(hi >= lo, "L=160 ({hi}) must be >= L=10 ({lo})");
    }

    #[test]
    fn beam_search_works_on_foreign_graphs() {
        // The Fig. 12 path: run NSSG search over an arbitrary
        // adjacency structure (here: a simple exact kNN graph).
        let spec = SynthSpec { dim: 4, n: 300, queries: 1, family: Family::Gaussian, seed: 2 };
        let (base, queries) = spec.generate();
        let knn = knn::nn_descent::exact_all_pairs(&base, Metric::SquaredL2, 8, 1);
        let adjacency: Vec<Vec<u32>> =
            knn.rows().map(|l| l.iter().map(|n| n.id).collect()).collect();
        let (got, dists) =
            beam_search(&adjacency, &base, Metric::SquaredL2, queries.row(0), 5, 64, 8, 7);
        assert_eq!(got.len(), 5);
        assert!(dists > 0);
        assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn empty_and_zero_k() {
        let store = dataset::Dataset::empty(4);
        let (got, _) = beam_search(&[], &store, Metric::SquaredL2, &[0.0; 4], 5, 10, 4, 0);
        assert!(got.is_empty());
        let (g, queries) = setup(200);
        let (got, _) =
            beam_search(g.adjacency(), g.store(), Metric::SquaredL2, queries.row(0), 0, 10, 4, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, queries) = setup(400);
        let a = g.search(queries.row(0), 5, 64, 3);
        let b = g.search(queries.row(0), 5, 64, 3);
        assert_eq!(a, b);
    }
}
