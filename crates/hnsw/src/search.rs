//! HNSW search: greedy upper-layer descent plus `ef`-bounded beam
//! search on the bottom layer.

use crate::build::{Hnsw, NodeLinks};
use dataset::VectorStore;
use distance::DistanceOracle;
use knn::parallel::{default_threads, parallel_map};
use knn::topk::Neighbor;
use std::collections::{BinaryHeap, HashSet};

/// A (node, distance) pair ordered for use in heaps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Candidate {
    pub id: u32,
    pub dist: f32,
}

impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order; NaN sorts last (largest).
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or_else(|| self.dist.is_nan().cmp(&other.dist.is_nan()))
            .then(self.id.cmp(&other.id))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy hill climb on one layer: follow the best neighbor until no
/// improvement (used above the insertion/search level).
pub(crate) fn greedy_descend<T: VectorStore + ?Sized>(
    nodes: &[NodeLinks],
    oracle: &DistanceOracle<'_, T>,
    q: &[f32],
    mut ep: u32,
    layer: usize,
) -> u32 {
    let mut best = oracle.to_row(q, ep as usize);
    loop {
        let mut improved = false;
        for &nb in &nodes[ep as usize].links[layer] {
            let d = oracle.to_row(q, nb as usize);
            if d < best {
                best = d;
                ep = nb;
                improved = true;
            }
        }
        if !improved {
            return ep;
        }
    }
}

/// `ef`-bounded best-first search on one layer (Algorithm 2). Returns
/// up to `ef` candidates sorted ascending by distance.
pub(crate) fn search_layer<T: VectorStore + ?Sized>(
    nodes: &[NodeLinks],
    oracle: &DistanceOracle<'_, T>,
    q: &[f32],
    entry_points: &[u32],
    layer: usize,
    ef: usize,
) -> Vec<Candidate> {
    let mut visited: HashSet<u32> = HashSet::with_capacity(ef * 4);
    // Min-heap of frontier candidates (Reverse via negated compare).
    let mut frontier: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
    // Max-heap of the current best `ef` results.
    let mut results: BinaryHeap<Candidate> = BinaryHeap::new();

    for &ep in entry_points {
        if visited.insert(ep) {
            let c = Candidate { id: ep, dist: oracle.to_row(q, ep as usize) };
            frontier.push(std::cmp::Reverse(c));
            results.push(c);
        }
    }
    while results.len() > ef {
        results.pop();
    }

    while let Some(std::cmp::Reverse(cur)) = frontier.pop() {
        let worst = results.peek().map(|c| c.dist).unwrap_or(f32::INFINITY);
        if cur.dist > worst && results.len() >= ef {
            break;
        }
        for &nb in &nodes[cur.id as usize].links[layer] {
            if !visited.insert(nb) {
                continue;
            }
            let d = oracle.to_row(q, nb as usize);
            let worst = results.peek().map(|c| c.dist).unwrap_or(f32::INFINITY);
            if results.len() < ef || d < worst {
                let c = Candidate { id: nb, dist: d };
                frontier.push(std::cmp::Reverse(c));
                results.push(c);
                if results.len() > ef {
                    results.pop();
                }
            }
        }
    }

    let mut out: Vec<Candidate> = results.into_vec();
    out.sort();
    out
}

impl<S: VectorStore> Hnsw<S> {
    /// k-NN search with beam width `ef` (`ef >= k` recommended).
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let oracle = DistanceOracle::new(&self.store, self.metric);
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = greedy_descend(&self.nodes, &oracle, query, ep, l);
        }
        let found = search_layer(&self.nodes, &oracle, query, &[ep], 0, ef.max(k));
        found.into_iter().take(k).map(|c| Neighbor::new(c.id, c.dist)).collect()
    }

    /// Thread-parallel batch search (the paper's OpenMP-style HNSW
    /// batching).
    pub fn search_batch<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        ef: usize,
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.dim(), self.store.dim(), "query dimension mismatch");
        let dim = queries.dim();
        parallel_map(queries.len(), default_threads(), |qi| {
            let mut q = vec![0.0f32; dim];
            queries.get_into(qi, &mut q);
            self.search(&q, k, ef)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::HnswParams;
    use dataset::synth::{Family, SynthSpec};
    use distance::Metric;
    use knn::brute::ground_truth;

    fn setup(n: usize) -> (Hnsw<dataset::Dataset>, dataset::Dataset) {
        let spec = SynthSpec { dim: 8, n, queries: 50, family: Family::Gaussian, seed: 11 };
        let (base, queries) = spec.generate();
        (Hnsw::build(base, Metric::SquaredL2, HnswParams::new(12)), queries)
    }

    fn recall(h: &Hnsw<dataset::Dataset>, queries: &dataset::Dataset, k: usize, ef: usize) -> f64 {
        let got = h.search_batch(queries, k, ef);
        let gt = ground_truth(h.store(), Metric::SquaredL2, queries, k);
        let mut hits = 0usize;
        for (g, t) in got.iter().zip(&gt) {
            let ts: std::collections::HashSet<u32> = t.iter().copied().collect();
            hits += g.iter().filter(|n| ts.contains(&n.id)).count();
        }
        hits as f64 / (gt.len() * k) as f64
    }

    #[test]
    fn reaches_high_recall() {
        let (h, queries) = setup(2000);
        let r = recall(&h, &queries, 10, 128);
        assert!(r > 0.95, "recall@10 = {r}");
    }

    #[test]
    fn recall_grows_with_ef() {
        let (h, queries) = setup(2000);
        let lo = recall(&h, &queries, 10, 10);
        let hi = recall(&h, &queries, 10, 200);
        assert!(hi >= lo, "ef=200 ({hi}) must be >= ef=10 ({lo})");
        assert!(hi > 0.9);
    }

    #[test]
    fn results_sorted_unique_and_exactish_for_indexed_point() {
        let (h, _) = setup(500);
        let q = h.store().row(42).to_vec();
        let got = h.search(&q, 5, 64);
        assert_eq!(got[0].id, 42);
        assert_eq!(got[0].dist, 0.0);
        assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
        let mut ids: Vec<u32> = got.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), got.len());
    }

    #[test]
    fn k_larger_than_ef_is_padded_by_ef_max() {
        let (h, queries) = setup(300);
        let got = h.search(queries.row(0), 20, 5);
        assert!(got.len() <= 20 && got.len() >= 5);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let base = dataset::Dataset::empty(4);
        let h = Hnsw::build(base, Metric::SquaredL2, HnswParams::new(4));
        assert!(h.search(&[0.0; 4], 3, 10).is_empty());
    }
}
