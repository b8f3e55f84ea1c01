//! SONG baseline — Zhao et al.'s GPU graph search (ICDE 2020), the
//! first GPU graph-based ANN implementation and the origin of the
//! open-addressing visited table CAGRA adopts (paper Sec. II-C1 and
//! IV-B3).
//!
//! SONG contributes *search only* ("relies on other methods like NSW,
//! NSG, and DPG" for the graph), so this crate operates over any
//! adjacency structure. Its signature data structures are implemented
//! faithfully:
//!
//! * a **bounded priority queue** of fixed capacity (their
//!   "dynamic allocation reduction": everything lives in fixed-size
//!   arrays, sized at launch);
//! * an **open-addressing hash table** for the visited set — reused
//!   from `gpu_sim::visited`, which implements exactly that
//!   structure;
//! * one vertex expansion per iteration with the neighbor distance
//!   computations batched across the thread block.
//!
//! Searches record a [`gpu_sim::SimTrace`] (device-memory hash,
//! full-warp distances) so `gpu-sim` prices SONG with the same model as
//! every other GPU method.

use cagra::search::trace::IterationTrace;
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use gpu_sim::{SimRound, SimTrace, VisitedSet};
use knn::topk::{cmp_neighbor, Neighbor, TopK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where the traversal begins.
#[derive(Clone, Copy, Debug)]
pub enum StartPolicy {
    /// A fixed entry vertex (NSG-style graphs have a navigating node).
    Fixed(u32),
    /// `n` uniformly random vertices (NSW/CAGRA-style graphs).
    Random(usize),
}

/// SONG search parameters.
#[derive(Clone, Copy, Debug)]
pub struct SongParams {
    /// Bounded priority-queue capacity (SONG's quality/speed knob).
    pub pq_size: usize,
    /// Iteration cap (0 = auto: `4 * pq_size`).
    pub max_iterations: usize,
    /// Entry policy.
    pub starts: StartPolicy,
    /// Seed for random starts.
    pub seed: u64,
}

impl SongParams {
    /// Defaults used by the SONG paper's recall sweeps.
    pub fn new(pq_size: usize) -> Self {
        SongParams { pq_size, max_iterations: 0, starts: StartPolicy::Random(8), seed: 0x5049 }
    }
}

/// Fixed-capacity min-priority queue of unexpanded candidates. The
/// bound is SONG's "bounded priority queue": when full, pushes beyond
/// the current worst are dropped (the worst is evicted if the new
/// entry is better).
#[derive(Clone, Debug)]
pub struct BoundedPq {
    items: Vec<Neighbor>, // sorted ascending; small capacity
    capacity: usize,
}

impl BoundedPq {
    /// Create a queue holding at most `capacity` candidates.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BoundedPq { items: Vec::with_capacity(capacity + 1), capacity }
    }

    /// Number of queued candidates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no candidates are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offer a candidate; dropped if the queue is full of better ones.
    /// Returns whether it was admitted.
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.items.len() == self.capacity {
            match self.items.last() {
                Some(worst) if cmp_neighbor(&n, worst).is_lt() => {
                    self.items.pop();
                }
                _ => return false,
            }
        }
        let at = self.items.partition_point(|x| cmp_neighbor(x, &n).is_lt());
        self.items.insert(at, n);
        true
    }

    /// Remove and return the best candidate.
    pub fn pop_min(&mut self) -> Option<Neighbor> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }
}

/// SONG search over `adjacency`. Returns ascending-distance results
/// and the GPU-costing trace.
pub fn song_search<S: VectorStore + ?Sized>(
    adjacency: &[Vec<u32>],
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    params: &SongParams,
) -> (Vec<Neighbor>, SimTrace) {
    assert!(adjacency.len() <= store.len(), "graph larger than dataset");
    assert_eq!(query.len(), store.dim(), "query dimension mismatch");
    let n = adjacency.len();
    let pq_size = params.pq_size.max(k).max(1);
    let max_iters = if params.max_iterations == 0 { 4 * pq_size } else { params.max_iterations };
    let avg_degree =
        if n == 0 { 1 } else { (adjacency.iter().map(Vec::len).sum::<usize>() / n.max(1)).max(1) };

    let mut hash = VisitedSet::new(VisitedSet::standard_bits(max_iters, avg_degree));
    let mut trace = SimTrace::serial(pq_size, avg_degree, hash.capacity());
    if n == 0 || k == 0 {
        return (Vec::new(), trace);
    }

    let oracle = DistanceOracle::new(store, metric);
    let mut pq = BoundedPq::new(pq_size);
    // Results are tracked at pq_size width (the SONG evaluation's
    // quality knob) and truncated to k at the end, so the termination
    // test below is ef-style rather than prematurely greedy.
    let mut results = TopK::new(pq_size);

    match params.starts {
        StartPolicy::Fixed(id) => {
            let id = id.min(n as u32 - 1);
            hash.insert(id);
            let d = oracle.to_row(query, id as usize);
            trace.host.init_distances += 1;
            pq.push(Neighbor::new(id, d));
            results.push(Neighbor::new(id, d));
        }
        StartPolicy::Random(count) => {
            let mut rng = StdRng::seed_from_u64(params.seed);
            for _ in 0..count.max(1).min(n) {
                let id = rng.gen_range(0..n) as u32;
                if hash.insert(id) {
                    let d = oracle.to_row(query, id as usize);
                    trace.host.init_distances += 1;
                    pq.push(Neighbor::new(id, d));
                    results.push(Neighbor::new(id, d));
                }
            }
        }
    }

    for _ in 0..max_iters {
        let Some(best) = pq.pop_min() else { break };
        // SONG's termination: stop once the best frontier candidate
        // cannot improve the tracked result set.
        if best.dist > results.threshold() {
            break;
        }
        let neighbors = &adjacency[best.id as usize];
        let probes_before = hash.probes();
        let mut computed = 0usize;
        for &nb in neighbors {
            if !hash.insert(nb) {
                continue;
            }
            let d = oracle.to_row(query, nb as usize);
            computed += 1;
            pq.push(Neighbor::new(nb, d));
            if d < results.threshold() {
                results.push(Neighbor::new(nb, d));
            }
        }
        trace.host.iterations.push(IterationTrace {
            candidates: neighbors.len() as u64,
            distances_computed: computed as u64,
            sort_len: neighbors.len() as u64,
        });
        trace.sim.rounds.push(SimRound { probes: hash.probes() - probes_before, reset: false });
    }

    let mut out = results.into_sorted();
    out.truncate(k);
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagra::build::GraphConfig;
    use cagra::CagraIndex;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::ground_truth;

    #[test]
    fn bounded_pq_keeps_the_best() {
        let mut pq = BoundedPq::new(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 9.0)] {
            pq.push(Neighbor::new(id, d));
        }
        assert_eq!(pq.len(), 3);
        assert_eq!(pq.pop_min().unwrap().id, 3);
        assert_eq!(pq.pop_min().unwrap().id, 1);
        assert_eq!(pq.pop_min().unwrap().id, 2);
        assert!(pq.pop_min().is_none());
    }

    #[test]
    fn bounded_pq_drops_overflow() {
        let mut pq = BoundedPq::new(2);
        assert!(pq.push(Neighbor::new(0, 1.0)));
        assert!(pq.push(Neighbor::new(1, 2.0)));
        assert!(!pq.push(Neighbor::new(2, 3.0)), "worse than everything: dropped");
        assert!(pq.push(Neighbor::new(3, 0.5)), "better: evicts the worst");
        assert_eq!(pq.len(), 2);
    }

    fn setup(n: usize) -> (dataset::Dataset, Vec<Vec<u32>>, dataset::Dataset) {
        let spec = SynthSpec { dim: 8, n, queries: 30, family: Family::Gaussian, seed: 23 };
        let (base, queries) = spec.generate();
        let store = dataset::Dataset::from_flat(base.as_flat().to_vec(), 8);
        let (index, _) = CagraIndex::build(store, Metric::SquaredL2, &GraphConfig::new(16));
        let adj: Vec<Vec<u32>> =
            (0..index.graph().len()).map(|v| index.graph().neighbors(v).to_vec()).collect();
        (base, adj, queries)
    }

    #[test]
    fn reaches_good_recall_over_a_cagra_graph() {
        let (base, adj, queries) = setup(2000);
        let gt = ground_truth(&base, Metric::SquaredL2, &queries, 10);
        let params = SongParams { starts: StartPolicy::Random(64), ..SongParams::new(128) };
        let mut hits = 0usize;
        for (qi, ids) in gt.iter().enumerate() {
            let (res, _) =
                song_search(&adj, &base, Metric::SquaredL2, queries.row(qi), 10, &params);
            let truth: std::collections::HashSet<u32> = ids.iter().copied().collect();
            hits += res.iter().filter(|x| truth.contains(&x.id)).count();
        }
        let recall = hits as f64 / (queries.len() * 10) as f64;
        assert!(recall > 0.85, "SONG recall@10 = {recall}");
    }

    #[test]
    fn recall_grows_with_pq_size() {
        let (base, adj, queries) = setup(1500);
        let gt = ground_truth(&base, Metric::SquaredL2, &queries, 10);
        let score = |pq: usize| {
            let params = SongParams { starts: StartPolicy::Random(32), ..SongParams::new(pq) };
            let mut hits = 0usize;
            for (qi, ids) in gt.iter().enumerate() {
                let (res, _) =
                    song_search(&adj, &base, Metric::SquaredL2, queries.row(qi), 10, &params);
                let truth: std::collections::HashSet<u32> = ids.iter().copied().collect();
                hits += res.iter().filter(|x| truth.contains(&x.id)).count();
            }
            hits as f64 / (queries.len() * 10) as f64
        };
        let lo = score(16);
        let hi = score(256);
        assert!(hi >= lo, "pq=256 ({hi}) must be >= pq=16 ({lo})");
    }

    #[test]
    fn fixed_entry_point_works() {
        let (base, adj, queries) = setup(600);
        let params = SongParams { starts: StartPolicy::Fixed(0), ..SongParams::new(64) };
        let (res, trace) = song_search(&adj, &base, Metric::SquaredL2, queries.row(0), 5, &params);
        assert_eq!(res.len(), 5);
        assert_eq!(trace.host.init_distances, 1);
        assert!(!trace.sim.hash_in_shared);
    }

    #[test]
    fn empty_graph_and_zero_k() {
        let store = dataset::Dataset::empty(4);
        let (res, _) =
            song_search(&[], &store, Metric::SquaredL2, &[0.0; 4], 5, &SongParams::new(8));
        assert!(res.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (base, adj, queries) = setup(500);
        let params = SongParams::new(64);
        let a = song_search(&adj, &base, Metric::SquaredL2, queries.row(1), 5, &params).0;
        let b = song_search(&adj, &base, Metric::SquaredL2, queries.row(1), 5, &params).0;
        assert_eq!(a, b);
    }
}
