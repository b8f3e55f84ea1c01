//! HNSW index construction.

use crate::search::{greedy_descend, search_layer, Candidate};
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Construction parameters (hnswlib naming).
#[derive(Clone, Copy, Debug)]
pub struct HnswParams {
    /// Max links per node on layers > 0 (`M`); layer 0 allows `2M`.
    pub m: usize,
    /// Beam width during construction (`efConstruction`).
    pub ef_construction: usize,
    /// Level-sampling seed.
    pub seed: u64,
}

impl HnswParams {
    /// Library defaults comparable to hnswlib's (`M = 16`,
    /// `efConstruction = 200`).
    pub fn new(m: usize) -> Self {
        HnswParams { m, ef_construction: 200, seed: 0x45af }
    }
}

/// Per-node adjacency for all of the node's layers.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeLinks {
    /// `links[l]` = neighbor ids on layer `l` (0 = bottom).
    pub links: Vec<Vec<u32>>,
}

/// A built HNSW index owning its vector store.
pub struct Hnsw<S> {
    pub(crate) store: S,
    pub(crate) metric: Metric,
    pub(crate) nodes: Vec<NodeLinks>,
    pub(crate) entry: u32,
    pub(crate) max_level: usize,
    pub(crate) params: HnswParams,
}

impl<S: VectorStore> Hnsw<S> {
    /// Build by sequential insertion (the canonical algorithm; batch
    /// *search* is thread-parallel, matching how the paper runs HNSW).
    pub fn build(store: S, metric: Metric, params: HnswParams) -> Self {
        assert!(params.m >= 2, "M must be at least 2");
        assert!(params.ef_construction >= params.m, "efConstruction must be >= M");
        let n = store.len();
        let mut index =
            Hnsw { store, metric, nodes: Vec::with_capacity(n), entry: 0, max_level: 0, params };
        let mut rng = StdRng::seed_from_u64(params.seed);
        let ml = 1.0 / (params.m as f64).ln();
        for i in 0..n {
            let level = sample_level(&mut rng, ml);
            index.insert(i as u32, level);
        }
        index
    }

    /// Average out-degree on the bottom layer (used to match degrees
    /// across methods in the experiments, as the paper does).
    pub fn average_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let total: usize = self.nodes.iter().map(|n| n.links[0].len()).sum();
        total as f64 / self.nodes.len() as f64
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The owned store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Highest populated layer.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    fn insert(&mut self, id: u32, level: usize) {
        let mut node = NodeLinks::default();
        node.links.resize(level + 1, Vec::new());
        self.nodes.push(node);
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }

        let oracle = DistanceOracle::new(&self.store, self.metric);
        let mut q = vec![0.0f32; self.store.dim()];
        self.store.get_into(id as usize, &mut q);

        // Phase 1: greedy descent through layers above `level`.
        let mut ep = self.entry;
        for l in (level + 1..=self.max_level).rev() {
            ep = greedy_descend(&self.nodes, &oracle, &q, ep, l);
        }

        // Phase 2: ef-search + heuristic selection per layer.
        let top = level.min(self.max_level);
        let m = self.params.m;
        let mut eps = vec![ep];
        for l in (0..=top).rev() {
            let found =
                search_layer(&self.nodes, &oracle, &q, &eps, l, self.params.ef_construction);
            let m_l = if l == 0 { m * 2 } else { m };
            let selected = select_heuristic(&oracle, &found, m_l);
            for &Candidate { id: nb, .. } in &selected {
                self.nodes[id as usize].links[l].push(nb);
                link_back(&mut self.nodes, nb, id, l, m_l, &oracle);
            }
            eps = found.iter().map(|c| c.id).collect();
            if eps.is_empty() {
                eps = vec![ep];
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    /// `2M` on the bottom layer, `M` above — as in the paper and
    /// hnswlib. (Exercised by the degree-bound tests.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn layer_capacity(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }
}

/// Add the reverse link `nb -> id`, shrinking `nb`'s list with the
/// selection heuristic when it overflows the layer capacity.
fn link_back<T: VectorStore + ?Sized>(
    nodes: &mut [NodeLinks],
    nb: u32,
    id: u32,
    layer: usize,
    cap: usize,
    oracle: &DistanceOracle<'_, T>,
) {
    let links = &mut nodes[nb as usize].links[layer];
    links.push(id);
    if links.len() <= cap {
        return;
    }
    // Re-select among current links by distance to `nb`.
    let mut cands: Vec<Candidate> = links
        .iter()
        .map(|&u| Candidate { id: u, dist: oracle.between_rows(nb as usize, u as usize) })
        .collect();
    cands.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.id.cmp(&b.id)));
    let selected = select_heuristic(oracle, &cands, cap);
    nodes[nb as usize].links[layer] = selected.into_iter().map(|c| c.id).collect();
}

/// Exponential level sampling: `floor(-ln(U) * mL)`.
fn sample_level(rng: &mut StdRng, ml: f64) -> usize {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    ((-u.ln()) * ml) as usize
}

/// Algorithm 4 of the HNSW paper (keepPrunedConnections variant):
/// accept a candidate only if it is closer to the query point than to
/// every already-selected neighbor — this spreads edges directionally
/// — then backfill with the nearest pruned candidates.
pub(crate) fn select_heuristic<T: VectorStore + ?Sized>(
    oracle: &DistanceOracle<'_, T>,
    candidates: &[Candidate],
    m: usize,
) -> Vec<Candidate> {
    let mut selected: Vec<Candidate> = Vec::with_capacity(m);
    let mut pruned: Vec<Candidate> = Vec::new();
    for &c in candidates {
        if selected.len() == m {
            break;
        }
        let keep =
            selected.iter().all(|s| oracle.between_rows(c.id as usize, s.id as usize) > c.dist);
        if keep {
            selected.push(c);
        } else {
            pruned.push(c);
        }
    }
    for c in pruned {
        if selected.len() == m {
            break;
        }
        selected.push(c);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::synth::{Family, SynthSpec};

    fn gaussian(n: usize, dim: usize, seed: u64) -> dataset::Dataset {
        let (base, _) = SynthSpec { dim, n, queries: 0, family: Family::Gaussian, seed }.generate();
        base
    }

    #[test]
    fn builds_with_bounded_degrees() {
        let base = gaussian(500, 8, 1);
        let h = Hnsw::build(base, Metric::SquaredL2, HnswParams::new(8));
        assert_eq!(h.len(), 500);
        for (i, node) in h.nodes.iter().enumerate() {
            for (l, links) in node.links.iter().enumerate() {
                let cap = h.layer_capacity(l);
                assert!(links.len() <= cap, "node {i} layer {l}: {} > {cap}", links.len());
                assert!(links.iter().all(|&u| u as usize != i), "self link at {i}");
            }
        }
    }

    #[test]
    fn upper_layers_shrink_exponentially() {
        let base = gaussian(2000, 4, 2);
        let h = Hnsw::build(base, Metric::SquaredL2, HnswParams::new(16));
        let mut counts = vec![0usize; h.max_level() + 1];
        for node in &h.nodes {
            for c in counts.iter_mut().take(node.links.len()) {
                *c += 1;
            }
        }
        assert_eq!(counts[0], 2000);
        // Each level keeps roughly 1/M of the previous one; just check
        // strict monotone decrease.
        for w in counts.windows(2) {
            assert!(w[1] < w[0], "layer populations must shrink: {counts:?}");
        }
    }

    #[test]
    fn level_sampling_is_geometric() {
        // Levels follow floor(-ln(U) * 1/ln(M)): P(level >= l) = M^-l.
        // With M = 16 and 4000 nodes, ~250 nodes should reach level 1
        // (within generous statistical slack).
        let base = gaussian(4000, 2, 7);
        let h = Hnsw::build(base, Metric::SquaredL2, HnswParams::new(16));
        let at_least_1 = h.nodes.iter().filter(|n| n.links.len() >= 2).count();
        let expected = 4000.0 / 16.0;
        assert!(
            (at_least_1 as f64) > expected * 0.5 && (at_least_1 as f64) < expected * 2.0,
            "level>=1 population {at_least_1}, expected ~{expected}"
        );
    }

    #[test]
    fn entry_point_lives_on_max_level() {
        let base = gaussian(800, 4, 3);
        let h = Hnsw::build(base, Metric::SquaredL2, HnswParams::new(8));
        assert_eq!(h.nodes[h.entry as usize].links.len(), h.max_level() + 1);
    }

    #[test]
    fn heuristic_prefers_spread_neighbors() {
        // Points: query-adjacent cluster 1,2 nearly colinear, plus a
        // far point 3 in the other direction. With m=2 the heuristic
        // must pick one of the cluster and the far point rather than
        // both cluster members.
        let d = dataset::Dataset::from_flat(
            vec![
                0.0, 0.0, // 0: the new point
                1.0, 0.0, // 1: close
                1.2, 0.0, // 2: nearly behind 1
                -1.5, 0.0, // 3: opposite side
            ],
            2,
        );
        let oracle = DistanceOracle::new(&d, Metric::SquaredL2);
        let cands = vec![
            Candidate { id: 1, dist: 1.0 },
            Candidate { id: 2, dist: 1.44 },
            Candidate { id: 3, dist: 2.25 },
        ];
        let sel = select_heuristic(&oracle, &cands, 2);
        let ids: Vec<u32> = sel.iter().map(|c| c.id).collect();
        // 2 is closer to 1 (0.04) than to the query (1.44) -> pruned.
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Hnsw::build(gaussian(300, 4, 5), Metric::SquaredL2, HnswParams::new(8));
        let b = Hnsw::build(gaussian(300, 4, 5), Metric::SquaredL2, HnswParams::new(8));
        assert_eq!(a.max_level(), b.max_level());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.links, y.links);
        }
    }

    #[test]
    #[should_panic(expected = "M must be at least 2")]
    fn tiny_m_rejected() {
        Hnsw::build(
            gaussian(10, 4, 1),
            Metric::SquaredL2,
            HnswParams { m: 1, ef_construction: 10, seed: 0 },
        );
    }

    #[test]
    fn single_point_index() {
        let h = Hnsw::build(gaussian(1, 4, 1), Metric::SquaredL2, HnswParams::new(4));
        assert_eq!(h.len(), 1);
        assert_eq!(h.average_degree(), 0.0);
    }
}
