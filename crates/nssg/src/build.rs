//! NSSG construction: k-NN base graph + angle pruning + connectivity.

use dataset::VectorStore;
use distance::{dot, DistanceOracle, Metric};
use graph::AdjacencyGraph;
use knn::flat::KnnLists;
use knn::topk::Neighbor;
use knn::{NnDescent, NnDescentParams};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// NSSG construction parameters (naming follows the NSSG paper).
#[derive(Clone, Copy, Debug)]
pub struct NssgParams {
    /// Max out-degree `R`.
    pub range: usize,
    /// Candidate pool size `L` per node.
    pub l: usize,
    /// Minimum angle between kept edges, degrees (paper: 60).
    pub angle_deg: f32,
    /// Base k-NN graph degree (0 = `2 * range`).
    pub knn_k: usize,
    /// Seed for NN-Descent.
    pub seed: u64,
}

impl NssgParams {
    /// NSSG-paper-flavored defaults for a degree budget.
    pub fn new(range: usize) -> Self {
        NssgParams { range, l: range * 4, angle_deg: 60.0, knn_k: 0, seed: 0x55a6 }
    }
}

/// Construction timing breakdown (Fig. 11 shows NSSG's knn/opt split).
#[derive(Clone, Copy, Debug, Default)]
pub struct NssgBuildReport {
    /// Base k-NN graph time.
    pub knn_time: Duration,
    /// Pruning + connectivity time.
    pub opt_time: Duration,
}

/// A built NSSG index owning its store.
pub struct Nssg<S> {
    store: S,
    metric: Metric,
    adjacency: Vec<Vec<u32>>,
    root: u32,
    params: NssgParams,
}

impl<S: VectorStore> Nssg<S> {
    /// Build the NSSG over `store`.
    pub fn build(store: S, metric: Metric, params: NssgParams) -> (Self, NssgBuildReport) {
        assert!(params.range >= 2, "range must be at least 2");
        let n = store.len();
        let k = if params.knn_k == 0 { params.range * 2 } else { params.knn_k };
        assert!(n > k, "dataset of {n} vectors cannot support knn_k = {k}");

        let t0 = Instant::now();
        let knn = NnDescent::new(NnDescentParams { seed: params.seed, ..NnDescentParams::new(k) })
            .build(&store, metric);
        let knn_time = t0.elapsed();

        let t1 = Instant::now();
        let mut adjacency = prune_all(&store, metric, &knn, &params);
        let root = 0u32;
        ensure_connectivity(&mut adjacency, root, &knn);
        let opt_time = t1.elapsed();

        (Nssg { store, metric, adjacency, root, params }, NssgBuildReport { knn_time, opt_time })
    }

    /// Average out-degree (the quantity Fig. 12 matches CAGRA's `d` to).
    pub fn average_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            return 0.0;
        }
        let total: usize = self.adjacency.iter().map(Vec::len).sum();
        total as f64 / self.adjacency.len() as f64
    }

    /// The owned store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Parameters used at build time.
    pub fn params(&self) -> &NssgParams {
        &self.params
    }

    /// Root used by the connectivity pass.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Adjacency lists (borrowed by the search and the experiments).
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.adjacency
    }

    /// CSR view for the graph-analysis tooling.
    pub fn to_adjacency_graph(&self) -> AdjacencyGraph {
        AdjacencyGraph::from_lists(&self.adjacency)
    }
}

/// Angle-criterion pruning for every node.
fn prune_all<S: VectorStore + ?Sized>(
    store: &S,
    metric: Metric,
    knn: &KnnLists,
    params: &NssgParams,
) -> Vec<Vec<u32>> {
    let n = knn.len();
    let dim = store.dim();
    let cos_min = (params.angle_deg.to_radians()).cos();
    let oracle = DistanceOracle::new(store, metric);
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut v_buf = vec![0.0f32; dim];
    let mut u_buf = vec![0.0f32; dim];
    let mut pool: Vec<Neighbor> = Vec::new();
    // Direction vectors of selected edges, flattened.
    let mut dirs: Vec<f32> = Vec::new();

    for v in 0..n {
        store.get_into(v, &mut v_buf);
        // Pool: k-NN plus neighbors-of-neighbors up to L entries.
        pool.clear();
        pool.extend_from_slice(knn.row(v));
        'outer: for nb in knn.row(v) {
            for nn in knn.row(nb.id as usize) {
                if pool.len() >= params.l {
                    break 'outer;
                }
                if nn.id as usize != v && !pool.iter().any(|p| p.id == nn.id) {
                    pool.push(Neighbor::new(nn.id, oracle.to_row(&v_buf, nn.id as usize)));
                }
            }
        }
        pool.sort_unstable_by(knn::topk::cmp_neighbor);

        // Greedy selection under the minimum-angle criterion.
        let mut selected: Vec<u32> = Vec::with_capacity(params.range);
        dirs.clear();
        for cand in pool.iter() {
            if selected.len() == params.range {
                break;
            }
            store.get_into(cand.id as usize, &mut u_buf);
            let mut dir: Vec<f32> = u_buf.iter().zip(&v_buf).map(|(a, b)| a - b).collect();
            let norm = dot(&dir, &dir).sqrt();
            if norm == 0.0 {
                continue; // duplicate point; a zero-length edge spreads nowhere
            }
            for x in &mut dir {
                *x /= norm;
            }
            let ok = dirs.chunks_exact(dim).all(|w| dot(&dir, w) < cos_min);
            if ok {
                selected.push(cand.id);
                dirs.extend_from_slice(&dir);
            }
        }
        // Degenerate fallback (all candidates colinear/duplicates):
        // keep nearest neighbors so no node is edgeless.
        if selected.is_empty() {
            selected.extend(knn.row(v).iter().take(params.range).map(|nb| nb.id));
        }
        out.push(selected);
    }
    out
}

/// BFS from the root; any unreached node gets an incoming edge from
/// its nearest reached k-NN (or the root), the NSG/NSSG tree-link step.
fn ensure_connectivity(adjacency: &mut [Vec<u32>], root: u32, knn: &KnnLists) {
    let n = adjacency.len();
    if n == 0 {
        return;
    }
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    reached[root as usize] = true;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &u in &adjacency[v as usize] {
            if !reached[u as usize] {
                reached[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    for v in 0..n {
        if reached[v] {
            continue;
        }
        // Attach from the nearest reached neighbor in the base graph.
        let from =
            knn.row(v).iter().find(|nb| reached[nb.id as usize]).map(|nb| nb.id).unwrap_or(root);
        adjacency[from as usize].push(v as u32);
        // Everything reachable from v becomes reached.
        reached[v] = true;
        queue.push_back(v as u32);
        while let Some(w) = queue.pop_front() {
            for &u in &adjacency[w as usize] {
                if !reached[u as usize] {
                    reached[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::synth::{Family, SynthSpec};
    use graph::scc::strongly_connected_components;

    fn gaussian(n: usize, seed: u64) -> dataset::Dataset {
        SynthSpec { dim: 8, n, queries: 0, family: Family::Gaussian, seed }.generate().0
    }

    #[test]
    fn builds_with_bounded_degree() {
        let (g, report) = Nssg::build(gaussian(600, 1), Metric::SquaredL2, NssgParams::new(12));
        assert_eq!(g.adjacency().len(), 600);
        for (v, list) in g.adjacency().iter().enumerate() {
            // Connectivity repair may exceed R by a few edges.
            assert!(list.len() <= 12 + 4, "node {v} degree {}", list.len());
            assert!(!list.is_empty(), "node {v} has no edges");
            assert!(list.iter().all(|&u| u as usize != v), "self edge at {v}");
        }
        assert!(g.average_degree() > 2.0);
        assert!(report.knn_time + report.opt_time > Duration::ZERO);
    }

    #[test]
    fn root_reaches_every_node() {
        let (g, _) = Nssg::build(gaussian(500, 2), Metric::SquaredL2, NssgParams::new(8));
        let adj = g.to_adjacency_graph();
        let mut reached = vec![false; adj.len()];
        let mut stack = vec![g.root()];
        reached[g.root() as usize] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in adj.neighbors(v as usize) {
                if !reached[u as usize] {
                    reached[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        assert_eq!(count, 500, "all nodes must be reachable from the root");
    }

    #[test]
    fn angle_pruning_spreads_edges() {
        // Narrower angle keeps more edges; wider angle prunes harder.
        let base = gaussian(400, 3);
        let wide = NssgParams { angle_deg: 75.0, ..NssgParams::new(16) };
        let narrow = NssgParams { angle_deg: 30.0, ..NssgParams::new(16) };
        let (g_wide, _) = Nssg::build(
            dataset::Dataset::from_flat(base.as_flat().to_vec(), 8),
            Metric::SquaredL2,
            wide,
        );
        let (g_narrow, _) = Nssg::build(base, Metric::SquaredL2, narrow);
        assert!(
            g_narrow.average_degree() >= g_wide.average_degree(),
            "narrow {} vs wide {}",
            g_narrow.average_degree(),
            g_wide.average_degree()
        );
    }

    #[test]
    fn graph_is_mostly_one_strong_component_after_repair() {
        let (g, _) = Nssg::build(gaussian(500, 4), Metric::SquaredL2, NssgParams::new(12));
        let scc = strongly_connected_components(&g.to_adjacency_graph());
        // Directed graphs need not be strongly connected, but the
        // largest component should dominate.
        let largest = scc.sizes().into_iter().max().unwrap();
        assert!(largest > 350, "largest strong CC {largest}");
    }

    #[test]
    fn duplicate_points_do_not_break_build() {
        let mut flat = Vec::new();
        for i in 0..80 {
            let v = (i % 10) as f32; // many exact duplicates
            flat.extend_from_slice(&[v, v, v, v]);
        }
        let d = dataset::Dataset::from_flat(flat, 4);
        let (g, _) = Nssg::build(d, Metric::SquaredL2, NssgParams::new(4));
        assert_eq!(g.adjacency().len(), 80);
        assert!(g.adjacency().iter().all(|l| !l.is_empty()));
    }

    #[test]
    #[should_panic(expected = "range must be at least 2")]
    fn tiny_range_rejected() {
        let _ = Nssg::build(gaussian(100, 1), Metric::SquaredL2, NssgParams::new(1));
    }
}
