//! Summary statistics used by the Fig. 3 experiment and DESIGN checks.

use crate::adj::AdjacencyGraph;
use crate::scc::strongly_connected_components;
use crate::two_hop::average_two_hop_sampled;

/// Reachability metrics for a proximity graph (Sec. III-A).
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Number of nodes.
    pub n: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Number of strongly connected components (smaller is better).
    pub strong_cc: usize,
    /// Fraction of nodes in the largest strong component.
    pub largest_cc_fraction: f64,
    /// Average 2-hop node count (larger is better).
    pub avg_two_hop: f64,
}

/// Compute all reachability metrics. `two_hop_stride` samples the
/// 2-hop average (1 = exact).
pub fn graph_stats(g: &AdjacencyGraph, two_hop_stride: usize) -> GraphStats {
    let scc = strongly_connected_components(g);
    let n = g.len();
    GraphStats {
        n,
        avg_degree: g.average_degree(),
        strong_cc: scc.count,
        largest_cc_fraction: if n == 0 { 0.0 } else { scc.largest() as f64 / n as f64 },
        avg_two_hop: average_two_hop_sampled(g, two_hop_stride),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_a_cycle() {
        let lists: Vec<Vec<u32>> = (0..6).map(|i| vec![((i + 1) % 6) as u32]).collect();
        let s = graph_stats(&AdjacencyGraph::from_lists(&lists), 1);
        assert_eq!(s.n, 6);
        assert_eq!(s.strong_cc, 1);
        assert_eq!(s.largest_cc_fraction, 1.0);
        assert_eq!(s.avg_degree, 1.0);
        assert_eq!(s.avg_two_hop, 2.0);
    }

    #[test]
    fn stats_on_disconnected_graph() {
        let s = graph_stats(&AdjacencyGraph::from_lists(&[vec![], vec![]]), 1);
        assert_eq!(s.strong_cc, 2);
        assert_eq!(s.largest_cc_fraction, 0.5);
        assert_eq!(s.avg_two_hop, 0.0);
    }

    #[test]
    fn stats_on_empty_graph() {
        let s = graph_stats(&AdjacencyGraph::from_lists(&[]), 1);
        assert_eq!(s.n, 0);
        assert_eq!(s.strong_cc, 0);
        assert_eq!(s.largest_cc_fraction, 0.0);
    }
}

/// Memory-locality metrics of a node numbering (the `relabel` module
/// exists to improve these). All three are pure functions of the
/// layout: relabeling changes them, the topology does not.
#[derive(Clone, Debug)]
pub struct LocalityStats {
    /// Mean |u − v| over all directed edges: how far an expansion
    /// jumps through the id space on average.
    pub mean_edge_span: f64,
    /// Maximum |u − v| over all edges (the matrix bandwidth).
    pub bandwidth: u32,
    /// Estimated 128-bit (16-byte) memory transactions needed to gather
    /// one adjacency row's neighbor *vectors*, averaged over rows:
    /// distinct 128-byte lines touched × 8, assuming `vec_row_bytes`
    /// per vector and a cold cache. Neighbors packed into adjacent ids
    /// share lines (when vectors are small) and lower this.
    pub est_row_transactions: f64,
}

/// 128-byte cache-line size the transaction estimate assumes (matches
/// the GPU L2 line / 8 × 16-byte transactions).
const LINE_BYTES: u64 = 128;

/// Compute [`LocalityStats`] for a fixed-degree graph whose vectors
/// occupy `vec_row_bytes` each.
pub fn locality_stats(g: &crate::fixed::FixedDegreeGraph, vec_row_bytes: usize) -> LocalityStats {
    let n = g.len();
    let mut total_span = 0u64;
    let mut edges = 0u64;
    let mut bandwidth = 0u32;
    let mut total_lines = 0u64;
    let mut lines: Vec<u64> = Vec::with_capacity(g.degree() * 4);
    for u in 0..n {
        lines.clear();
        for &v in g.neighbors(u) {
            let span = (u as i64 - v as i64).unsigned_abs();
            total_span += span;
            bandwidth = bandwidth.max(span as u32);
            edges += 1;
            // 128-byte lines covered by neighbor v's vector row.
            let start = v as u64 * vec_row_bytes as u64;
            let end = start + vec_row_bytes as u64;
            let mut line = start / LINE_BYTES;
            while line * LINE_BYTES < end {
                lines.push(line);
                line += 1;
            }
        }
        lines.sort_unstable();
        lines.dedup();
        total_lines += lines.len() as u64;
    }
    LocalityStats {
        mean_edge_span: if edges == 0 { 0.0 } else { total_span as f64 / edges as f64 },
        bandwidth,
        est_row_transactions: if n == 0 {
            0.0
        } else {
            (total_lines * (LINE_BYTES / 16)) as f64 / n as f64
        },
    }
}

#[cfg(test)]
mod locality_tests {
    use super::*;
    use crate::fixed::FixedDegreeGraph;

    #[test]
    fn ring_locality_is_tight() {
        // Ring of shift-1/shift-2 edges: spans 1 and 2 except wraps.
        let rows: Vec<Vec<u32>> = (0..8u32).map(|i| vec![(i + 1) % 8, (i + 2) % 8]).collect();
        let g = FixedDegreeGraph::from_rows(&rows, 2);
        let s = locality_stats(&g, 32);
        assert_eq!(s.bandwidth, 7); // the wraparound edge
        assert!(s.mean_edge_span < 3.0, "mean span {}", s.mean_edge_span);
        // 32-byte rows: adjacent neighbors share a 128-byte line, so
        // well under 2 lines (16 tx) per row.
        assert!(s.est_row_transactions <= 16.0, "{}", s.est_row_transactions);
    }

    #[test]
    fn scattered_layout_costs_more_transactions() {
        // Same topology, neighbors numbered far apart.
        let near = FixedDegreeGraph::from_rows(
            &(0..16u32).map(|i| vec![(i + 1) % 16, (i + 2) % 16]).collect::<Vec<_>>(),
            2,
        );
        let far = FixedDegreeGraph::from_rows(
            &(0..16u32).map(|i| vec![(i + 7) % 16, (i + 11) % 16]).collect::<Vec<_>>(),
            2,
        );
        let sn = locality_stats(&near, 32);
        let sf = locality_stats(&far, 32);
        assert!(sn.mean_edge_span < sf.mean_edge_span);
        assert!(sn.est_row_transactions <= sf.est_row_transactions);
    }

    #[test]
    fn large_vectors_never_share_lines() {
        // 512-byte rows: every neighbor costs exactly 512/16 = 32 tx.
        let g = FixedDegreeGraph::from_rows(
            &(0..8u32).map(|i| vec![(i + 1) % 8]).collect::<Vec<_>>(),
            1,
        );
        let s = locality_stats(&g, 512);
        assert_eq!(s.est_row_transactions, 32.0);
    }

    #[test]
    fn empty_graph_is_zeroed() {
        let g = FixedDegreeGraph::from_flat(Vec::new(), 0, 1);
        let s = locality_stats(&g, 32);
        assert_eq!(s.bandwidth, 0);
        assert_eq!(s.mean_edge_span, 0.0);
        assert_eq!(s.est_row_transactions, 0.0);
    }
}
