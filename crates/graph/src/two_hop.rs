//! Average 2-hop node count (reachability property 2 of Sec. III-A).
//!
//! For a node `u`, the 2-hop count is the number of *distinct* nodes
//! reachable in at most two edge traversals, excluding `u` itself. For
//! a fixed-degree-`d` graph its maximum is `d + d^2`; the paper uses
//! the dataset-wide average to quantify how much of the graph a fixed
//! number of search iterations can explore.

use crate::adj::AdjacencyGraph;

/// Exact 2-hop count for one node using a stamped visited array.
fn two_hop_one(g: &AdjacencyGraph, u: usize, stamp: &mut [u32], cur: u32) -> usize {
    let mut count = 0usize;
    stamp[u] = cur; // exclude self
    for &v in g.neighbors(u) {
        let v = v as usize;
        if stamp[v] != cur {
            stamp[v] = cur;
            count += 1;
        }
        for &w in g.neighbors(v) {
            let w = w as usize;
            if stamp[w] != cur {
                stamp[w] = cur;
                count += 1;
            }
        }
    }
    count
}

/// Average 2-hop node count over all nodes (exact).
pub fn average_two_hop(g: &AdjacencyGraph) -> f64 {
    let n = g.len();
    if n == 0 {
        return 0.0;
    }
    let mut stamp = vec![u32::MAX; n];
    let mut total = 0usize;
    for u in 0..n {
        total += two_hop_one(g, u, &mut stamp, u as u32);
    }
    total as f64 / n as f64
}

/// Average 2-hop node count estimated on a node sample. Deterministic:
/// samples `max(1, n/stride)` evenly spaced nodes. Exact when
/// `stride == 1`. Used on large graphs where exact counting dominates
/// the experiment's runtime.
pub fn average_two_hop_sampled(g: &AdjacencyGraph, stride: usize) -> f64 {
    let n = g.len();
    if n == 0 {
        return 0.0;
    }
    let stride = stride.max(1);
    let mut stamp = vec![u32::MAX; n];
    let mut total = 0usize;
    let mut samples = 0usize;
    let mut u = 0usize;
    while u < n {
        total += two_hop_one(g, u, &mut stamp, samples as u32);
        samples += 1;
        u += stride;
    }
    total as f64 / samples as f64
}

/// Theoretical maximum 2-hop count for degree `d` (`d + d^2`).
pub fn max_two_hop(d: usize) -> usize {
    d + d * d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_tree_reaches_maximum() {
        // Node 0 -> {1,2}; 1 -> {3,4}; 2 -> {5,6}; leaves loop among
        // themselves far away, so from node 0 the 2-hop set is exactly
        // d + d^2 = 6 distinct nodes.
        let g = AdjacencyGraph::from_lists(&[
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![4, 5],
            vec![3, 6],
            vec![6, 3],
            vec![5, 4],
        ]);
        let mut stamp = vec![u32::MAX; g.len()];
        assert_eq!(two_hop_one(&g, 0, &mut stamp, 0), max_two_hop(2));
    }

    #[test]
    fn duplicates_and_self_do_not_count() {
        // 0 -> 1 -> 0: from 0 we can reach {1} in one hop and {0} in
        // two, but self is excluded, so the count is 1.
        let g = AdjacencyGraph::from_lists(&[vec![1], vec![0]]);
        assert_eq!(average_two_hop(&g), 1.0);
    }

    #[test]
    fn ring_of_five_degree_one() {
        // Each node reaches exactly 2 distinct others in <=2 hops.
        let lists: Vec<Vec<u32>> = (0..5).map(|i| vec![((i + 1) % 5) as u32]).collect();
        let g = AdjacencyGraph::from_lists(&lists);
        assert_eq!(average_two_hop(&g), 2.0);
    }

    #[test]
    fn sampled_with_stride_one_is_exact() {
        let lists: Vec<Vec<u32>> =
            (0..20).map(|i| vec![((i + 1) % 20) as u32, ((i + 7) % 20) as u32]).collect();
        let g = AdjacencyGraph::from_lists(&lists);
        assert_eq!(average_two_hop(&g), average_two_hop_sampled(&g, 1));
    }

    #[test]
    fn sampled_is_close_on_regular_graph() {
        let lists: Vec<Vec<u32>> =
            (0..100).map(|i| vec![((i + 1) % 100) as u32, ((i + 13) % 100) as u32]).collect();
        let g = AdjacencyGraph::from_lists(&lists);
        let exact = average_two_hop(&g);
        let approx = average_two_hop_sampled(&g, 7);
        assert!((exact - approx).abs() < 0.5, "exact {exact} approx {approx}");
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(average_two_hop(&AdjacencyGraph::from_lists(&[])), 0.0);
    }

    #[test]
    fn max_two_hop_formula() {
        assert_eq!(max_two_hop(32), 32 + 32 * 32);
    }
}
