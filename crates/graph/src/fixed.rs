//! Fixed out-degree directed graph — the CAGRA graph layout.
//!
//! Every node has exactly `degree` out-edges stored contiguously, so
//! the whole graph is one `n * degree` index array. This uniformity is
//! what lets the GPU kernel (and our simulator) assign identical work
//! to every traversal step with no load imbalance (Sec. III of the
//! paper).

/// Dense `n x degree` directed graph over node ids `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedDegreeGraph {
    neighbors: Vec<u32>,
    degree: usize,
    n: usize,
}

impl FixedDegreeGraph {
    /// Build from a flat row-major neighbor array.
    ///
    /// # Panics
    /// Panics if the buffer shape is inconsistent or any id is out of
    /// range.
    pub fn from_flat(neighbors: Vec<u32>, n: usize, degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        assert_eq!(neighbors.len(), n * degree, "neighbor buffer shape mismatch");
        assert!(neighbors.iter().all(|&v| (v as usize) < n), "neighbor id out of range (n = {n})");
        FixedDegreeGraph { neighbors, degree, n }
    }

    /// [`FixedDegreeGraph::from_flat`] for buffers whose ids are
    /// in-range by construction (e.g. filled from an already-validated
    /// graph): skips the O(n·d) id scan in release builds but keeps it
    /// as a debug assertion.
    pub fn from_flat_unchecked(neighbors: Vec<u32>, n: usize, degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        assert_eq!(neighbors.len(), n * degree, "neighbor buffer shape mismatch");
        debug_assert!(
            neighbors.iter().all(|&v| (v as usize) < n),
            "neighbor id out of range (n = {n})"
        );
        FixedDegreeGraph { neighbors, degree, n }
    }

    /// Build from per-node neighbor rows.
    ///
    /// # Panics
    /// Panics if any row length differs from `degree`.
    pub fn from_rows(rows: &[Vec<u32>], degree: usize) -> Self {
        let n = rows.len();
        let mut flat = Vec::with_capacity(n * degree);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), degree, "row {i} has wrong degree");
            flat.extend_from_slice(row);
        }
        Self::from_flat(flat, n, degree)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fixed out-degree `d`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Out-neighbors of `node`.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.neighbors[node * self.degree..(node + 1) * self.degree]
    }

    /// The flat neighbor buffer.
    pub fn as_flat(&self) -> &[u32] {
        &self.neighbors
    }

    /// In-degree of every node (not fixed — CAGRA fixes out-degree only).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        for &v in &self.neighbors {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Count self-loop edges (CAGRA graphs should have none after
    /// optimization; the builder asserts on this in debug builds).
    pub fn self_loops(&self) -> usize {
        (0..self.n).map(|u| self.neighbors(u).iter().filter(|&&v| v as usize == u).count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, degree: usize) -> FixedDegreeGraph {
        let rows: Vec<Vec<u32>> =
            (0..n).map(|i| (1..=degree).map(|k| ((i + k) % n) as u32).collect()).collect();
        FixedDegreeGraph::from_rows(&rows, degree)
    }

    #[test]
    fn ring_shape() {
        let g = ring(5, 2);
        assert_eq!(g.len(), 5);
        assert_eq!(g.degree(), 2);
        assert_eq!(g.neighbors(3), &[4, 0]);
        assert_eq!(g.as_flat().len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_neighbor_rejected() {
        FixedDegreeGraph::from_flat(vec![0, 5], 2, 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_rejected() {
        FixedDegreeGraph::from_flat(vec![0, 1, 0], 2, 2);
    }

    #[test]
    fn in_degrees_sum_to_edges() {
        let g = ring(7, 3);
        let deg = g.in_degrees();
        assert_eq!(deg.iter().sum::<u32>() as usize, 7 * 3);
        assert!(deg.iter().all(|&d| d == 3)); // a ring shift is regular
    }

    #[test]
    fn self_loop_count() {
        let g = FixedDegreeGraph::from_flat(vec![0, 1, 1, 0], 2, 2);
        assert_eq!(g.self_loops(), 2); // node0->0 and node1->1
        assert_eq!(ring(4, 2).self_loops(), 0);
    }
}
