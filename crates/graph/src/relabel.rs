//! Vertex relabeling for memory locality.
//!
//! CAGRA's search loop is memory-bound: each expansion gathers one
//! fixed-degree adjacency row and then the neighbor vectors, so the
//! *numbering* of the nodes decides how many 128-bit transactions (and
//! CPU cache lines) every iteration costs. Renumbering the vertices so
//! that nodes visited together sit at nearby ids turns those gathers
//! into (partially) coalesced streams without changing the graph's
//! topology or the search results.
//!
//! Three classic orderings are provided:
//!
//! * [`RelabelStrategy::Degree`] — hub-first: sort by in-degree
//!   descending. Hubs are touched by almost every query, so packing
//!   them into a small id prefix keeps their adjacency rows and
//!   vectors resident in cache.
//! * [`RelabelStrategy::Rcm`] — reverse Cuthill–McKee: BFS over the
//!   symmetrized graph from a low-degree seed, visiting neighbors in
//!   increasing-degree order, then reversing. Minimizes bandwidth
//!   (max edge span), so a row's neighbors cluster near the row.
//! * [`RelabelStrategy::Gorder`] — greedy neighborhood packing: place
//!   nodes one at a time, always picking the candidate sharing the
//!   most adjacency with a sliding window of recently placed nodes
//!   (the priority score of the Gorder paper, computed over out- and
//!   in-edges).
//!
//! A relabel must be applied *jointly* — adjacency arrays, vector
//! rows, and entry points all move together — and search results must
//! come back in the original external ids. [`Permutation`] holds both
//! directions of the mapping; [`IdMap`] pairs it with the strategy tag
//! for persistence, and sits at the search boundary translating ids
//! with one array lookup (zero per-hop overhead).

use crate::fixed::FixedDegreeGraph;
use serde::{Deserialize, Serialize};

/// Which vertex ordering to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelabelStrategy {
    /// Keep the original numbering (the no-op baseline).
    Identity,
    /// Hub-first: in-degree descending, ties by original id.
    Degree,
    /// Reverse Cuthill–McKee bandwidth reduction.
    Rcm,
    /// Gorder-style greedy sliding-window neighborhood packing.
    Gorder,
}

impl RelabelStrategy {
    /// All strategies, identity first.
    pub const ALL: [RelabelStrategy; 4] = [
        RelabelStrategy::Identity,
        RelabelStrategy::Degree,
        RelabelStrategy::Rcm,
        RelabelStrategy::Gorder,
    ];

    /// Short lowercase label used by the CLI and reports.
    pub fn label(self) -> &'static str {
        match self {
            RelabelStrategy::Identity => "identity",
            RelabelStrategy::Degree => "degree",
            RelabelStrategy::Rcm => "rcm",
            RelabelStrategy::Gorder => "gorder",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<RelabelStrategy> {
        Self::ALL.into_iter().find(|x| x.label() == s)
    }

    /// Stable one-byte tag for serialization (0 = identity).
    pub fn tag(self) -> u8 {
        match self {
            RelabelStrategy::Identity => 0,
            RelabelStrategy::Degree => 1,
            RelabelStrategy::Rcm => 2,
            RelabelStrategy::Gorder => 3,
        }
    }

    /// Inverse of [`RelabelStrategy::tag`].
    pub fn from_tag(t: u8) -> Option<RelabelStrategy> {
        Self::ALL.into_iter().find(|x| x.tag() == t)
    }
}

/// A bijection between the *old* (original/external) numbering and the
/// *new* (relabeled/internal) numbering, stored in both directions so
/// either lookup is one array access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<u32>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<u32>,
}

impl Permutation {
    /// The identity permutation over `n` nodes.
    pub fn identity(n: usize) -> Permutation {
        let v: Vec<u32> = (0..n as u32).collect();
        Permutation { new_of_old: v.clone(), old_of_new: v }
    }

    /// Build from the `old_of_new` direction (the order in which old
    /// ids are laid out), validating that it is a bijection.
    ///
    /// # Panics
    /// Panics if `old_of_new` is not a permutation of `0..n`.
    pub fn from_old_of_new(old_of_new: Vec<u32>) -> Permutation {
        let n = old_of_new.len();
        let mut new_of_old = vec![u32::MAX; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            assert!((old as usize) < n, "id {old} out of range (n = {n})");
            assert!(new_of_old[old as usize] == u32::MAX, "id {old} appears twice");
            new_of_old[old as usize] = new as u32;
        }
        Permutation { new_of_old, old_of_new }
    }

    /// Build from the `new_of_old` direction, validating a bijection.
    ///
    /// # Panics
    /// Panics if `new_of_old` is not a permutation of `0..n`.
    pub fn from_new_of_old(new_of_old: Vec<u32>) -> Permutation {
        let inv = Permutation::from_old_of_new(new_of_old);
        Permutation { new_of_old: inv.old_of_new, old_of_new: inv.new_of_old }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True for the zero-node permutation.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// New (internal) id of an old (original) id.
    #[inline]
    pub fn new_of_old(&self, old: u32) -> u32 {
        self.new_of_old[old as usize]
    }

    /// Old (original) id of a new (internal) id.
    #[inline]
    pub fn old_of_new(&self, new: u32) -> u32 {
        self.old_of_new[new as usize]
    }

    /// The full `old_of_new` array (row `new` holds old id).
    pub fn old_of_new_slice(&self) -> &[u32] {
        &self.old_of_new
    }

    /// True when the permutation maps every id to itself.
    pub fn is_identity(&self) -> bool {
        self.new_of_old.iter().enumerate().all(|(i, &v)| i as u32 == v)
    }

    /// The inverse mapping (swaps the two directions).
    pub fn inverse(&self) -> Permutation {
        Permutation { new_of_old: self.old_of_new.clone(), old_of_new: self.new_of_old.clone() }
    }

    /// Composition: apply `self` first, then `next` (both must cover
    /// the same node count). `result.new_of_old(x) ==
    /// next.new_of_old(self.new_of_old(x))`.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn then(&self, next: &Permutation) -> Permutation {
        assert_eq!(self.len(), next.len(), "composing permutations of different sizes");
        let new_of_old: Vec<u32> =
            self.new_of_old.iter().map(|&mid| next.new_of_old(mid)).collect();
        Permutation::from_new_of_old(new_of_old)
    }
}

/// The search-boundary translator: a [`Permutation`] plus the strategy
/// that produced it (persisted alongside the index so a reloaded
/// bundle keeps reporting original ids).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdMap {
    /// old = original/external ids, new = internal layout ids.
    pub perm: Permutation,
    /// Strategy that produced `perm` (reporting + persistence tag).
    pub strategy: RelabelStrategy,
}

impl IdMap {
    /// Internal (layout) id of an original id.
    #[inline]
    pub fn internal_of_original(&self, original: u32) -> u32 {
        self.perm.new_of_old(original)
    }

    /// Original (external) id of an internal id.
    #[inline]
    pub fn original_of_internal(&self, internal: u32) -> u32 {
        self.perm.old_of_new(internal)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the zero-node map.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }
}

/// Compute the permutation a strategy induces on a fixed-degree graph.
pub fn compute_fixed(g: &FixedDegreeGraph, strategy: RelabelStrategy) -> Permutation {
    match strategy {
        RelabelStrategy::Identity => Permutation::identity(g.len()),
        RelabelStrategy::Degree => degree_order(g),
        RelabelStrategy::Rcm => rcm_order(g),
        RelabelStrategy::Gorder => gorder(g),
    }
}

/// Hub-first: stable sort by in-degree descending. In-degree (not
/// out-degree, which is constant for CAGRA graphs) measures how often
/// a node is *gathered*, which is what cache residency rewards.
fn degree_order(g: &FixedDegreeGraph) -> Permutation {
    let deg = g.in_degrees();
    let mut order: Vec<u32> = (0..g.len() as u32).collect();
    order.sort_by_key(|&u| (std::cmp::Reverse(deg[u as usize]), u));
    Permutation::from_old_of_new(order)
}

/// Symmetrized adjacency (out ∪ in), deduplicated and sorted, which
/// both RCM and Gorder traverse: locality matters for whoever touches
/// a row, regardless of edge direction.
fn symmetrize(g: &FixedDegreeGraph) -> Vec<Vec<u32>> {
    let n = g.len();
    let mut sym: Vec<Vec<u32>> = vec![Vec::new(); n];
    for u in 0..n {
        for &v in g.neighbors(u) {
            if v as usize != u {
                sym[u].push(v);
                sym[v as usize].push(u as u32);
            }
        }
    }
    for row in &mut sym {
        row.sort_unstable();
        row.dedup();
    }
    sym
}

/// Reverse Cuthill–McKee: BFS from a minimum-degree seed, visiting
/// neighbors in increasing symmetric-degree order, final order
/// reversed. Deterministic: every tie breaks on the original id.
fn rcm_order(g: &FixedDegreeGraph) -> Permutation {
    let n = g.len();
    let sym = symmetrize(g);
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();

    // Seeds in (degree, id) order, so each new component starts from
    // its lowest-degree node, as classic RCM prescribes.
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&u| (sym[u as usize].len(), u));

    for &seed in &seeds {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        order.push(seed);
        let mut head = order.len() - 1;
        while head < order.len() {
            let u = order[head];
            head += 1;
            frontier.clear();
            for &v in &sym[u as usize] {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    frontier.push(v);
                }
            }
            frontier.sort_by_key(|&v| (sym[v as usize].len(), v));
            order.extend_from_slice(&frontier);
        }
    }
    order.reverse();
    Permutation::from_old_of_new(order)
}

/// Sliding-window width for [`gorder`]: how many recently placed nodes
/// contribute to a candidate's score (the Gorder paper uses w = 5; 8
/// keeps whole 128-byte lines of small adjacency rows in scope).
const GORDER_WINDOW: usize = 8;

/// Gorder-style greedy placement: repeatedly append the unplaced node
/// with the highest shared-neighborhood score against the last
/// [`GORDER_WINDOW`] placed nodes (score = # of symmetric edges into
/// the window). Lazy max-heap keeps each step near O(d log n).
fn gorder(g: &FixedDegreeGraph) -> Permutation {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = g.len();
    let sym = symmetrize(g);
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut score = vec![0u32; n];
    // Max-heap of (score, smaller-id-wins) with lazy invalidation: an
    // entry is trusted only if its score matches the current score.
    let mut heap: BinaryHeap<(u32, Reverse<u32>)> = BinaryHeap::new();
    // Seed order for exhausted phases: hubs first, so disconnected
    // pockets still start from their most-shared node.
    let deg_perm = degree_order(g);
    let mut seed_cursor = 0usize;

    while order.len() < n {
        // Pick the best-scored unplaced node, or the next seed if no
        // candidate currently shares anything with the window.
        let pick = loop {
            match heap.pop() {
                Some((s, Reverse(u))) => {
                    if placed[u as usize] {
                        continue;
                    }
                    if score[u as usize] != s {
                        // Stale score (a window slide changed it):
                        // re-queue at the current value.
                        heap.push((score[u as usize], Reverse(u)));
                        continue;
                    }
                    if s == 0 {
                        break None; // nothing shares with the window
                    }
                    break Some(u);
                }
                None => break None,
            }
        };
        let u = pick.unwrap_or_else(|| {
            while placed[deg_perm.old_of_new(seed_cursor as u32) as usize] {
                seed_cursor += 1;
            }
            deg_perm.old_of_new(seed_cursor as u32)
        });

        placed[u as usize] = true;
        order.push(u);
        // The window slides: u's neighbors gain a share, the neighbors
        // of the node falling out of the window lose theirs.
        for &v in &sym[u as usize] {
            if !placed[v as usize] {
                score[v as usize] += 1;
                heap.push((score[v as usize], Reverse(v)));
            }
        }
        if order.len() > GORDER_WINDOW {
            let out = order[order.len() - 1 - GORDER_WINDOW];
            for &v in &sym[out as usize] {
                if !placed[v as usize] {
                    score[v as usize] -= 1;
                    // No push: the stale higher entry re-queues itself
                    // on pop via the score check above.
                }
            }
        }
    }
    Permutation::from_old_of_new(order)
}

/// Apply a permutation to a fixed-degree graph: row `new` of the
/// result is the (id-mapped) row of old node `old_of_new[new]`, with
/// the within-row neighbor order preserved — required for bit-exact
/// search parity, since expansion consumes rows in stored order.
///
/// # Panics
/// Panics if the permutation size differs from the graph size.
pub fn apply_to_fixed(g: &FixedDegreeGraph, perm: &Permutation) -> FixedDegreeGraph {
    assert_eq!(
        g.len(),
        perm.len(),
        "permutation covers {} nodes, graph has {}",
        perm.len(),
        g.len()
    );
    let n = g.len();
    let d = g.degree();
    let mut flat = vec![0u32; n * d];
    for new_u in 0..n {
        let old_u = perm.old_of_new(new_u as u32) as usize;
        let dst = &mut flat[new_u * d..(new_u + 1) * d];
        for (slot, &old_v) in dst.iter_mut().zip(g.neighbors(old_u)) {
            *slot = perm.new_of_old(old_v);
        }
    }
    FixedDegreeGraph::from_flat_unchecked(flat, n, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, degree: usize) -> FixedDegreeGraph {
        let rows: Vec<Vec<u32>> =
            (0..n).map(|i| (1..=degree).map(|k| ((i + k) % n) as u32).collect()).collect();
        FixedDegreeGraph::from_rows(&rows, degree)
    }

    /// Every strategy must yield a valid bijection on every graph.
    fn assert_bijection(p: &Permutation, n: usize) {
        assert_eq!(p.len(), n);
        for old in 0..n as u32 {
            assert_eq!(p.old_of_new(p.new_of_old(old)), old);
        }
    }

    #[test]
    fn identity_maps_everything_to_itself() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.new_of_old(3), 3);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_old_of_new(vec![2, 0, 3, 1]);
        let inv = p.inverse();
        assert_eq!(p.then(&inv), Permutation::identity(4));
        assert_eq!(inv.inverse(), p);
        assert!(!p.is_identity());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_id_rejected() {
        Permutation::from_old_of_new(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_rejected() {
        Permutation::from_old_of_new(vec![0, 3]);
    }

    #[test]
    fn composition_applies_in_order() {
        let a = Permutation::from_new_of_old(vec![1, 2, 0]); // 0→1, 1→2, 2→0
        let b = Permutation::from_new_of_old(vec![0, 2, 1]); // swap 1,2
        let c = a.then(&b);
        assert_eq!(c.new_of_old(0), 2); // a: 0→1, b: 1→2
        assert_eq!(c.new_of_old(1), 1);
        assert_eq!(c.new_of_old(2), 0);
    }

    #[test]
    fn every_strategy_is_a_bijection() {
        let g = ring(37, 3);
        for s in RelabelStrategy::ALL {
            assert_bijection(&compute_fixed(&g, s), 37);
        }
    }

    #[test]
    fn degree_puts_hubs_first() {
        // Node 0 is pointed at by everyone; node 1 by nobody extra.
        let rows: Vec<Vec<u32>> = (0..8).map(|i| vec![0u32, ((i + 1) % 8) as u32]).collect();
        let g = FixedDegreeGraph::from_rows(&rows, 2);
        let p = compute_fixed(&g, RelabelStrategy::Degree);
        assert_eq!(p.new_of_old(0), 0, "highest in-degree node must come first");
    }

    #[test]
    fn rcm_reduces_bandwidth_on_a_shuffled_path() {
        // A path graph numbered badly: edge spans are huge. RCM must
        // bring the maximum span down to a small constant.
        let n = 64usize;
        // Shuffle: old id = bit-reversed position (deterministic mess).
        let bits = 6;
        let shuffled: Vec<u32> = (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect();
        // Path i — i+1 in *shuffled* labels, as a degree-2 ring minus
        // wraparound (self-loop padding keeps the degree fixed).
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for w in shuffled.windows(2) {
            rows[w[0] as usize].push(w[1]);
            rows[w[1] as usize].push(w[0]);
        }
        for (i, row) in rows.iter_mut().enumerate() {
            while row.len() < 2 {
                row.push(shuffled[if i == 0 { 1 } else { 0 }]); // filler edge
            }
            row.truncate(2);
        }
        let g = FixedDegreeGraph::from_rows(&rows, 2);
        let span = |g: &FixedDegreeGraph| -> u32 {
            (0..g.len())
                .flat_map(|u| {
                    g.neighbors(u).iter().map(move |&v| (u as i64 - v as i64).unsigned_abs() as u32)
                })
                .max()
                .unwrap()
        };
        let before = span(&g);
        let p = compute_fixed(&g, RelabelStrategy::Rcm);
        let after = span(&apply_to_fixed(&g, &p));
        assert!(after < before / 2, "rcm bandwidth {after} not well below {before}");
    }

    #[test]
    fn gorder_packs_shared_neighborhoods() {
        // Two cliques glued by one edge: Gorder must place each clique
        // contiguously (mean edge span ~1 within cliques).
        let clique = |base: u32, ids: &[u32]| -> Vec<Vec<u32>> {
            ids.iter()
                .map(|&i| ids.iter().copied().filter(|&j| j != i).chain([base]).take(5).collect())
                .collect()
        };
        // Interleave the two cliques' ids so the original layout is bad.
        let a = [0u32, 2, 4, 6, 8, 10];
        let b = [1u32, 3, 5, 7, 9, 11];
        let mut rows = vec![Vec::new(); 12];
        for (ids, other0) in [(&a, b[0]), (&b, a[0])] {
            for (i, row) in clique(other0, ids).into_iter().enumerate() {
                rows[ids[i] as usize] = row;
            }
        }
        let g = FixedDegreeGraph::from_rows(&rows, 5);
        let p = compute_fixed(&g, RelabelStrategy::Gorder);
        let relabeled = apply_to_fixed(&g, &p);
        let mean_span = |g: &FixedDegreeGraph| -> f64 {
            let mut total = 0u64;
            let mut edges = 0u64;
            for u in 0..g.len() {
                for &v in g.neighbors(u) {
                    total += (u as i64 - v as i64).unsigned_abs();
                    edges += 1;
                }
            }
            total as f64 / edges as f64
        };
        assert!(
            mean_span(&relabeled) < mean_span(&g),
            "gorder span {} vs original {}",
            mean_span(&relabeled),
            mean_span(&g)
        );
    }

    #[test]
    fn apply_preserves_edges_and_row_order() {
        let g = ring(10, 3);
        for s in [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder] {
            let p = compute_fixed(&g, s);
            let h = apply_to_fixed(&g, &p);
            assert_eq!(h.len(), g.len());
            assert_eq!(h.degree(), g.degree());
            for old_u in 0..g.len() {
                let new_u = p.new_of_old(old_u as u32) as usize;
                let mapped: Vec<u32> =
                    g.neighbors(old_u).iter().map(|&v| p.new_of_old(v)).collect();
                // Same neighbors in the same stored order.
                assert_eq!(h.neighbors(new_u), &mapped[..], "strategy {s:?} node {old_u}");
            }
        }
    }

    #[test]
    fn strategy_labels_round_trip() {
        for s in RelabelStrategy::ALL {
            assert_eq!(RelabelStrategy::parse(s.label()), Some(s));
            assert_eq!(RelabelStrategy::from_tag(s.tag()), Some(s));
        }
        assert_eq!(RelabelStrategy::parse("nope"), None);
        assert_eq!(RelabelStrategy::from_tag(9), None);
    }

    #[test]
    fn id_map_translates_both_ways() {
        let m = IdMap {
            perm: Permutation::from_old_of_new(vec![2, 0, 1]),
            strategy: RelabelStrategy::Degree,
        };
        assert_eq!(m.len(), 3);
        assert_eq!(m.original_of_internal(0), 2);
        assert_eq!(m.internal_of_original(2), 0);
        for orig in 0..3 {
            assert_eq!(m.original_of_internal(m.internal_of_original(orig)), orig);
        }
    }

    #[test]
    fn empty_graph_permutations() {
        for s in RelabelStrategy::ALL {
            let p = compute_fixed(&FixedDegreeGraph::from_rows(&[], 1), s);
            assert!(p.is_empty());
            assert!(p.is_identity());
        }
    }
}
