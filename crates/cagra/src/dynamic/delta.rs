//! The delta segment: freshly inserted vectors not yet folded into
//! the main CAGRA graph.
//!
//! It is a flat row block with no structure at all: a search
//! gang-scores every delta row through the batched distance kernel
//! ([`knn::brute::exact_search`]), so the delta's contribution to a
//! result is exact. Compaction bounds the block's size, and at those
//! sizes the scan beats a graph on both the insert and the search side
//! (EXPERIMENTS.md, "Dynamic index").
//!
//! A segment is immutable; [`DeltaSeg::appended`] builds the successor
//! copy-on-write so concurrent readers keep searching the snapshot
//! they cloned. External ids are appended in strictly increasing
//! order (the index's id counter is monotonic), so `ids` is always
//! sorted and membership is a binary search.

use dataset::{Dataset, VectorStore};
use distance::Metric;
use knn::topk::Neighbor;
use std::collections::BTreeSet;

/// An immutable batch of not-yet-compacted rows. See module docs.
#[derive(Debug)]
pub(crate) struct DeltaSeg {
    vecs: Dataset,
    /// External id of each row, strictly ascending.
    ids: Vec<u32>,
}

impl DeltaSeg {
    pub fn empty(dim: usize) -> Self {
        DeltaSeg::from_rows(Vec::new(), Vec::new(), dim)
    }

    /// A segment over `ids.len()` row-major rows in `flat`, already in
    /// ascending id order.
    pub fn from_rows(ids: Vec<u32>, flat: Vec<f32>, dim: usize) -> Self {
        debug_assert!(ids.is_sorted_by(|a, b| a < b), "delta rows must be id-sorted");
        debug_assert_eq!(flat.len(), ids.len() * dim);
        DeltaSeg { vecs: Dataset::from_flat(flat, dim), ids }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    pub fn row(&self, i: usize) -> &[f32] {
        self.vecs.row(i)
    }

    /// Ids and row-major vectors of every row from `from` on (the
    /// suffix a compaction splices; empty when `from >= len`).
    pub fn rows_from(&self, from: usize) -> (&[u32], &[f32]) {
        let dim = self.vecs.dim();
        (
            self.ids.get(from..).unwrap_or_default(),
            self.vecs.as_flat().get(from * dim..).unwrap_or_default(),
        )
    }

    pub fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Copy-on-write append: the successor segment with one more row.
    /// `id` must exceed every stored id (monotonic external ids).
    pub fn appended(&self, id: u32, v: &[f32]) -> Self {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        // ALLOW(alloc): copy-on-write by design — readers of the old
        // segment must never observe the new row. `concat` sizes the
        // successor for the new row up front, so the append is one
        // copy, not copy + regrow.
        let flat = [self.vecs.as_flat(), v].concat();
        let ids = [self.ids.as_slice(), &[id]].concat();
        DeltaSeg::from_rows(ids, flat, self.vecs.dim())
    }

    /// Top-`k` *live* rows for `query` as external-id neighbors,
    /// ascending by `(dist, id)` — exactly the brute-force answer over
    /// the rows not in `masked` (the tombstone set).
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        metric: Metric,
        masked: &BTreeSet<u32>,
    ) -> Vec<Neighbor> {
        if self.ids.is_empty() || k == 0 {
            return Vec::new();
        }
        // Over-fetch so masking cannot starve the merge: at most
        // `masked.len()` of the closest rows can be dead.
        let fetch = (k + masked.len()).min(self.ids.len());
        knn::brute::exact_search(&self.vecs, metric, query, fetch)
            .into_iter()
            .filter_map(|nb| {
                let ext = *self.ids.get(nb.id as usize)?;
                (!masked.contains(&ext)).then_some(Neighbor::new(ext, nb.dist))
            })
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_for(i: usize, dim: usize) -> Vec<f32> {
        (0..dim).map(|d| ((i * dim + d) as f32 * 0.173).sin()).collect()
    }

    /// `n` rows with external ids `0, 2, 4, ..`, grown one append at a
    /// time the way inserts grow the live delta.
    fn grown(n: usize, dim: usize) -> DeltaSeg {
        (0..n).fold(DeltaSeg::empty(dim), |seg, i| seg.appended(i as u32 * 2, &vec_for(i, dim)))
    }

    #[test]
    fn append_is_copy_on_write() {
        let a = grown(3, 4);
        let b = a.appended(100, &[9.0; 4]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
        assert!(b.contains(100) && !a.contains(100));
        assert_eq!(b.rows_from(3), (&[100u32][..], &[9.0f32; 4][..]));
        assert_eq!(b.rows_from(4), (&[][..], &[][..]));
    }

    /// The delta's answer is the brute-force answer over its live
    /// rows, ids and distance bits, at sizes on both sides of one gang
    /// block — including when the `k` closest rows are all tombstoned.
    #[test]
    fn search_equals_exact_search_over_live_rows_bit_for_bit() {
        let (dim, k) = (8, 5);
        for n in [6usize, 127, 128, 600] {
            let seg = grown(n, dim);
            let q = vec_for(n / 2, dim);
            for metric in [Metric::SquaredL2, Metric::Cosine] {
                let unmasked = seg.search(&q, k, metric, &BTreeSet::new());
                // Tombstone every fifth row and the whole unmasked top-k.
                let mut masked: BTreeSet<u32> = seg.ids.iter().copied().step_by(5).collect();
                masked.extend(unmasked.iter().map(|nb| nb.id));
                let live: Vec<usize> = (0..n).filter(|&r| !masked.contains(&seg.ids[r])).collect();
                let flat: Vec<f32> = live.iter().flat_map(|&r| seg.row(r)).copied().collect();
                let want: Vec<(u32, u32)> =
                    knn::brute::exact_search(&Dataset::from_flat(flat, dim), metric, &q, k)
                        .iter()
                        .map(|nb| (seg.ids[live[nb.id as usize]], nb.dist.to_bits()))
                        .collect();
                let got: Vec<(u32, u32)> = seg
                    .search(&q, k, metric, &masked)
                    .iter()
                    .map(|nb| (nb.id, nb.dist.to_bits()))
                    .collect();
                assert_eq!(got, want, "n = {n}, {metric:?}, {} masked", masked.len());
                assert_eq!(got.len(), k.min(live.len()), "masking must not shrink the result");
            }
        }
    }
}
