//! Exact (brute force) k-NN — the ground-truth oracle for recall.
//!
//! This is the "simplest exact solution" the paper's introduction
//! describes: compute every query-to-dataset distance and keep the
//! top-k. Parallel over queries, and tiled over queries × data rows
//! when there are many queries.

use crate::parallel::{default_threads, parallel_fill_chunks};
use crate::topk::{Neighbor, TopK};
use dataset::VectorStore;
use distance::{DistanceOracle, Metric, PreparedQuery};

/// Rows scored per batched `to_rows` call in the scan loops, and the
/// most rows in one block of the tiled scans: big enough to amortize
/// metric dispatch.
pub(crate) const GANG: usize = 256;

/// Exact top-k for one query.
///
/// Scans the dataset in [`GANG`]-row blocks through the batched
/// distance kernel, so metric/layout dispatch and the cosine query
/// norm are paid once per block, not once per row.
pub fn exact_search<S: VectorStore + ?Sized>(
    store: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
) -> Vec<Neighbor> {
    assert_eq!(query.len(), store.dim(), "query dimension mismatch");
    let oracle = DistanceOracle::new(store, metric);
    let mut tile = [(oracle.prepare(query), TopK::new(k.max(1)))];
    scan_rows(&oracle, &mut tile, GANG);
    let [(_, top)] = tile;
    top.into_sorted()
}

/// Score every row of the oracle's store for each query of `tile`,
/// `block` rows at a time in ascending id order, keeping each query's
/// best under the `d < threshold` prefilter. Ascending ids are what
/// make that strict prefilter agree with `(dist, id)` order on ties.
fn scan_rows<S: VectorStore + ?Sized>(
    oracle: &DistanceOracle<'_, S>,
    tile: &mut [(PreparedQuery<'_>, TopK)],
    block: usize,
) {
    let n = oracle.store().len();
    let mut ids: Vec<u32> = Vec::with_capacity(block);
    let mut dists = vec![0.0f32; block];
    for u0 in (0..n).step_by(block) {
        ids.clear();
        ids.extend(u0 as u32..(u0 + block).min(n) as u32);
        let dists = &mut dists[..ids.len()];
        for (prepared, top) in tile.iter_mut() {
            oracle.to_rows(prepared, &ids, dists);
            for (&u, &d) in ids.iter().zip(dists.iter()) {
                if d < top.threshold() {
                    top.push(Neighbor::new(u, d));
                }
            }
        }
    }
}

/// Queries per tile of [`ground_truth`].
const QUERY_TILE: usize = 64;
/// Bytes of data rows per block of [`ground_truth`]: half of a 48 KiB
/// L1d, so a block stays resident while a tile's queries stream over it.
const BLOCK_BYTES: usize = 24 * 1024;

/// Exact top-k neighbor ids for every query, parallel over queries.
/// Returns one ascending-distance id list per query (rows may be
/// shorter than `k` when the dataset has fewer than `k` vectors).
///
/// Each query's list equals [`exact_search`]'s: the same walk, tiled —
/// [`QUERY_TILE`] queries against an L1-sized block of data rows — so
/// the dataset streams from memory once per query tile, not once per
/// query.
pub fn ground_truth<S, Q>(store: &S, metric: Metric, queries: &Q, k: usize) -> Vec<Vec<u32>>
where
    S: VectorStore + ?Sized,
    Q: VectorStore + ?Sized,
{
    let dim = queries.dim();
    assert_eq!(dim, store.dim(), "query dimension mismatch");
    let block = (BLOCK_BYTES / (4 * dim.max(1))).clamp(8, GANG);
    let mut out = vec![Vec::new(); queries.len()];
    parallel_fill_chunks(&mut out, queries.len(), 1, default_threads(), |start, end, lists| {
        let oracle = DistanceOracle::new(store, metric);
        let mut rows = vec![0.0f32; QUERY_TILE * dim];
        for q0 in (start..end).step_by(QUERY_TILE) {
            let q1 = (q0 + QUERY_TILE).min(end);
            for (qi, row) in (q0..q1).zip(rows.chunks_exact_mut(dim.max(1))) {
                queries.get_into(qi, row);
            }
            let mut tile: Vec<_> = (0..q1 - q0)
                .map(|t| (oracle.prepare(&rows[t * dim..(t + 1) * dim]), TopK::new(k.max(1))))
                .collect();
            scan_rows(&oracle, &mut tile, block);
            for ((_, top), list) in tile.into_iter().zip(&mut lists[q0 - start..]) {
                *list = top.into_sorted().into_iter().map(|n| n.id).collect();
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::Dataset;

    fn line_dataset() -> Dataset {
        // Points at x = 0, 1, 2, ..., 9 on a 1-D line.
        Dataset::from_flat((0..10).map(|i| i as f32).collect(), 1)
    }

    #[test]
    fn finds_nearest_on_a_line() {
        let d = line_dataset();
        let out = exact_search(&d, Metric::SquaredL2, &[3.2], 3);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!(out.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn k_larger_than_dataset() {
        let d = line_dataset();
        let out = exact_search(&d, Metric::SquaredL2, &[0.0], 100);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    fn ground_truth_batches_match_single() {
        let d = line_dataset();
        let queries = Dataset::from_flat(vec![3.2, 8.9], 1);
        let gt = ground_truth(&d, Metric::SquaredL2, &queries, 2);
        assert_eq!(gt, vec![vec![3, 4], vec![9, 8]]);
    }

    /// The tiled batch equals one [`exact_search`] per query, ties
    /// included: base rows repeat, so many distances tie exactly and
    /// the id order decides who stays.
    #[test]
    fn ground_truth_equals_exact_search_per_query_on_ties() {
        use dataset::synth::{Family, SynthSpec};
        let (n, dim) = (700usize, 9usize);
        let spec = SynthSpec { dim, n, queries: 150, family: Family::Gaussian, seed: 8 };
        let (base, queries) = spec.generate();
        let mut flat = base.as_flat().to_vec();
        for v in (0..n).step_by(3) {
            flat.copy_within((v / 3 % 10) * dim..(v / 3 % 10 + 1) * dim, v * dim);
        }
        let base = Dataset::from_flat(flat, dim);
        for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            let gt = ground_truth(&base, metric, &queries, 12);
            for (qi, got) in gt.iter().enumerate() {
                let want: Vec<u32> = exact_search(&base, metric, queries.row(qi), 12)
                    .into_iter()
                    .map(|nb| nb.id)
                    .collect();
                assert_eq!(got, &want, "{metric:?} query {qi}");
            }
        }
    }

    #[test]
    fn works_under_inner_product() {
        let d = Dataset::from_flat(vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.0], 2);
        let out = exact_search(&d, Metric::InnerProduct, &[1.0, 0.0], 1);
        assert_eq!(out[0].id, 0); // largest dot product
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn query_dim_checked() {
        exact_search(&line_dataset(), Metric::SquaredL2, &[1.0, 2.0], 1);
    }
}
