//! The delta segment: freshly inserted vectors not yet folded into
//! the main CAGRA graph.
//!
//! The rows carry no links at all: a search gang-scores every delta row
//! through the batched distance kernel, exactly as
//! [`knn::brute::exact_search`] would over one flat block, so the
//! delta's contribution to a result is exact. Compaction bounds the
//! segment's size, and at those sizes the scan beats a graph on both the
//! insert and the search side (EXPERIMENTS.md, "Dynamic index").
//!
//! Rows live in fixed-size chunks of [`CHUNK`] rows, each with its
//! external ids. Every chunk but the newest is full ("sealed") and
//! shared by `Arc` between all the snapshots that hold it; the newest
//! ("open") chunk holds the last `len % CHUNK` rows. A segment is
//! immutable: [`DeltaSeg::appended`] builds the successor by copying
//! only the open chunk plus the new row, and once every [`CHUNK`]
//! inserts, when that copy fills up, the list of sealed handles. So an
//! insert costs O(`CHUNK`), not O(delta), and concurrent readers keep
//! searching the snapshot they cloned.
//!
//! External ids are appended in strictly increasing order (the index's
//! id counter is monotonic), so ids ascend across chunks and within
//! each one, and membership is a binary search over the chunks' first
//! ids and then inside one chunk.

use dataset::{Dataset, VectorStore};
use distance::{DistanceOracle, Metric};
use knn::topk::{Neighbor, TopK};
use std::sync::Arc;

/// Rows per chunk: the most an insert copies. Small enough that the
/// copy stays around a microsecond at d = 96, large enough that the
/// per-chunk setup of a search stays a few percent of its scan.
const CHUNK: usize = 64;

/// Up to [`CHUNK`] rows with their external ids (strictly ascending).
#[derive(Debug)]
struct Chunk {
    ids: Vec<u32>,
    vecs: Dataset,
}

impl Chunk {
    fn new(ids: Vec<u32>, flat: Vec<f32>, dim: usize) -> Self {
        debug_assert!(ids.len() <= CHUNK);
        debug_assert!(ids.is_sorted_by(|a, b| a < b), "delta rows must be id-sorted");
        debug_assert_eq!(flat.len(), ids.len() * dim);
        Chunk { ids, vecs: Dataset::from_flat(flat, dim) }
    }

    /// This chunk's rows plus one more: the one copy an insert makes.
    fn with_row(&self, id: u32, v: &[f32]) -> Self {
        // ALLOW(alloc): copy-on-write by design — readers of the old
        // chunk must never observe the new row. `concat` sizes the copy
        // for the new row up front, so the append is one copy, not
        // copy + regrow.
        let flat = [self.vecs.as_flat(), v].concat();
        let ids = [self.ids.as_slice(), &[id]].concat();
        Chunk::new(ids, flat, self.vecs.dim())
    }

    fn first_id(&self) -> Option<u32> {
        self.ids.first().copied()
    }
}

/// An immutable batch of not-yet-compacted rows. See module docs.
#[derive(Debug)]
pub(crate) struct DeltaSeg {
    /// Full chunks, oldest first, each shared with every snapshot that
    /// holds it.
    sealed: Arc<[Arc<Chunk>]>,
    /// The newest `len % CHUNK` rows (empty right after a seal).
    open: Chunk,
}

impl DeltaSeg {
    pub fn empty(dim: usize) -> Self {
        DeltaSeg::from_rows(&[], &[], dim)
    }

    /// A segment over `ids.len()` row-major rows in `flat`, already in
    /// ascending id order (copied into chunks).
    pub fn from_rows(ids: &[u32], flat: &[f32], dim: usize) -> Self {
        debug_assert_eq!(flat.len(), ids.len() * dim);
        let full = ids.len() / CHUNK * CHUNK;
        let (sealed_ids, open_ids) = ids.split_at(full);
        let (sealed_flat, open_flat) = flat.split_at(full * dim);
        let sealed = sealed_ids
            .chunks(CHUNK)
            .zip(sealed_flat.chunks(CHUNK * dim))
            .map(|(ids, flat)| Arc::new(Chunk::new(ids.to_vec(), flat.to_vec(), dim)))
            .collect();
        DeltaSeg { sealed, open: Chunk::new(open_ids.to_vec(), open_flat.to_vec(), dim) }
    }

    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.open.ids.len()
    }

    /// Every non-empty chunk in row order: the sealed ones, then the
    /// open one.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        let open = (!self.open.ids.is_empty()).then_some(&self.open);
        self.sealed.iter().map(|c| &**c).chain(open)
    }

    /// Ids and row-major vectors of every row from `from` on, one
    /// chunk's worth at a time, in row order (the rows compaction
    /// gathers and the suffix it splices; empty when `from >= len`).
    pub fn rows_from(&self, from: usize) -> impl Iterator<Item = (&[u32], &[f32])> {
        self.chunks().enumerate().skip(from / CHUNK).filter_map(move |(c, chunk)| {
            let skip = from.saturating_sub(c * CHUNK);
            let ids = chunk.ids.get(skip..).filter(|ids| !ids.is_empty())?;
            let flat = chunk.vecs.as_flat().get(skip * chunk.vecs.dim()..)?;
            Some((ids, flat))
        })
    }

    pub fn contains(&self, id: u32) -> bool {
        // Only the last chunk starting at or below `id` can hold it.
        let holder = if self.open.first_id().is_some_and(|first| first <= id) {
            Some(&self.open)
        } else {
            let after = self.sealed.partition_point(|c| c.first_id().is_some_and(|f| f <= id));
            after.checked_sub(1).and_then(|c| self.sealed.get(c)).map(|c| &**c)
        };
        holder.is_some_and(|c| c.ids.binary_search(&id).is_ok())
    }

    /// Copy-on-write append: the successor segment with one more row,
    /// sharing every sealed chunk of `self`. `id` must exceed every
    /// stored id (monotonic external ids).
    pub fn appended(&self, id: u32, v: &[f32]) -> Self {
        debug_assert!(self.open.ids.last().or_else(|| self.sealed.last()?.ids.last()) < Some(&id));
        let open = self.open.with_row(id, v);
        if open.ids.len() < CHUNK {
            return DeltaSeg { sealed: Arc::clone(&self.sealed), open };
        }
        // The open chunk just filled: seal it. This copies the list of
        // handles, not the chunks, once per `CHUNK` inserts.
        let dim = self.open.vecs.dim();
        let sealed = self.sealed.iter().cloned().chain([Arc::new(open)]).collect();
        DeltaSeg { sealed, open: Chunk::new(Vec::new(), Vec::new(), dim) }
    }

    /// External id of the row at global position `pos` (chunk-major).
    fn id_at(&self, pos: usize) -> Option<u32> {
        let chunk = match self.sealed.get(pos / CHUNK) {
            Some(c) => &**c,
            None if pos / CHUNK == self.sealed.len() => &self.open,
            None => return None,
        };
        chunk.ids.get(pos % CHUNK).copied()
    }

    /// Top-`k` *live* rows for `query` as external-id neighbors,
    /// ascending by `(dist, id)` — exactly the brute-force answer over
    /// the rows not in `masked` (the tombstones, sorted ascending).
    ///
    /// The chunks are scanned in row order into one top-k keyed by
    /// global row position under [`knn::brute::exact_search`]'s
    /// `d < threshold` filter, and `to_rows` scores a row the same bits
    /// whatever block it sits in, so the answer is the one that
    /// function gives over all the rows as one flat block.
    pub fn search(&self, query: &[f32], k: usize, metric: Metric, masked: &[u32]) -> Vec<Neighbor> {
        let len = self.len();
        if len == 0 || k == 0 {
            return Vec::new();
        }
        // Over-fetch so masking cannot starve the merge: at most
        // `masked.len()` of the closest rows can be dead.
        let fetch = (k + masked.len()).min(len);
        let mut top = TopK::new(fetch);
        // A chunk's rows are scored through their in-chunk positions.
        let mut rows = [0u32; CHUNK];
        rows.iter_mut().zip(0..).for_each(|(r, i)| *r = i);
        let mut dists = [0.0f32; CHUNK];
        let mut prepared = None;
        for (c, chunk) in self.chunks().enumerate() {
            let m = chunk.ids.len();
            let (Some(rows), Some(out)) = (rows.get(..m), dists.get_mut(..m)) else {
                continue;
            };
            let oracle = DistanceOracle::new(&chunk.vecs, metric);
            // Hoisted once: an f32 row store carries no per-store query
            // table, so the query prepared on the first chunk serves all.
            let prepared = prepared.get_or_insert_with(|| oracle.prepare(query));
            oracle.to_rows(prepared, rows, out);
            for (t, &d) in out.iter().enumerate() {
                if d < top.threshold() {
                    top.push(Neighbor::new((c * CHUNK + t) as u32, d));
                }
            }
        }
        top.into_sorted()
            .into_iter()
            .filter_map(|nb| {
                let ext = self.id_at(nb.id as usize)?;
                masked.binary_search(&ext).is_err().then_some(Neighbor::new(ext, nb.dist))
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

    fn ids(seg: &DeltaSeg) -> Vec<u32> {
        seg.rows_from(0).flat_map(|(ids, _)| ids.iter().copied()).collect()
    }

    fn flat(seg: &DeltaSeg, from: usize) -> Vec<f32> {
        seg.rows_from(from).flat_map(|(_, flat)| flat.iter().copied()).collect()
    }

    #[test]
    fn append_is_copy_on_write() {
        let a = grown(3, 4);
        let b = a.appended(100, &[9.0; 4]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
        assert!(b.contains(100) && !a.contains(100));
        assert_eq!(b.rows_from(3).collect::<Vec<_>>(), [(&[100u32][..], &[9.0f32; 4][..])]);
        assert_eq!(b.rows_from(4).count(), 0);
    }

    /// Chunk boundaries are invisible to every reader: rows, ids,
    /// suffixes and membership read the same as one flat block at every
    /// size around a seal.
    #[test]
    fn chunked_rows_read_as_one_flat_block() {
        let dim = 3;
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 3] {
            let seg = grown(n, dim);
            let want_ids: Vec<u32> = (0..n as u32).map(|i| 2 * i).collect();
            let want_flat: Vec<f32> = (0..n).flat_map(|i| vec_for(i, dim)).collect();
            assert_eq!(seg.len(), n);
            assert_eq!(ids(&seg), want_ids, "n = {n}");
            for from in [0, 1, CHUNK - 1, CHUNK, CHUNK + 2, n, n + 5] {
                let tail = want_flat.get(from * dim..).unwrap_or_default();
                assert_eq!(flat(&seg, from), tail, "n = {n}, from = {from}");
            }
            let rebuilt = DeltaSeg::from_rows(&want_ids, &want_flat, dim);
            assert_eq!((rebuilt.len(), ids(&rebuilt)), (n, want_ids.clone()));
            assert_eq!(rebuilt.sealed.len(), seg.sealed.len(), "from_rows seals like appends");
            for id in 0..(2 * n as u32 + 2) {
                assert_eq!(seg.contains(id), id % 2 == 0 && id < 2 * n as u32, "n = {n}, {id}");
                assert_eq!(rebuilt.contains(id), seg.contains(id));
            }
        }
    }

    /// An insert copies at most one chunk: the successor shares every
    /// sealed chunk of its predecessor, and at a seal adds exactly the
    /// one that just filled.
    #[test]
    fn appended_shares_every_sealed_chunk() {
        let dim = 4;
        let mut seg = DeltaSeg::empty(dim);
        for i in 0..3 * CHUNK + 5 {
            let next = seg.appended(i as u32, &vec_for(i, dim));
            assert!(next.sealed.len() - seg.sealed.len() <= 1);
            for (old, new) in seg.sealed.iter().zip(next.sealed.iter()) {
                assert!(Arc::ptr_eq(old, new), "insert {i} copied a sealed chunk");
            }
            if next.sealed.len() == seg.sealed.len() {
                assert!(Arc::ptr_eq(&seg.sealed, &next.sealed), "the handle list is shared");
                assert_eq!(next.open.ids.len(), seg.open.ids.len() + 1);
            } else {
                assert_eq!(next.open.ids.len(), 0, "insert {i} sealed a full chunk");
            }
            seg = next;
        }
    }

    /// A reader holding a segment across a seal keeps answering from
    /// exactly its own rows, while the successor sees the new ones.
    #[test]
    fn a_snapshot_held_across_a_seal_answers_from_its_own_rows() {
        let dim = 4;
        let held = grown(CHUNK - 1, dim);
        let q = vec_for(CHUNK + 2, dim);
        let before: Vec<Neighbor> = held.search(&q, 5, Metric::SquaredL2, &[]);
        let mut seg = held.appended(1000, &q);
        for i in 0..CHUNK + 3 {
            seg = seg.appended(1001 + i as u32, &vec_for(CHUNK + 3 + i, dim));
        }
        assert_eq!(seg.sealed.len(), 2);
        assert_eq!(held.search(&q, 5, Metric::SquaredL2, &[]), before);
        assert_eq!((held.len(), ids(&held)), (CHUNK - 1, ids(&grown(CHUNK - 1, dim))));
        assert!(!held.contains(1000) && seg.contains(1000));
        assert_eq!(seg.search(&q, 1, Metric::SquaredL2, &[])[0], Neighbor::new(1000, 0.0));
    }

    /// The delta's answer is the brute-force answer over its live
    /// rows, ids and distance bits, at sizes around a chunk seal and on
    /// both sides of one `exact_search` gang block (256 rows) —
    /// including when the `k` closest rows are all tombstoned.
    #[test]
    fn search_equals_exact_search_over_live_rows_bit_for_bit() {
        let (dim, k) = (8, 5);
        for n in [0usize, 6, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 127, 128, 600] {
            let seg = grown(n, dim);
            let ids = ids(&seg);
            let rows = flat(&seg, 0);
            let q = vec_for(n / 2, dim);
            for metric in [Metric::SquaredL2, Metric::Cosine] {
                let unmasked = seg.search(&q, k, metric, &[]);
                // Tombstone every fifth row and the whole unmasked top-k.
                let mut masked: Vec<u32> = ids.iter().copied().step_by(5).collect();
                masked.extend(unmasked.iter().map(|nb| nb.id));
                masked.sort_unstable();
                masked.dedup();
                let live: Vec<usize> =
                    (0..n).filter(|&r| masked.binary_search(&ids[r]).is_err()).collect();
                let live_flat: Vec<f32> =
                    live.iter().flat_map(|&r| &rows[r * dim..(r + 1) * dim]).copied().collect();
                let want: Vec<(u32, u32)> = if live.is_empty() {
                    Vec::new()
                } else {
                    knn::brute::exact_search(&Dataset::from_flat(live_flat, dim), metric, &q, k)
                        .iter()
                        .map(|nb| (ids[live[nb.id as usize]], nb.dist.to_bits()))
                        .collect()
                };
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
