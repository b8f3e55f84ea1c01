//! Multi-GPU sharding (Sec. IV-C2 and Q-C5 of the paper).
//!
//! For datasets larger than one device's memory the paper recommends
//! "a simple multi-GPU sharding technique ... where each GPU is
//! assigned to process one sub-graph independently". This module
//! implements it: the dataset is split into contiguous shards, an
//! independent CAGRA graph is built per shard (exactly the
//! GGNN-style independent sub-graph construction the paper describes),
//! every query searches all shards, and the per-shard top-k lists are
//! merged. Shard-local node ids are translated back to global ids.

use crate::build::{BuildReport, GraphConfig};
use crate::mmap::MmapVectors;
use crate::params::SearchParams;
use crate::search::index::CagraIndex;
use crate::search::planner::Mode;
use dataset::pq::{PqCodebook, PqConfig, PqStore};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use knn::topk::{cmp_neighbor, Neighbor};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// A collection of independent per-shard CAGRA indexes. The shard
/// store type is generic: `Dataset` (f32, the default) for in-memory
/// shards, `PqStore` for compressed shards built by
/// [`ShardedIndex::build_pq`].
pub struct ShardedIndex<S = Dataset> {
    shards: Vec<CagraIndex<S>>,
    /// Global id of each shard's first vector.
    offsets: Vec<u32>,
    metric: Metric,
}

/// Gather shard rows `[start, end)` of any store into an f32 dataset.
fn gather_shard<S: VectorStore>(store: &S, start: usize, end: usize) -> Dataset {
    let dim = store.dim();
    let mut row = vec![0.0f32; dim];
    let mut flat = Vec::with_capacity((end - start) * dim);
    for i in start..end {
        store.get_into(i, &mut row);
        flat.extend_from_slice(&row);
    }
    Dataset::from_flat(flat, dim)
}

/// Validate the shard count and return the shard length.
fn shard_len_for(n: usize, num_shards: usize, config: &GraphConfig) -> usize {
    assert!(num_shards > 0, "need at least one shard");
    let shard_len = n.div_ceil(num_shards);
    assert!(
        shard_len > config.d_init(),
        "shards of {shard_len} vectors cannot support d_init = {}",
        config.d_init()
    );
    shard_len
}

impl ShardedIndex<Dataset> {
    /// Split `store` into `num_shards` contiguous shards and build one
    /// CAGRA graph per shard. Returns the index and the per-shard
    /// build reports.
    ///
    /// # Panics
    /// Panics if a shard would be too small for the configured degree
    /// (`shard_len <= d_init`).
    pub fn build<S: VectorStore>(
        store: &S,
        metric: Metric,
        config: &GraphConfig,
        num_shards: usize,
    ) -> (Self, Vec<BuildReport>) {
        let n = store.len();
        let shard_len = shard_len_for(n, num_shards, config);
        let mut shards = Vec::with_capacity(num_shards);
        let mut offsets = Vec::with_capacity(num_shards);
        let mut reports = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        while start < n {
            let end = (start + shard_len).min(n);
            let shard_store = gather_shard(store, start, end);
            let (index, report) = CagraIndex::build(shard_store, metric, config);
            shards.push(index);
            offsets.push(start as u32);
            reports.push(report);
            start = end;
        }
        (ShardedIndex { shards, offsets, metric }, reports)
    }
}

impl ShardedIndex<PqStore> {
    /// Build a sharded **product-quantized** index — the multi-million
    /// point configuration: one *global* codebook is trained on a
    /// deterministic sample of the whole store, then each shard builds
    /// its graph on transient f32 rows, encodes them to `m`-byte PQ
    /// codes, and spills the f32 rows to
    /// `spill_dir/shard_NNNN.f32` — memory-mapped back as the shard's
    /// two-phase rerank source ([`MmapVectors`]). Steady-state
    /// residency is `m` bytes per vector plus the graph; the peak is
    /// one shard of f32 during its build.
    ///
    /// A single codebook across shards keeps every shard's distances
    /// in the same quantized space, so the merged top-k is consistent,
    /// and the codebook is stored once.
    ///
    /// # Panics
    /// Panics if a shard would be too small for the configured degree.
    pub fn build_pq<S: VectorStore>(
        store: &S,
        metric: Metric,
        config: &GraphConfig,
        num_shards: usize,
        pq: &PqConfig,
        spill_dir: &Path,
    ) -> io::Result<(Self, Vec<BuildReport>)> {
        let n = store.len();
        let shard_len = shard_len_for(n, num_shards, config);
        std::fs::create_dir_all(spill_dir)?;
        let codebook = Arc::new(PqCodebook::train(store, pq));
        let mut shards = Vec::with_capacity(num_shards);
        let mut offsets = Vec::with_capacity(num_shards);
        let mut reports = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        while start < n {
            let end = (start + shard_len).min(n);
            let full = gather_shard(store, start, end);
            // Graph quality comes from exact f32 distances; the PQ
            // store only serves search-time traversal.
            let (graph, report) = crate::build::build_graph(&full, metric, config);
            let pq_store = PqStore::encode(Arc::clone(&codebook), &full);
            let path = spill_dir.join(format!("shard_{:04}.f32", shards.len()));
            let mut w = io::BufWriter::new(std::fs::File::create(&path)?);
            for chunk in full.as_flat() {
                w.write_all(&chunk.to_le_bytes())?;
            }
            w.flush()?;
            drop(w);
            drop(full);
            let vectors = MmapVectors::open(&path, 0, end - start, store.dim())?;
            let mut index = CagraIndex::from_parts(pq_store, graph, metric);
            index.set_rerank_store(Box::new(vectors));
            shards.push(index);
            offsets.push(start as u32);
            reports.push(report);
            start = end;
        }
        Ok((ShardedIndex { shards, offsets, metric }, reports))
    }

    /// The codebook shared by every shard.
    pub fn codebook(&self) -> &Arc<PqCodebook> {
        self.shards[0].store().codebook()
    }
}

impl<S: VectorStore> ShardedIndex<S> {
    /// Number of shards (devices in the paper's deployment).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of indexed vectors.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.store().len()).sum()
    }

    /// True when the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The metric shared by every shard.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Resident bytes per vector across shard stores (PQ shards
    /// report `m`; the mmap'd rerank rows are file-backed and count
    /// zero).
    pub fn bytes_per_vector(&self) -> usize {
        self.shards.first().map_or(0, |s| {
            s.store().bytes_per_vector() + s.rerank_store().map_or(0, |r| r.bytes_per_vector())
        })
    }

    /// Borrow one shard's index (e.g. to route it to a device model).
    pub fn shard(&self, i: usize) -> &CagraIndex<S> {
        &self.shards[i]
    }

    /// Search all shards and merge the global top-k. Each shard uses
    /// the given mapping; on real hardware the shards run on separate
    /// GPUs concurrently, so the latency is the slowest shard, not the
    /// sum (the `gpu-sim` multi-device helper accounts for that).
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        mode: Mode,
    ) -> Vec<Neighbor> {
        self.search_each(k, |s| (s.search_one(query, k, params, mode, false).results, ())).0
    }

    /// Run `search` on every shard, translate each shard's results to
    /// global ids and keep the best `k`, beside what else each shard's
    /// search returned.
    #[doc(hidden)]
    pub fn search_each<T>(
        &self,
        k: usize,
        search: impl FnMut(&CagraIndex<S>) -> (Vec<Neighbor>, T),
    ) -> (Vec<Neighbor>, Vec<T>) {
        let (per_shard, extras): (Vec<_>, Vec<_>) = self.shards.iter().map(search).unzip();
        let mut all: Vec<Neighbor> = Vec::with_capacity(k * self.shards.len());
        for (results, &offset) in per_shard.into_iter().zip(&self.offsets) {
            all.extend(results.into_iter().map(|n| Neighbor::new(n.id + offset, n.dist)));
        }
        all.sort_unstable_by(cmp_neighbor);
        all.truncate(k);
        (all, extras)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::exact_search;

    fn workload() -> (Dataset, Dataset) {
        SynthSpec { dim: 8, n: 2400, queries: 25, family: Family::Gaussian, seed: 77 }.generate()
    }

    #[test]
    fn sharded_search_merges_global_ids() {
        let (base, queries) = workload();
        let (sharded, reports) =
            ShardedIndex::build(&base, Metric::SquaredL2, &GraphConfig::new(8), 3);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.len(), 2400);
        assert_eq!(reports.len(), 3);

        let params = SearchParams::for_k(10);
        let mut hits = 0usize;
        for qi in 0..queries.len() {
            let got = sharded.search(queries.row(qi), 10, &params, Mode::SingleCta);
            assert_eq!(got.len(), 10);
            assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
            assert!(got.iter().all(|n| (n.id as usize) < 2400), "global id out of range");
            let want = exact_search(&base, Metric::SquaredL2, queries.row(qi), 10);
            let want_ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
            hits += got.iter().filter(|n| want_ids.contains(&n.id)).count();
        }
        let recall = hits as f64 / (queries.len() * 10) as f64;
        assert!(recall > 0.9, "sharded recall@10 = {recall}");
    }

    #[test]
    fn single_shard_matches_unsharded_results() {
        let (base, queries) = workload();
        let (sharded, _) = ShardedIndex::build(&base, Metric::SquaredL2, &GraphConfig::new(8), 1);
        let (index, _) = CagraIndex::build(
            Dataset::from_flat(base.as_flat().to_vec(), base.dim()),
            Metric::SquaredL2,
            &GraphConfig::new(8),
        );
        let params = SearchParams::for_k(5);
        let a = sharded.search(queries.row(0), 5, &params, Mode::SingleCta);
        let (b, _) = index.search_mode(queries.row(0), 5, &params, Mode::SingleCta);
        assert_eq!(a, b);
    }

    #[test]
    fn shard_distances_are_true_global_distances() {
        // Merging is only correct if per-shard distances are computed
        // in the same space; verify against the oracle.
        let (base, queries) = workload();
        let (sharded, _) = ShardedIndex::build(&base, Metric::SquaredL2, &GraphConfig::new(8), 4);
        let got = sharded.search(queries.row(1), 5, &SearchParams::for_k(5), Mode::SingleCta);
        for n in got {
            let d = distance::Metric::SquaredL2.distance(queries.row(1), base.row(n.id as usize));
            assert!((d - n.dist).abs() < 1e-4, "id {} dist {} vs true {d}", n.id, n.dist);
        }
    }

    #[test]
    #[should_panic(expected = "cannot support")]
    fn too_many_shards_rejected() {
        let (base, _) = workload();
        let _ = ShardedIndex::build(&base, Metric::SquaredL2, &GraphConfig::new(32), 64);
    }

    #[test]
    fn pq_shards_share_one_codebook_and_rerank_to_high_recall() {
        let (base, queries) = workload();
        let dir = std::env::temp_dir().join(format!("cagra_shard_pq_{}", std::process::id()));
        let (sharded, reports) = ShardedIndex::build_pq(
            &base,
            Metric::SquaredL2,
            &GraphConfig::new(8),
            3,
            &dataset::pq::PqConfig::new(4),
            &dir,
        )
        .unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.len(), 2400);
        assert_eq!(reports.len(), 3);
        // One codebook instance across shards.
        assert!(Arc::ptr_eq(
            sharded.shard(0).store().codebook(),
            sharded.shard(2).store().codebook()
        ));
        // Residency: m bytes per vector (+0 for the mapped rerank rows
        // on unix) — far below the 32 f32 bytes.
        assert!(
            sharded.bytes_per_vector() * 4 <= base.bytes_per_vector(),
            "PQ shards resident {} B/vec vs f32 {} B/vec",
            sharded.bytes_per_vector(),
            base.bytes_per_vector()
        );
        let mut params = SearchParams::for_k(10);
        params.itopk = 128;
        params.rerank_depth = 64;
        let mut hits = 0usize;
        for qi in 0..queries.len() {
            let got = sharded.search(queries.row(qi), 10, &params, Mode::SingleCta);
            assert_eq!(got.len(), 10);
            // Reranked distances are exact f32 distances in global ids.
            for n in &got {
                let d = Metric::SquaredL2.distance(queries.row(qi), base.row(n.id as usize));
                assert_eq!(n.dist, d, "query {qi} id {}", n.id);
            }
            let want = exact_search(&base, Metric::SquaredL2, queries.row(qi), 10);
            let want_ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
            hits += got.iter().filter(|n| want_ids.contains(&n.id)).count();
        }
        let recall = hits as f64 / (queries.len() * 10) as f64;
        assert!(recall > 0.9, "sharded PQ+rerank recall@10 = {recall}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
