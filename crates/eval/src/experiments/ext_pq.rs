//! Extension experiment: product-quantized storage with two-phase
//! search (the 10M+-vector configuration of Q-C5).
//!
//! The paper's largest runs hold every f32 vector in device memory;
//! past ~10M vectors that stops fitting. This runner measures the
//! compressed deployment: a sharded index whose shards store `m`-byte
//! PQ codes, traverse under LUT-based asymmetric distances, and
//! rerank the top candidates against full-precision rows memory-mapped
//! from the per-shard spill files. The sweep varies `itopk` and
//! `rerank_depth` to chart the recall the second phase buys back, and
//! the report records resident bytes per vector next to the f32
//! baseline so the memory win is explicit.

use crate::context::{ExpContext, Workload};
use crate::experiments::itopk_sweep;
use crate::recall::recall_at_k;
use crate::report::{fmt_qps, Table};
use cagra::build::GraphConfig;
use cagra::search::planner::Mode;
use cagra::{SearchParams, ShardedIndex};
use dataset::pq::PqConfig;
use dataset::presets::PresetName;
use dataset::VectorStore;
use knn::topk::Neighbor;
use std::time::Instant;

/// Vectors per shard; `ceil(n / SHARD_CAP)` shards keeps the transient
/// f32 build working set bounded regardless of total dataset size.
const SHARD_CAP: usize = 65_536;

/// One sweep point of the (itopk, rerank_depth) grid.
pub struct PqRow {
    /// Internal top-k of the approximate traversal phase.
    pub itopk: usize,
    /// Exact-rerank candidate count (0 = single-phase, PQ only).
    pub rerank_depth: usize,
    /// recall@k against the exact f32 ground truth.
    pub recall: f64,
    /// Wall-clock QPS over the whole sharded index.
    pub qps: f64,
}

/// Everything `run` prints (and tests assert on) for one workload.
pub struct PqReport {
    /// Shard count used (`ceil(n / SHARD_CAP)`).
    pub shards: usize,
    /// Resident bytes per vector of the PQ index (codes + mapped
    /// rerank rows, which count zero when actually mmap'd).
    pub bytes_per_vector: usize,
    /// Resident bytes per vector of the uncompressed baseline.
    pub f32_bytes_per_vector: usize,
    /// The sweep grid.
    pub rows: Vec<PqRow>,
}

/// Finest subspace split that keeps at least 4 dims per subspace —
/// coarser splits (fewer, wider subspaces) lose too much fidelity for
/// the traversal beam to retain the true neighbors, and no rerank
/// depth can recover a candidate the first phase never kept.
pub(crate) fn pq_m(dim: usize) -> usize {
    (1..=dim / 4).rev().find(|&m| dim.is_multiple_of(m)).unwrap_or(1)
}

/// `CAGRA_PQ_M` override for the subspace count: any `1..=dim` value
/// is accepted — `PqConfig` handles non-dividing splits — falling
/// back to [`pq_m`] when unset/invalid.
fn pq_m_for(dim: usize) -> usize {
    std::env::var("CAGRA_PQ_M")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&m| (1..=dim).contains(&m))
        .unwrap_or_else(|| pq_m(dim))
}

/// Build the sharded PQ index for a workload (spilling f32 rows under
/// the system temp dir) and sweep (itopk × rerank_depth).
pub fn measure(wl: &Workload, ctx: &ExpContext) -> PqReport {
    let shards = wl.base.len().div_ceil(SHARD_CAP).max(1);
    let dir = std::env::temp_dir().join(format!(
        "cagra_ext_pq_{}_{}d",
        std::process::id(),
        wl.base.dim()
    ));
    let (index, _) = ShardedIndex::build_pq(
        &wl.base,
        wl.metric,
        &GraphConfig::new(wl.degree()),
        shards,
        &PqConfig::new(pq_m_for(wl.base.dim())),
        &dir,
    )
    .expect("PQ spill dir must be writable");
    let gt = wl.ground_truth(ctx.k);
    let mut rows: Vec<PqRow> = Vec::new();
    // Quantization error reorders neighbors more at density (beam
    // coverage drops as shards multiply), so million-point runs get a
    // wider itopk range to chart where rerank recovers recall.
    let max_itopk = if wl.base.len() >= 100_000 { 512 } else { 128 };
    for itopk in itopk_sweep(ctx.k, max_itopk) {
        for depth in [0, itopk / 2, itopk] {
            // A nonzero depth must cover k; dedup after clamping.
            let depth = if depth == 0 { 0 } else { depth.max(ctx.k) };
            if rows.iter().any(|r| r.itopk == itopk && r.rerank_depth == depth) {
                continue;
            }
            let mut params = SearchParams::for_k(ctx.k);
            params.itopk = itopk;
            params.rerank_depth = depth;
            let t0 = Instant::now();
            let results: Vec<Vec<Neighbor>> = (0..wl.queries.len())
                .map(|qi| index.search(wl.queries.row(qi), ctx.k, &params, Mode::SingleCta))
                .collect();
            let wall = t0.elapsed().as_secs_f64();
            rows.push(PqRow {
                itopk,
                rerank_depth: depth,
                recall: recall_at_k(&results, &gt, ctx.k),
                qps: wl.queries.len() as f64 / wall,
            });
        }
    }
    let report = PqReport {
        shards,
        bytes_per_vector: index.bytes_per_vector(),
        f32_bytes_per_vector: wl.base.bytes_per_vector(),
        rows,
    };
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Run on the DEEP-like preset (the paper's scaling dataset — and the
/// billion-scale family PQ deployments target in practice).
pub fn run(ctx: &ExpContext) {
    let wl = Workload::load(PresetName::Deep, ctx);
    let r = measure(&wl, ctx);
    let mut t = Table::new(&["itopk", "rerank depth", "recall@10", "QPS", "resident B/vec"]);
    for row in &r.rows {
        t.row(vec![
            row.itopk.to_string(),
            if row.rerank_depth == 0 { "off".to_string() } else { row.rerank_depth.to_string() },
            format!("{:.4}", row.recall),
            fmt_qps(row.qps),
            format!("{} (f32: {})", r.bytes_per_vector, r.f32_bytes_per_vector),
        ]);
    }
    t.print(&format!(
        "Extension — PQ two-phase search ({} shards, {}x compression)",
        r.shards,
        r.f32_bytes_per_vector / r.bytes_per_vector.max(1)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagra::ShardedIndex;

    /// Satellite acceptance: on clustered synth data, two-phase search
    /// holds recall@10 within 1% of the same traversal over an exact
    /// f32 store — the rerank phase recovers what quantization lost.
    #[test]
    fn two_phase_recall_matches_exact_store_within_one_percent() {
        let ctx = ExpContext { n: 1500, queries: 30, batch_target: 1000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Glove, &ctx);
        let gt = wl.ground_truth(ctx.k);
        let mut params = SearchParams::for_k(ctx.k);
        params.itopk = 128;

        let config = GraphConfig::new(wl.degree());
        let (exact, _) = ShardedIndex::build(&wl.base, wl.metric, &config, 2);
        let exact_results: Vec<Vec<Neighbor>> = (0..wl.queries.len())
            .map(|qi| exact.search(wl.queries.row(qi), ctx.k, &params, Mode::SingleCta))
            .collect();
        let exact_recall = recall_at_k(&exact_results, &gt, ctx.k);
        assert!(exact_recall > 0.8, "exact-store baseline recall {exact_recall}");

        let dir = std::env::temp_dir().join(format!("cagra_ext_pq_floor_{}", std::process::id()));
        let (pq, _) = ShardedIndex::build_pq(
            &wl.base,
            wl.metric,
            &config,
            2,
            &PqConfig::new(pq_m(wl.base.dim())),
            &dir,
        )
        .unwrap();
        // Compression is the point: under a quarter of f32 residency.
        assert!(
            pq.bytes_per_vector() * 4 <= wl.base.bytes_per_vector(),
            "PQ resident {} B/vec vs f32 {} B/vec",
            pq.bytes_per_vector(),
            wl.base.bytes_per_vector()
        );
        params.rerank_depth = 128;
        let pq_results: Vec<Vec<Neighbor>> = (0..wl.queries.len())
            .map(|qi| pq.search(wl.queries.row(qi), ctx.k, &params, Mode::SingleCta))
            .collect();
        let pq_recall = recall_at_k(&pq_results, &gt, ctx.k);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            pq_recall >= exact_recall - 0.01,
            "two-phase recall {pq_recall} fell below exact-store {exact_recall} - 1%"
        );
    }

    #[test]
    fn pq_m_divides_common_dims() {
        for dim in [96, 128, 200, 256, 960, 25, 67] {
            let m = pq_m(dim);
            assert_eq!(dim % m, 0, "m {m} for dim {dim}");
            assert!(m == 1 || dim / m >= 4, "subspace too narrow for dim {dim}");
        }
        assert_eq!(pq_m(96), 24);
        assert_eq!(pq_m(200), 50);
        assert_eq!(pq_m(67), 1);
    }
}
