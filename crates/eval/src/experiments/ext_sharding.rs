//! Extension experiment (paper Sec. IV-C2 / Q-C5 discussion): the
//! multi-GPU sharding deployment.
//!
//! The paper recommends sharding once a dataset exceeds device memory
//! but does not evaluate it; this runner closes that gap. It verifies
//! the two properties that make the recommendation sound: recall is
//! preserved under sharding (every shard is searched, so the true
//! neighbors cannot be missed by partitioning), and simulated
//! multi-device throughput scales with the shard count because each
//! device traverses a smaller graph.

use crate::context::{ExpContext, Workload};
use crate::recall::recall_at_k;
use crate::report::{fmt_qps, Table};
use cagra::build::GraphConfig;
use cagra::search::planner::Mode;
use cagra::search::trace::SearchTrace;
use cagra::{SearchParams, ShardedIndex};
use dataset::presets::PresetName;
use dataset::VectorStore;
use gpu_sim::{search_sharded_traced, simulate_sharded_batch, DeviceSpec, HashPolicy};
use knn::topk::Neighbor;

/// (shards, recall, simulated QPS) rows for one workload.
pub fn measure(wl: &Workload, ctx: &ExpContext, shard_counts: &[usize]) -> Vec<(usize, f64, f64)> {
    let gt = wl.ground_truth(ctx.k);
    let device = DeviceSpec::a100();
    shard_counts
        .iter()
        .map(|&shards| {
            let (index, _) =
                ShardedIndex::build(&wl.base, wl.metric, &GraphConfig::new(wl.degree()), shards);
            let params = SearchParams::for_k(ctx.k);
            let hash = HashPolicy::Forgettable { bits: 11, reset_interval: 1 };
            let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(wl.queries.len());
            let mut shard_traces: Vec<Vec<SearchTrace>> = vec![Vec::new(); shards];
            for qi in 0..wl.queries.len() {
                let q = wl.queries.row(qi);
                let (res, traces) =
                    search_sharded_traced(&index, q, ctx.k, &params, Mode::SingleCta, hash);
                results.push(res);
                for (s, t) in traces.into_iter().enumerate() {
                    shard_traces[s].push(t);
                }
            }
            // Tile each shard's traces up to the batch target.
            let tiled: Vec<Vec<SearchTrace>> = shard_traces
                .iter()
                .map(|ts| (0..ctx.batch_target).map(|i| ts[i % ts.len()].clone()).collect())
                .collect();
            let timing =
                simulate_sharded_batch(&device, &tiled, wl.base.dim(), 4, 8, Mode::SingleCta);
            (shards, recall_at_k(&results, &gt, ctx.k), timing.qps)
        })
        .collect()
}

/// Run on the DEEP-like preset (the paper's scaling dataset).
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&["shards (GPUs)", "recall@10", "QPS (sim, all devices)"]);
    let wl = Workload::load(PresetName::Deep, ctx);
    for (shards, recall, qps) in measure(&wl, ctx, &[1, 2, 4]) {
        t.row(vec![shards.to_string(), format!("{recall:.4}"), fmt_qps(qps)]);
    }
    t.print("Extension — multi-GPU sharding (Sec. IV-C2)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_preserves_recall() {
        let ctx = ExpContext { n: 1200, queries: 25, batch_target: 1000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let rows = measure(&wl, &ctx, &[1, 3]);
        assert!(rows[0].1 > 0.85, "unsharded recall {}", rows[0].1);
        assert!(
            rows[1].1 > rows[0].1 - 0.05,
            "sharded recall {} collapsed vs {}",
            rows[1].1,
            rows[0].1
        );
        assert!(rows.iter().all(|r| r.2 > 0.0));
    }
}
