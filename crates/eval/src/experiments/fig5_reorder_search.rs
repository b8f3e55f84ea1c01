//! Fig. 5: search performance of graphs optimized with rank-based vs
//! distance-based reordering.
//!
//! Paper claim to reproduce: the recall↔throughput balance is nearly
//! identical — the cheap rank approximation costs no search quality.

use crate::context::{ExpContext, Workload};
use crate::experiments::itopk_sweep;
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, CurvePoint};
use cagra::build::GraphConfig;
use cagra::params::ReorderStrategy;
use cagra::search::planner::Mode;
use cagra::CagraIndex;
use dataset::presets::PresetName;
use dataset::Dataset;
use dataset::VectorStore;
use gpu_sim::HashPolicy;

/// Compare the two strategies' recall↔QPS curves.
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&["dataset", "strategy", "itopk", "recall@10", "QPS (sim)"]);
    for preset in [PresetName::Sift, PresetName::Glove] {
        let wl = Workload::load(preset, ctx);
        for (label, strategy) in
            [("rank", ReorderStrategy::RankBased), ("distance", ReorderStrategy::DistanceBased)]
        {
            for p in curve(&wl, strategy, ctx) {
                t.row(vec![
                    preset.label().to_string(),
                    label.to_string(),
                    p.param.to_string(),
                    format!("{:.4}", p.recall),
                    fmt_qps(p.qps_sim),
                ]);
            }
        }
    }
    t.print("Fig. 5 — search quality: rank- vs distance-based graphs");
}

/// The recall↔QPS curve of a graph built with `strategy`.
pub fn curve(wl: &Workload, strategy: ReorderStrategy, ctx: &ExpContext) -> Vec<CurvePoint> {
    let base = Dataset::from_flat(wl.base.as_flat().to_vec(), wl.base.dim());
    let config = GraphConfig { strategy, ..GraphConfig::new(wl.degree()) };
    let (index, _) = CagraIndex::build(base, wl.metric, &config);
    cagra_curve(
        &index,
        wl,
        ctx.k,
        &itopk_sweep(ctx.k, 256),
        Mode::SingleCta,
        HashPolicy::Forgettable { bits: 11, reset_interval: 1 },
        8,
        4,
        ctx.batch_target,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_reach_similar_recall() {
        let ctx = ExpContext { n: 800, queries: 30, batch_target: 500, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let rank = curve(&wl, ReorderStrategy::RankBased, &ctx);
        let dist = curve(&wl, ReorderStrategy::DistanceBased, &ctx);
        let best_rank = rank.iter().map(|p| p.recall).fold(0.0, f64::max);
        let best_dist = dist.iter().map(|p| p.recall).fold(0.0, f64::max);
        assert!(
            (best_rank - best_dist).abs() < 0.1,
            "rank {best_rank} vs distance {best_dist} recall should be compatible"
        );
        assert!(best_rank > 0.8, "rank-based best recall {best_rank}");
    }
}
