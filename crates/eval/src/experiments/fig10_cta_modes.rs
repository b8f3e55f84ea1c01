//! Fig. 10: single-CTA vs multi-CTA, for a single query (top) and a
//! large batch (bottom).
//!
//! Paper claims to reproduce: at batch 1 multi-CTA wins on both
//! datasets; at batch 10k single-CTA generally wins, except when very
//! high recall (large itopk) is required on the harder dataset, where
//! multi-CTA overtakes.

use crate::context::{ExpContext, Workload};
use crate::experiments::{build_cagra, itopk_sweep};
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, CurvePoint};
use cagra::search::planner::Mode;
use dataset::presets::PresetName;
use gpu_sim::HashPolicy;

/// Run both regimes on DEEP-like and GloVe-like data.
pub fn run(ctx: &ExpContext) {
    for (regime, single_query) in [("single query", true), ("large batch", false)] {
        let mut t = Table::new(&["dataset", "mode", "itopk", "recall@10", "QPS (sim)"]);
        for preset in [PresetName::Deep, PresetName::Glove] {
            let wl = Workload::load(preset, ctx);
            for (label, curve) in curves(&wl, ctx, single_query) {
                for p in curve {
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
        t.print(&format!("Fig. 10 — single- vs multi-CTA ({regime})"));
    }
}

/// Single- and multi-CTA curves for one workload and regime. Table II:
/// single-CTA pairs with the forgettable shared-memory hash, multi-CTA
/// with the standard device-memory hash.
pub fn curves(
    wl: &Workload,
    ctx: &ExpContext,
    single_query: bool,
) -> Vec<(&'static str, Vec<CurvePoint>)> {
    let (index, _) = build_cagra(wl);
    let sweep = itopk_sweep(ctx.k, 256);
    vec![
        (
            "single-CTA",
            cagra_curve(
                &index,
                wl,
                ctx.k,
                &sweep,
                Mode::SingleCta,
                HashPolicy::Forgettable { bits: 11, reset_interval: 1 },
                8,
                4,
                ctx.batch_target,
                single_query,
            ),
        ),
        (
            "multi-CTA",
            cagra_curve(
                &index,
                wl,
                ctx.k,
                &sweep,
                Mode::MultiCta,
                HashPolicy::Standard,
                8,
                4,
                ctx.batch_target,
                single_query,
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::qps_at_recall;

    #[test]
    fn multi_cta_wins_single_query_single_cta_wins_large_batch() {
        let ctx = ExpContext { n: 900, queries: 20, batch_target: 5000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);

        let single_q = curves(&wl, &ctx, true);
        let floor = 0.9;
        let sc = qps_at_recall(&single_q[0].1, floor, true);
        let mc = qps_at_recall(&single_q[1].1, floor, true);
        assert!(mc > sc, "batch=1: multi-CTA {mc} must beat single-CTA {sc}");

        let batch = curves(&wl, &ctx, false);
        let sc = qps_at_recall(&batch[0].1, floor, true);
        let mc = qps_at_recall(&batch[1].1, floor, true);
        assert!(sc > mc, "batch=10k: single-CTA {sc} must beat multi-CTA {mc}");
    }
}
