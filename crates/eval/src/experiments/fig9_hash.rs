//! Fig. 9: forgettable vs standard hash table management.
//!
//! Paper claims to reproduce: the forgettable (small, periodically
//! reset, shared-memory) table reaches compatible-or-better throughput
//! than the standard device-memory table without catastrophic recall
//! loss; the gain is smaller on larger-dimension data (GloVe) where
//! distance math dominates hash overhead.

use crate::context::{ExpContext, Workload};
use crate::experiments::{build_cagra, itopk_sweep};
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, CurvePoint};
use cagra::search::planner::Mode;
use dataset::presets::PresetName;
use gpu_sim::HashPolicy;

/// Compare both policies on DEEP-like and GloVe-like data.
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&["dataset", "hash", "itopk", "recall@10", "QPS (sim)"]);
    for preset in [PresetName::Deep, PresetName::Glove] {
        let wl = Workload::load(preset, ctx);
        for (label, curve) in curves(&wl, ctx) {
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
    t.print("Fig. 9 — forgettable vs standard hash (single-CTA, reset every iteration)");
}

/// The two curves for one workload (reset interval 1, as in the
/// paper's experiment).
pub fn curves(wl: &Workload, ctx: &ExpContext) -> Vec<(&'static str, Vec<CurvePoint>)> {
    let (index, _) = build_cagra(wl);
    let sweep = itopk_sweep(ctx.k, 64);
    [
        ("standard", HashPolicy::Standard),
        ("forgettable", HashPolicy::Forgettable { bits: 10, reset_interval: 1 }),
    ]
    .into_iter()
    .map(|(label, hash)| {
        let c = cagra_curve(
            &index,
            wl,
            ctx.k,
            &sweep,
            Mode::SingleCta,
            hash,
            8,
            4,
            ctx.batch_target,
            false,
        );
        (label, c)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::qps_at_recall;

    #[test]
    fn forgettable_is_competitive_without_recall_collapse() {
        // NOTE on scale: at n = 2500 the search visits a large fraction
        // of the dataset, so every post-reset candidate is a re-visit
        // and the forgettable table recomputes far more distances than
        // it would at the paper's 1M+ scale (where it matches or beats
        // the standard table -- reproduced at --n 8000, see
        // EXPERIMENTS.md). The test therefore checks the two paper
        // claims that survive downscaling: no recall collapse, and
        // competitiveness at the narrow-search end where re-visits are
        // rare.
        let ctx = ExpContext { n: 2500, queries: 30, batch_target: 2000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let cs = curves(&wl, &ctx);
        let std_best = cs[0].1.iter().map(|p| p.recall).fold(0.0, f64::max);
        let fgt_best = cs[1].1.iter().map(|p| p.recall).fold(0.0, f64::max);
        assert!(fgt_best > std_best - 0.1, "forgettable recall {fgt_best} vs standard {std_best}");
        // Narrow-search point: throughput within 10%.
        let q_std_first = cs[0].1[0].qps_sim;
        let q_fgt_first = cs[1].1[0].qps_sim;
        assert!(
            q_fgt_first >= 0.9 * q_std_first,
            "narrow search: forgettable {q_fgt_first} vs standard {q_std_first}"
        );
        // Whole curve: no worse than the small-scale revisit artifact
        // explains.
        let floor = (std_best.min(fgt_best) - 0.05).max(0.5);
        let q_std = qps_at_recall(&cs[0].1, floor, true);
        let q_fgt = qps_at_recall(&cs[1].1, floor, true);
        assert!(q_fgt >= 0.6 * q_std, "forgettable {q_fgt} vs standard {q_std} at floor {floor}");
    }
}
