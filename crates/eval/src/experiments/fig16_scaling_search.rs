//! Fig. 16: search performance vs dataset size (DEEP ladder), CAGRA vs
//! HNSW, at recall@10 and recall@100.
//!
//! Paper claims to reproduce: recall declines only slightly as the
//! dataset grows, with CAGRA's decline tracking HNSW's; throughput
//! degradation is not significant.

use crate::context::{ExpContext, Workload};
use crate::experiments::{build_cagra, itopk_sweep};
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, hnsw_curve, CurvePoint};
use cagra::search::planner::Mode;
use dataset::presets::PresetName;
use dataset::Dataset;
use dataset::VectorStore;
use gpu_sim::HashPolicy;
use hnsw::{Hnsw, HnswParams};

/// Curves for one (size, k) cell.
pub fn measure(n: usize, k: usize, ctx: &ExpContext) -> Vec<(&'static str, Vec<CurvePoint>, bool)> {
    let wl = Workload::load_sized(PresetName::Deep, n, ctx.queries, ctx.seed);
    let sweep = itopk_sweep(k, (k * 16).min(512).max(k.max(16)));
    let (index, _) = build_cagra(&wl);
    let cagra = cagra_curve(
        &index,
        &wl,
        k,
        &sweep,
        Mode::SingleCta,
        HashPolicy::Forgettable { bits: 11, reset_interval: 1 },
        8,
        4,
        ctx.batch_target,
        false,
    );
    let clone = Dataset::from_flat(wl.base.as_flat().to_vec(), wl.base.dim());
    let h = Hnsw::build(clone, wl.metric, HnswParams::new((wl.degree() / 2).max(4)));
    let hnsw = hnsw_curve(&h, &wl, k, &sweep, false);
    vec![("CAGRA", cagra, true), ("HNSW", hnsw, false)]
}

/// Print the table for both recall@10 and recall@100.
pub fn run(ctx: &ExpContext) {
    let sizes = super::fig15_scaling_build::sizes(ctx);
    for k in [10usize, 100] {
        let mut t = Table::new(&["N", "method", "width", &format!("recall@{k}"), "QPS", "timing"]);
        for n in sizes {
            if n <= k * 2 {
                continue; // dataset too small for this recall target
            }
            for (label, curve, sim) in measure(n, k, ctx) {
                for p in curve {
                    t.row(vec![
                        n.to_string(),
                        label.to_string(),
                        p.param.to_string(),
                        format!("{:.4}", p.recall),
                        fmt_qps(if sim { p.qps_sim } else { p.qps_cpu }),
                        if sim { "sim-A100".into() } else { "cpu-wall".into() },
                    ]);
                }
            }
        }
        t.print(&format!("Fig. 16 — search scaling, recall@{k}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_degrades_gracefully_with_size() {
        let ctx = ExpContext { n: 400, queries: 20, batch_target: 1000, ..ExpContext::default() };
        let small = measure(400, 10, &ctx);
        let large = measure(1600, 10, &ctx);
        let best = |curves: &[(&str, Vec<CurvePoint>, bool)], i: usize| {
            curves[i].1.iter().map(|p| p.recall).fold(0.0, f64::max)
        };
        let cagra_small = best(&small, 0);
        let cagra_large = best(&large, 0);
        assert!(cagra_small > 0.85, "small-N recall {cagra_small}");
        assert!(
            cagra_large > cagra_small - 0.15,
            "recall must not collapse with N: {cagra_large} vs {cagra_small}"
        );
    }

    #[test]
    fn supports_recall_at_100() {
        let ctx = ExpContext { n: 600, queries: 10, batch_target: 500, ..ExpContext::default() };
        let curves = measure(600, 100, &ctx);
        let best = curves[0].1.iter().map(|p| p.recall).fold(0.0, f64::max);
        assert!(best > 0.7, "recall@100 = {best}");
    }
}
