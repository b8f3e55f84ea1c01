//! Fig. 14: single-query (online) recall↔throughput, CAGRA (multi-CTA,
//! FP32 and FP16) vs HNSW. GGNN/GANNS are omitted, as in the paper —
//! they are batch-oriented.
//!
//! Paper claims to reproduce: CAGRA wins at 95% recall and its lead
//! grows with the recall requirement (more traversal → more distance
//! math → more GPU advantage); FP16 helps most on the big-dimension
//! dataset (GIST).

use crate::context::{ExpContext, Workload};
use crate::experiments::{build_cagra, itopk_sweep};
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, hnsw_curve, CurvePoint};
use cagra::search::planner::Mode;
use cagra::CagraIndex;
use dataset::presets::PresetName;
use dataset::Dataset;
use dataset::VectorStore;
use gpu_sim::HashPolicy;
use hnsw::{Hnsw, HnswParams};

/// Labeled single-query curves for one workload.
pub fn measure(wl: &Workload, ctx: &ExpContext) -> Vec<(&'static str, Vec<CurvePoint>, bool)> {
    let sweep = itopk_sweep(ctx.k, 512);
    let (index, _) = build_cagra(wl);
    let mut out = Vec::new();
    out.push((
        "CAGRA (FP32)",
        cagra_curve(&index, wl, ctx.k, &sweep, Mode::MultiCta, HashPolicy::Standard, 8, 4, 1, true),
        true,
    ));
    let half = index.store().to_f16();
    let index16 = CagraIndex::from_parts(half, index.graph().clone(), wl.metric);
    out.push((
        "CAGRA (FP16)",
        cagra_curve(
            &index16,
            wl,
            ctx.k,
            &sweep,
            Mode::MultiCta,
            HashPolicy::Standard,
            8,
            2,
            1,
            true,
        ),
        true,
    ));
    let clone = Dataset::from_flat(wl.base.as_flat().to_vec(), wl.base.dim());
    let h = Hnsw::build(clone, wl.metric, HnswParams::new((wl.degree() / 2).max(4)));
    out.push(("HNSW", hnsw_curve(&h, wl, ctx.k, &sweep, true), false));
    out
}

/// Run on the figure's four datasets.
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&["dataset", "method", "width", "recall@10", "QPS", "timing"]);
    for preset in [PresetName::Sift, PresetName::Gist, PresetName::Glove, PresetName::NyTimes] {
        let wl = Workload::load(preset, ctx);
        for (label, curve, sim) in measure(&wl, ctx) {
            for p in curve {
                t.row(vec![
                    preset.label().to_string(),
                    label.to_string(),
                    p.param.to_string(),
                    format!("{:.4}", p.recall),
                    fmt_qps(if sim { p.qps_sim } else { p.qps_cpu }),
                    if sim { "sim-A100".into() } else { "cpu-wall".into() },
                ]);
            }
        }
    }
    t.print("Fig. 14 — single-query (online) search");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::qps_at_recall;

    #[test]
    fn cagra_beats_hnsw_for_single_queries() {
        let ctx = ExpContext { n: 1000, queries: 25, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let curves = measure(&wl, &ctx);
        let floor = 0.8;
        let cagra = qps_at_recall(&curves[0].1, floor, true);
        let hnsw = qps_at_recall(&curves[2].1, floor, false);
        assert!(cagra > 0.0 && hnsw > 0.0, "cagra {cagra} hnsw {hnsw}");
        assert!(cagra > hnsw, "single-query: CAGRA {cagra} must beat HNSW {hnsw}");
    }
}
