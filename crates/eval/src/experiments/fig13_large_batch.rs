//! Fig. 13: large-batch recall↔throughput, all methods (batch 10k in
//! the paper; tiled to `ctx.batch_target` here), including CAGRA FP16.
//!
//! Paper claims to reproduce: CAGRA beats both CPU methods (by large
//! factors) and the GPU baselines (by smaller factors) across the
//! 90–95% recall range; FP16 adds throughput on top without hurting
//! recall.

use crate::context::{ExpContext, Workload};
use crate::experiments::{build_cagra, itopk_sweep};
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, hnsw_curve, nssg_curve, traced_curve, CurvePoint};
use cagra::search::planner::Mode;
use cagra::{CagraIndex, SearchParams};
use dataset::presets::PresetName;
use dataset::Dataset;
use dataset::VectorStore;
use ganns::{Ganns, GannsParams};
use ggnn::{Ggnn, GgnnParams};
use gpu_sim::HashPolicy;
use hnsw::{Hnsw, HnswParams};
use nssg::{Nssg, NssgParams};

/// A labeled curve plus whether its QPS column is simulated GPU time.
pub struct MethodCurve {
    /// Display label.
    pub label: &'static str,
    /// Sweep points.
    pub curve: Vec<CurvePoint>,
    /// True when `qps_sim` is the relevant column.
    pub sim: bool,
}

/// Produce every method's curve for one workload.
pub fn measure(wl: &Workload, ctx: &ExpContext) -> Vec<MethodCurve> {
    let d = wl.degree();
    let clone = || Dataset::from_flat(wl.base.as_flat().to_vec(), wl.base.dim());
    let sweep = itopk_sweep(ctx.k, 256);
    let hash = HashPolicy::Forgettable { bits: 11, reset_interval: 1 };
    let mut out = Vec::new();

    let (index, _) = build_cagra(wl);
    out.push(MethodCurve {
        label: "CAGRA (FP32)",
        curve: cagra_curve(
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
        ),
        sim: true,
    });

    // FP16: same graph, half-precision store (recall is re-measured on
    // the narrowed vectors — the paper found no degradation).
    let half = index.store().to_f16();
    let index16 = CagraIndex::from_parts(half, index.graph().clone(), wl.metric);
    out.push(MethodCurve {
        label: "CAGRA (FP16)",
        curve: cagra_curve(
            &index16,
            wl,
            ctx.k,
            &sweep,
            Mode::SingleCta,
            hash,
            8,
            2,
            ctx.batch_target,
            false,
        ),
        sim: true,
    });

    // INT8: our extension of the paper's low-precision proposal —
    // quarter the FP32 traffic at a small additional recall cost.
    let quant = index.store().to_i8();
    let index8 = CagraIndex::from_parts(quant, index.graph().clone(), wl.metric);
    out.push(MethodCurve {
        label: "CAGRA (INT8)",
        curve: cagra_curve(
            &index8,
            wl,
            ctx.k,
            &sweep,
            Mode::SingleCta,
            hash,
            8,
            1,
            ctx.batch_target,
            false,
        ),
        sim: true,
    });

    let (g, _) = Ggnn::build(clone(), wl.metric, GgnnParams::new(d));
    out.push(MethodCurve {
        label: "GGNN",
        curve: traced_curve(wl, ctx.k, &sweep, ctx.batch_target, |beam| {
            g.search_batch(&wl.queries, ctx.k, beam)
        }),
        sim: true,
    });

    let (g, _) = Ganns::build(clone(), wl.metric, GannsParams::new((d / 2).max(4)));
    out.push(MethodCurve {
        label: "GANNS",
        curve: traced_curve(wl, ctx.k, &sweep, ctx.batch_target, |beam| {
            g.search_batch(&wl.queries, ctx.k, beam)
        }),
        sim: true,
    });

    let h = Hnsw::build(clone(), wl.metric, HnswParams::new((d / 2).max(4)));
    out.push(MethodCurve {
        label: "HNSW",
        curve: hnsw_curve(&h, wl, ctx.k, &sweep, false),
        sim: false,
    });

    let (g, _) = Nssg::build(clone(), wl.metric, NssgParams::new(d));
    out.push(MethodCurve { label: "NSSG", curve: nssg_curve(&g, wl, ctx.k, &sweep), sim: false });

    out
}

/// Run on the figure's four datasets.
pub fn run(ctx: &ExpContext) {
    let mut t =
        Table::new(&["dataset", "method", "width", "recall@10", "QPS", "timing", "scratch"]);
    for preset in [PresetName::Sift, PresetName::Gist, PresetName::Glove, PresetName::NyTimes] {
        let wl = Workload::load(preset, ctx);
        for m in measure(&wl, ctx) {
            for p in &m.curve {
                t.row(vec![
                    preset.label().to_string(),
                    m.label.to_string(),
                    p.param.to_string(),
                    format!("{:.4}", p.recall),
                    fmt_qps(if m.sim { p.qps_sim } else { p.qps_cpu }),
                    if m.sim { "sim-A100".into() } else { "cpu-wall".into() },
                    if p.scratch_reused { "reused".into() } else { "fresh".into() },
                ]);
            }
        }
    }
    t.print(&format!("Fig. 13 — large-batch search (batch target {})", ctx.batch_target));
}

/// CAGRA's FP16-vs-FP32 recall delta for one workload (support for the
/// "no degradation" claim); returns (fp32 recall, fp16 recall).
pub fn fp16_recall_delta(wl: &Workload, ctx: &ExpContext) -> (f64, f64) {
    let (index, _) = build_cagra(wl);
    let params = SearchParams::for_k(ctx.k);
    let gt = wl.ground_truth(ctx.k);
    let r32 = {
        let out = index.search_batch(&wl.queries, ctx.k, &params);
        crate::recall::recall_at_k(&out, &gt, ctx.k)
    };
    let half = index.store().to_f16();
    let index16 = CagraIndex::from_parts(half, index.graph().clone(), wl.metric);
    let r16 = {
        let out = index16.search_batch(&wl.queries, ctx.k, &params);
        crate::recall::recall_at_k(&out, &gt, ctx.k)
    };
    (r32, r16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::qps_at_recall;

    #[test]
    fn cagra_beats_cpu_baselines_at_matched_recall() {
        let ctx = ExpContext { n: 1000, queries: 30, batch_target: 5000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let curves = measure(&wl, &ctx);
        let floor = 0.8;
        let cagra = qps_at_recall(
            &curves.iter().find(|m| m.label == "CAGRA (FP32)").unwrap().curve,
            floor,
            true,
        );
        let hnsw =
            qps_at_recall(&curves.iter().find(|m| m.label == "HNSW").unwrap().curve, floor, false);
        assert!(cagra > 0.0, "CAGRA never reached recall {floor}");
        assert!(hnsw > 0.0, "HNSW never reached recall {floor}");
        assert!(cagra > hnsw, "CAGRA {cagra} must beat HNSW {hnsw} in large batches");
    }

    #[test]
    fn fp16_does_not_degrade_recall() {
        let ctx = ExpContext { n: 800, queries: 30, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let (r32, r16) = fp16_recall_delta(&wl, &ctx);
        assert!(r16 > r32 - 0.02, "fp16 recall {r16} vs fp32 {r32}");
    }
}
