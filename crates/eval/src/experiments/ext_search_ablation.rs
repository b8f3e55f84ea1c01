//! Extension experiment: isolate the *search* contribution (Sec. IV)
//! from the *graph* contribution (Sec. III).
//!
//! The paper's comparisons vary both graph and search at once. Here
//! the graph is held fixed — the CAGRA graph — and three search
//! implementations traverse it: CAGRA's buffered top-M search
//! (single-CTA, forgettable hash), SONG's bounded-priority-queue
//! search (the prior GPU state of the art CAGRA's kernel design
//! improves on), and NSSG's CPU beam search. The simulated GPU QPS
//! gap between CAGRA and SONG on the identical graph is the kernel
//! contribution in isolation.
//!
//! Simulated cycles and this host's clock are different instruments
//! and never share a row: beside NSSG's wall-clock rows, CAGRA's own
//! search loop is timed the same way (one thread, one query at a time)
//! in both mappings.

use crate::context::{ExpContext, Workload};
use crate::experiments::{build_cagra, itopk_sweep};
use crate::recall::recall_at_k;
use crate::report::{fmt_qps, Table};
use crate::sweep::{cagra_curve, sim_batch_qps, CurvePoint};
use cagra::search::planner::Mode;
use cagra::{SearchParams, SearchScratch};
use dataset::presets::PresetName;
use dataset::VectorStore;
use gpu_sim::{HashPolicy, SimTrace};
use knn::topk::Neighbor;
use song::{song_search, SongParams, StartPolicy};
use std::time::Instant;

/// Curves for the three search implementations on one shared graph
/// (simulated for the two GPU kernels, wall clock for NSSG), then
/// CAGRA's two mappings on the wall clock.
pub fn measure(wl: &Workload, ctx: &ExpContext) -> Vec<(&'static str, Vec<CurvePoint>)> {
    let (index, _) = build_cagra(wl);
    let adjacency: Vec<Vec<u32>> =
        (0..index.graph().len()).map(|v| index.graph().neighbors(v).to_vec()).collect();
    let sweep = itopk_sweep(ctx.k, 256);
    let gt = wl.ground_truth(ctx.k);
    let mut out = Vec::new();

    out.push((
        "CAGRA search",
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
            false,
        ),
    ));

    // SONG over the identical graph; pq_size plays the itopk role.
    let song_curve: Vec<CurvePoint> = sweep
        .iter()
        .map(|&pq| {
            let params = SongParams {
                starts: StartPolicy::Random(index.graph().degree()),
                ..SongParams::new(pq)
            };
            let t0 = Instant::now();
            let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(wl.queries.len());
            let mut traces: Vec<SimTrace> = Vec::with_capacity(wl.queries.len());
            for qi in 0..wl.queries.len() {
                let (res, trace) = song_search(
                    &adjacency,
                    &wl.base,
                    wl.metric,
                    wl.queries.row(qi),
                    ctx.k,
                    &params,
                );
                results.push(res);
                traces.push(trace);
            }
            let wall = t0.elapsed().as_secs_f64();
            CurvePoint {
                param: pq,
                recall: recall_at_k(&results, &gt, ctx.k),
                qps_cpu: wl.queries.len() as f64 / wall,
                qps_sim: sim_batch_qps(
                    &traces,
                    wl.base.dim(),
                    4,
                    32,
                    Mode::SingleCta,
                    ctx.batch_target,
                ),
                scratch_reused: false,
            }
        })
        .collect();
    out.push(("SONG search", song_curve));

    // NSSG beam (CPU) over the same graph.
    let nssg_curve = wall_curve(wl, &gt, ctx.k, &sweep, false, |l, qi| {
        let q = wl.queries.row(qi);
        nssg::beam_search(&adjacency, &wl.base, wl.metric, q, ctx.k, l, l, 0x7e57 ^ qi as u64).0
    });
    out.push(("NSSG beam (CPU)", nssg_curve));

    // CAGRA's loop on the same clock as the NSSG rows: one thread, a
    // query at a time on one recycled scratch, per-query seeds as the
    // batch entry draws them. These run the host's dense visited set,
    // so their recall is the standard table's, not the simulated
    // forgettable row's.
    for (label, mode) in
        [("CAGRA single-CTA (CPU)", Mode::SingleCta), ("CAGRA multi-CTA (CPU)", Mode::MultiCta)]
    {
        let mut scratch = SearchScratch::new();
        scratch.set_record_trace(false);
        let curve = wall_curve(wl, &gt, ctx.k, &sweep, true, |itopk, qi| {
            let params = SearchParams { itopk: itopk.max(ctx.k), ..SearchParams::for_k(ctx.k) };
            let p = SearchParams { seed: params.seed_for_query(qi), ..params };
            index.search_mode_with(wl.queries.row(qi), ctx.k, &p, mode, &mut scratch);
            scratch.results().to_vec()
        });
        out.push((label, curve));
    }

    out
}

/// A wall-clock curve: for each sweep width, `search(width, qi)` runs
/// once per query on this thread, back to back.
fn wall_curve(
    wl: &Workload,
    gt: &[Vec<u32>],
    k: usize,
    sweep: &[usize],
    scratch_reused: bool,
    mut search: impl FnMut(usize, usize) -> Vec<Neighbor>,
) -> Vec<CurvePoint> {
    sweep
        .iter()
        .map(|&param| {
            let t0 = Instant::now();
            let results: Vec<Vec<Neighbor>> =
                (0..wl.queries.len()).map(|qi| search(param, qi)).collect();
            let wall = t0.elapsed().as_secs_f64();
            CurvePoint {
                param,
                recall: recall_at_k(&results, gt, k),
                qps_cpu: wl.queries.len() as f64 / wall,
                qps_sim: 0.0,
                scratch_reused,
            }
        })
        .collect()
}

/// Run on DEEP-like and GloVe-like workloads.
pub fn run(ctx: &ExpContext) {
    let mut t =
        Table::new(&["dataset", "search impl", "width", "recall@10", "QPS", "timing", "scratch"]);
    for preset in [PresetName::Deep, PresetName::Glove] {
        let wl = Workload::load(preset, ctx);
        for (label, curve) in measure(&wl, ctx) {
            let sim = !label.ends_with("(CPU)");
            for p in curve {
                t.row(vec![
                    preset.label().to_string(),
                    label.to_string(),
                    p.param.to_string(),
                    format!("{:.4}", p.recall),
                    fmt_qps(if sim { p.qps_sim } else { p.qps_cpu }),
                    if sim { "sim-A100".into() } else { "cpu-wall".into() },
                    if p.scratch_reused { "reused".into() } else { "fresh".into() },
                ]);
            }
        }
    }
    t.print("Extension — search-implementation ablation on a fixed CAGRA graph");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::qps_at_recall;

    #[test]
    fn cagra_search_beats_song_on_the_same_graph() {
        let ctx = ExpContext { n: 1200, queries: 25, batch_target: 4000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let curves = measure(&wl, &ctx);
        let floor = 0.8;
        let cagra = qps_at_recall(&curves[0].1, floor, true);
        let song = qps_at_recall(&curves[1].1, floor, true);
        assert!(cagra > 0.0 && song > 0.0, "cagra {cagra} song {song}");
        assert!(
            cagra > song,
            "on the same graph, CAGRA's kernel ({cagra}) must out-simulate SONG's ({song})"
        );
    }
}
