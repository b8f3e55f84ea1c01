//! Recall↔QPS sweeps.
//!
//! Every throughput plot in the paper is a curve traced by widening
//! the search (CAGRA's `itopk`, HNSW's `ef`, NSSG's `L`, the GPU
//! baselines' beam). Each sweep point reports
//!
//! * `recall` — exact, against brute-force ground truth;
//! * `qps_cpu` — wall-clock batch throughput on this host (the
//!   number used for the CPU baselines, like the paper's 64-thread
//!   HNSW runs — scaled by this machine's single core);
//! * `qps_sim` — simulated A100 throughput from the recorded traces
//!   (the number used for CAGRA/GGNN/GANNS, which the paper runs on
//!   the GPU). Traces are tiled up to the experiment's batch target so
//!   a 200-query measurement prices like the paper's 10k-query batch.

use crate::context::Workload;
use crate::recall::recall_at_k;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, SearchParams};
use dataset::VectorStore;
use gpu_sim::{search_batch_traced, simulate_batch, DeviceSpec, HashPolicy, SimTrace};
use hnsw::Hnsw;
use knn::topk::Neighbor;
use nssg::Nssg;
use std::time::Instant;

/// One point of a recall↔QPS curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// The width parameter swept (itopk / ef / L / beam).
    pub param: usize,
    /// recall@k against exact ground truth.
    pub recall: f64,
    /// Wall-clock batch QPS on this host.
    pub qps_cpu: f64,
    /// Simulated A100 QPS (0 when not applicable).
    pub qps_sim: f64,
    /// True when the measured batch ran on recycled per-thread search
    /// scratch (the zero-allocation path) — recorded so QPS numbers
    /// state which execution path produced them.
    pub scratch_reused: bool,
}

/// Tile measured traces cyclically up to `target` queries.
fn tile(traces: &[SimTrace], target: usize) -> Vec<SimTrace> {
    assert!(!traces.is_empty());
    (0..target.max(traces.len())).map(|i| traces[i % traces.len()].clone()).collect()
}

/// Simulated QPS for a large batch (tiled to `batch_target`).
pub fn sim_batch_qps(
    traces: &[SimTrace],
    dim: usize,
    bytes_per_elem: usize,
    team: usize,
    mapping: Mode,
    batch_target: usize,
) -> f64 {
    let device = DeviceSpec::a100();
    let tiled = tile(traces, batch_target);
    simulate_batch(&device, &tiled, dim, bytes_per_elem, team, mapping).qps
}

/// Simulated QPS for online (batch = 1) serving: mean latency over the
/// measured queries.
pub fn sim_single_qps(
    traces: &[SimTrace],
    dim: usize,
    bytes_per_elem: usize,
    team: usize,
    mapping: Mode,
) -> f64 {
    let device = DeviceSpec::a100();
    let total: f64 = traces
        .iter()
        .map(|t| {
            simulate_batch(&device, std::slice::from_ref(t), dim, bytes_per_elem, team, mapping)
                .seconds
        })
        .sum();
    traces.len() as f64 / total
}

/// Sweep CAGRA itopk values.
#[allow(clippy::too_many_arguments)]
pub fn cagra_curve<S: VectorStore>(
    index: &CagraIndex<S>,
    wl: &Workload,
    k: usize,
    itopks: &[usize],
    mode: Mode,
    hash: HashPolicy,
    team: usize,
    bytes_per_elem: usize,
    batch_target: usize,
    single_query: bool,
) -> Vec<CurvePoint> {
    let gt = wl.ground_truth(k);
    itopks
        .iter()
        .map(|&itopk| {
            let p = SearchParams { itopk: itopk.max(k), ..SearchParams::for_k(k) };
            let t0 = Instant::now();
            let out = search_batch_traced(index, &wl.queries, k, &p, mode, hash);
            let wall = t0.elapsed().as_secs_f64();
            let results: Vec<Vec<Neighbor>> = out.iter().map(|(r, _)| r.clone()).collect();
            let traces: Vec<SimTrace> = out.into_iter().map(|(_, t)| t).collect();
            let dim = wl.base.dim();
            let qps_sim = if single_query {
                sim_single_qps(&traces, dim, bytes_per_elem, team, mode)
            } else {
                sim_batch_qps(&traces, dim, bytes_per_elem, team, mode, batch_target)
            };
            CurvePoint {
                param: itopk,
                recall: recall_at_k(&results, &gt, k),
                qps_cpu: wl.queries.len() as f64 / wall,
                qps_sim,
                scratch_reused: traces.iter().any(|t| t.host.scratch_reused),
            }
        })
        .collect()
}

/// Sweep HNSW ef values (CPU wall clock only, like the paper).
pub fn hnsw_curve<S: VectorStore>(
    h: &Hnsw<S>,
    wl: &Workload,
    k: usize,
    efs: &[usize],
    single_query: bool,
) -> Vec<CurvePoint> {
    let gt = wl.ground_truth(k);
    efs.iter()
        .map(|&ef| {
            let (results, wall) = if single_query {
                // Serve queries one at a time (online mode).
                let t0 = Instant::now();
                let mut results = Vec::with_capacity(wl.queries.len());
                for qi in 0..wl.queries.len() {
                    results.push(h.search(wl.queries.row(qi), k, ef));
                }
                (results, t0.elapsed().as_secs_f64())
            } else {
                let t0 = Instant::now();
                let r = h.search_batch(&wl.queries, k, ef);
                (r, t0.elapsed().as_secs_f64())
            };
            CurvePoint {
                param: ef,
                recall: recall_at_k(&results, &gt, k),
                qps_cpu: wl.queries.len() as f64 / wall,
                qps_sim: 0.0,
                scratch_reused: false,
            }
        })
        .collect()
}

/// Sweep NSSG pool widths (CPU wall clock).
pub fn nssg_curve<S: VectorStore>(
    g: &Nssg<S>,
    wl: &Workload,
    k: usize,
    ls: &[usize],
) -> Vec<CurvePoint> {
    let gt = wl.ground_truth(k);
    ls.iter()
        .map(|&l| {
            let t0 = Instant::now();
            let results = g.search_batch(&wl.queries, k, l);
            let wall = t0.elapsed().as_secs_f64();
            CurvePoint {
                param: l,
                recall: recall_at_k(&results, &gt, k),
                qps_cpu: wl.queries.len() as f64 / wall,
                qps_sim: 0.0,
                scratch_reused: false,
            }
        })
        .collect()
}

/// Sweep a traced GPU baseline (GGNN/GANNS): `run(beam)` returns the
/// per-query results and traces; costing uses the SONG kernel shape
/// (full-warp distances, device-memory hash).
pub fn traced_curve(
    wl: &Workload,
    k: usize,
    beams: &[usize],
    batch_target: usize,
    mut run: impl FnMut(usize) -> Vec<(Vec<Neighbor>, SimTrace)>,
) -> Vec<CurvePoint> {
    let gt = wl.ground_truth(k);
    beams
        .iter()
        .map(|&beam| {
            let t0 = Instant::now();
            let out = run(beam);
            let wall = t0.elapsed().as_secs_f64();
            let results: Vec<Vec<Neighbor>> = out.iter().map(|(r, _)| r.clone()).collect();
            let traces: Vec<SimTrace> = out.into_iter().map(|(_, t)| t).collect();
            CurvePoint {
                param: beam,
                recall: recall_at_k(&results, &gt, k),
                qps_cpu: wl.queries.len() as f64 / wall,
                qps_sim: sim_batch_qps(
                    &traces,
                    wl.base.dim(),
                    4,
                    32,
                    Mode::SingleCta,
                    batch_target,
                ),
                scratch_reused: traces.iter().any(|t| t.host.scratch_reused),
            }
        })
        .collect()
}

/// The QPS a curve reaches at a recall floor (linear scan; 0 when the
/// floor is never reached). Used by the headline speedup table.
pub fn qps_at_recall(curve: &[CurvePoint], floor: f64, sim: bool) -> f64 {
    curve
        .iter()
        .filter(|p| p.recall >= floor)
        .map(|p| if sim { p.qps_sim } else { p.qps_cpu })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExpContext;
    use cagra::build::GraphConfig;
    use dataset::presets::PresetName;
    use distance::Metric;

    fn small_ctx() -> ExpContext {
        ExpContext { n: 600, queries: 20, batch_target: 100, ..ExpContext::default() }
    }

    #[test]
    fn cagra_curve_recall_grows_with_itopk() {
        let ctx = small_ctx();
        let wl = Workload::load(PresetName::Deep, &ctx);
        let (index, _) = CagraIndex::build(
            dataset::Dataset::from_flat(wl.base.as_flat().to_vec(), wl.base.dim()),
            Metric::SquaredL2,
            &GraphConfig::new(16),
        );
        let curve = cagra_curve(
            &index,
            &wl,
            10,
            &[16, 128],
            Mode::SingleCta,
            HashPolicy::Standard,
            8,
            4,
            ctx.batch_target,
            false,
        );
        assert_eq!(curve.len(), 2);
        assert!(curve[1].recall >= curve[0].recall);
        assert!(curve.iter().all(|p| p.qps_cpu > 0.0 && p.qps_sim > 0.0));
    }

    #[test]
    fn qps_at_recall_takes_best_qualifying_point() {
        let curve = vec![
            CurvePoint {
                param: 1,
                recall: 0.5,
                qps_cpu: 100.0,
                qps_sim: 1000.0,
                scratch_reused: true,
            },
            CurvePoint {
                param: 2,
                recall: 0.95,
                qps_cpu: 50.0,
                qps_sim: 500.0,
                scratch_reused: true,
            },
            CurvePoint {
                param: 3,
                recall: 0.99,
                qps_cpu: 10.0,
                qps_sim: 100.0,
                scratch_reused: true,
            },
        ];
        assert_eq!(qps_at_recall(&curve, 0.9, false), 50.0);
        assert_eq!(qps_at_recall(&curve, 0.9, true), 500.0);
        assert_eq!(qps_at_recall(&curve, 0.999, true), 0.0);
    }

    #[test]
    fn tile_cycles_traces() {
        let mut t = SimTrace::default();
        t.host.itopk = 8;
        let tiled = tile(std::slice::from_ref(&t), 5);
        assert_eq!(tiled.len(), 5);
        assert!(tiled.iter().all(|x| x.host.itopk == 8));
    }
}
