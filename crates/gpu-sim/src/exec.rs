//! Batch-level scheduling: turn per-query traces into simulated
//! wall-clock time for a whole kernel launch.
//!
//! Single-CTA launches one block per query; multi-CTA launches
//! `num_workers` blocks per query that advance in rounds. The batch
//! finishes when the slowest query finishes, but total throughput is
//! bounded by how many CTAs the device can keep resident (occupancy)
//! and by device-memory bandwidth — the same three bounds the paper
//! reasons about (Secs. IV-C1/C2, Q-C3).

use crate::cost::{
    cta_occupancy, init_breakdown, iteration_breakdown, query_bytes, CycleBreakdown, KernelConfig,
    Occupancy,
};
use crate::device::DeviceSpec;
use cagra::search::planner::Mode;
use cagra::search::trace::{IterationTrace, SearchTrace};
use serde::Serialize;

/// Result of simulating one batch launch.
#[derive(Clone, Debug, Serialize)]
pub struct BatchTiming {
    /// End-to-end simulated seconds (including launch overhead).
    pub seconds: f64,
    /// Queries per second.
    pub qps: f64,
    /// Compute-bound component (occupancy-limited CTA cycles).
    pub compute_seconds: f64,
    /// Memory-bandwidth-bound component.
    pub bandwidth_seconds: f64,
    /// Critical path of the slowest query, seconds.
    pub critical_path_seconds: f64,
    /// Occupancy resolved for the kernel.
    pub occupancy: Occupancy,
    /// CTAs the device can keep resident.
    pub concurrent_ctas: usize,
    /// Total CTAs launched.
    pub total_ctas: usize,
    /// Whole-batch simulated cycles attributed to kernel phases
    /// (summed over every CTA of every query).
    pub cycles: CycleBreakdown,
}

/// Scale a round-aggregated multi-CTA iteration down to one worker.
fn per_worker(it: &IterationTrace, workers: usize) -> IterationTrace {
    let w = workers.max(1) as u64;
    IterationTrace {
        candidates: it.candidates.div_ceil(w),
        distances_computed: it.distances_computed.div_ceil(w),
        hash_probes: it.hash_probes.div_ceil(w),
        sort_len: it.sort_len,
        hash_reset: it.hash_reset,
    }
}

/// Simulate one launch of `traces.len()` queries.
///
/// All queries must share a kernel shape (same graph, parameters and
/// precision); `team_size` is the warp-splitting factor under test.
/// Traces must come from a simulated search, which ran the visited
/// table being priced; a host search's trace has none.
///
/// # Panics
/// Panics on an empty batch, a `team_size` other than 2, 4, 8, 16 or
/// 32 (a team must divide a 32-thread warp), or a trace without a
/// visited table (`hash_slots == 0`).
pub fn simulate_batch(
    device: &DeviceSpec,
    traces: &[SearchTrace],
    dim: usize,
    bytes_per_elem: usize,
    team_size: usize,
    mapping: Mode,
) -> BatchTiming {
    assert!(!traces.is_empty(), "cannot simulate an empty batch");
    assert!(
        matches!(team_size, 2 | 4 | 8 | 16 | 32),
        "team_size {team_size} must divide a 32-thread warp"
    );
    assert!(
        traces.iter().all(|t| t.hash_slots > 0),
        "a host trace has no visited table to price; record traces with gpu_sim::search_with \
         on a SimTable, search_batch_traced or search_sharded_traced under a HashPolicy"
    );
    let cfg = KernelConfig::from_trace(&traces[0], dim, bytes_per_elem, team_size);
    let occ = cta_occupancy(device, &cfg);

    let mut total_cta_cycles = 0.0f64;
    let mut critical_cycles = 0.0f64;
    let mut total_bytes = 0.0f64;
    let mut total_ctas = 0usize;
    let mut batch_cycles = CycleBreakdown::default();

    for trace in traces {
        let workers = match mapping {
            Mode::SingleCta => 1,
            Mode::MultiCta => trace.num_workers.max(1),
        };
        total_ctas += workers;
        total_bytes += query_bytes(&cfg, trace);

        // Per-CTA critical path: init + every round this CTA runs.
        let mut cta_cycles =
            init_breakdown(&cfg, &occ, trace.init_distances.div_ceil(workers as u64));
        for it in &trace.iterations {
            let it_one = if workers > 1 { per_worker(it, workers) } else { *it };
            cta_cycles.accumulate(&iteration_breakdown(device, &cfg, &occ, &it_one));
        }
        critical_cycles = critical_cycles.max(cta_cycles.total());
        total_cta_cycles += cta_cycles.total() * workers as f64;
        batch_cycles.accumulate(&cta_cycles.scaled(workers as f64));
    }

    let m = obs::metrics();
    m.sim_batches.inc();
    m.sim_cycles_sort.add(batch_cycles.sort as u64);
    m.sim_cycles_parent_select.add(batch_cycles.parent_select as u64);
    m.sim_cycles_expand.add(batch_cycles.expand as u64);
    m.sim_cycles_distance.add(batch_cycles.distance as u64);
    m.sim_cycles_hash.add(batch_cycles.hash as u64);

    let concurrent_ctas = (device.sm_count * occ.ctas_per_sm).max(1);
    let throughput_cycles = total_cta_cycles / concurrent_ctas.min(total_ctas).max(1) as f64;
    let compute_cycles = throughput_cycles.max(critical_cycles);

    let compute_seconds = device.cycles_to_seconds(compute_cycles);
    // DRAM only reaches peak bandwidth with enough memory-level
    // parallelism: roughly 24 resident warps per SM on an A100-class
    // part. Below that, occupancy (registers, shared memory) throttles
    // achievable bandwidth — the mechanism behind the paper's
    // register-pressure and shared-memory-hash effects.
    let warps_per_cta = cfg.cta_threads.div_ceil(32);
    let mlp_fraction = ((occ.ctas_per_sm * warps_per_cta) as f64 / 24.0).min(1.0);
    let bandwidth_seconds = device.bytes_to_seconds(total_bytes) / mlp_fraction.max(1e-3);
    let seconds = compute_seconds.max(bandwidth_seconds) + device.launch_overhead_us * 1e-6;

    BatchTiming {
        seconds,
        qps: traces.len() as f64 / seconds,
        compute_seconds,
        bandwidth_seconds,
        critical_path_seconds: device.cycles_to_seconds(critical_cycles),
        occupancy: occ,
        concurrent_ctas,
        total_ctas,
        cycles: batch_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesize a plausible trace: `iters` iterations, `workers`
    /// CTAs, `new_frac` of candidates passing the hash.
    fn mk_trace(
        iters: usize,
        workers: usize,
        degree: usize,
        itopk: usize,
        shared: bool,
    ) -> SearchTrace {
        let per_round = (workers * degree) as u64;
        SearchTrace {
            init_distances: per_round,
            iterations: (0..iters)
                .map(|_| IterationTrace {
                    candidates: per_round,
                    distances_computed: (per_round * 7) / 10,
                    hash_probes: per_round * 3 / 2,
                    sort_len: degree as u64,
                    hash_reset: false,
                })
                .collect(),
            itopk,
            search_width: 1,
            degree,
            num_workers: workers,
            hash_slots: if shared { 2048 } else { 1 << 14 },
            hash_in_shared: shared,
            serial_queue: false,
            scratch_reused: false,
            accesses: None,
        }
    }

    #[test]
    fn single_query_prefers_multi_cta() {
        // Fig. 10 top: batch size 1, multi-CTA wins by engaging many
        // SMs. Multi-CTA reaches the same recall in ~1/workers the
        // rounds; give both the same total traversal volume.
        let d = DeviceSpec::a100();
        let single = vec![mk_trace(64, 1, 32, 64, true)];
        let multi = vec![mk_trace(16, 8, 32, 64, false)];
        let ts = simulate_batch(&d, &single, 96, 4, 8, Mode::SingleCta);
        let tm = simulate_batch(&d, &multi, 96, 4, 8, Mode::MultiCta);
        assert!(tm.qps > ts.qps, "multi {} <= single {}", tm.qps, ts.qps);
    }

    #[test]
    fn large_batch_prefers_single_cta() {
        // Fig. 10 bottom (DEEP-like): at batch 10k single-CTA wins —
        // it does less total work per query and its hash is cheap
        // shared memory.
        let d = DeviceSpec::a100();
        let single: Vec<_> = (0..2000).map(|_| mk_trace(24, 1, 32, 64, true)).collect();
        let multi: Vec<_> = (0..2000).map(|_| mk_trace(12, 8, 32, 64, false)).collect();
        let ts = simulate_batch(&d, &single, 96, 4, 8, Mode::SingleCta);
        let tm = simulate_batch(&d, &multi, 96, 4, 8, Mode::MultiCta);
        assert!(ts.qps > tm.qps, "single {} <= multi {}", ts.qps, tm.qps);
    }

    #[test]
    fn fp16_beats_fp32_when_bandwidth_bound() {
        // Fig. 13: FP16 increases large-batch throughput on bigger
        // dimensions by halving memory traffic.
        let d = DeviceSpec::a100();
        let traces: Vec<_> = (0..20_000).map(|_| mk_trace(24, 1, 48, 64, true)).collect();
        let t32 = simulate_batch(&d, &traces, 960, 4, 32, Mode::SingleCta);
        let t16 = simulate_batch(&d, &traces, 960, 2, 32, Mode::SingleCta);
        assert!(t16.qps > t32.qps, "fp16 {} <= fp32 {}", t16.qps, t32.qps);
    }

    #[test]
    fn throughput_saturates_with_batch_size() {
        let d = DeviceSpec::a100();
        let small: Vec<_> = (0..10).map(|_| mk_trace(24, 1, 32, 64, true)).collect();
        let large: Vec<_> = (0..5000).map(|_| mk_trace(24, 1, 32, 64, true)).collect();
        let qs = simulate_batch(&d, &small, 96, 4, 8, Mode::SingleCta);
        let ql = simulate_batch(&d, &large, 96, 4, 8, Mode::SingleCta);
        assert!(ql.qps > 10.0 * qs.qps, "large batch must amortize: {} vs {}", ql.qps, qs.qps);
    }

    #[test]
    fn launch_overhead_floors_tiny_batches() {
        let d = DeviceSpec::a100();
        let t = simulate_batch(&d, &[mk_trace(4, 1, 32, 64, true)], 96, 4, 8, Mode::SingleCta);
        assert!(t.seconds >= d.launch_overhead_us * 1e-6);
        assert!(t.qps <= 1e6 / d.launch_overhead_us);
    }

    #[test]
    fn more_work_takes_longer() {
        let d = DeviceSpec::a100();
        let short = simulate_batch(&d, &[mk_trace(8, 1, 32, 64, true)], 96, 4, 8, Mode::SingleCta);
        let long = simulate_batch(&d, &[mk_trace(80, 1, 32, 64, true)], 96, 4, 8, Mode::SingleCta);
        assert!(long.seconds > short.seconds);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        simulate_batch(&DeviceSpec::a100(), &[], 96, 4, 8, Mode::SingleCta);
    }

    #[test]
    #[should_panic(expected = "must divide a 32-thread warp")]
    fn team_size_that_splits_no_warp_rejected() {
        let t = [mk_trace(4, 1, 32, 64, true)];
        simulate_batch(&DeviceSpec::a100(), &t, 96, 4, 7, Mode::SingleCta);
    }

    #[test]
    #[should_panic(expected = "host trace has no visited table")]
    fn host_trace_rejected() {
        let host = SearchTrace { hash_slots: 0, ..mk_trace(4, 1, 32, 64, false) };
        let t = [mk_trace(4, 1, 32, 64, false), host];
        simulate_batch(&DeviceSpec::a100(), &t, 96, 4, 8, Mode::SingleCta);
    }
}
