//! Per-CTA cost model: registers, occupancy, and iteration cycles.
//!
//! The model captures the four first-order effects the paper analyzes:
//!
//! * **Warp splitting (Sec. IV-B1)** — a distance computation issues
//!   `ceil(dim * bytes / (team * 16B))` 128-bit loads per team, and a
//!   warp computes `32 / team` distances concurrently. Smaller teams
//!   mean more distances in flight but more registers per thread (the
//!   query fragment is register-resident), shrinking occupancy.
//! * **Occupancy** — CTAs per SM is the minimum of the register,
//!   shared-memory, warp, and block limits; the search buffer and a
//!   shared-memory hash table both consume shared memory.
//! * **Top-M update (Sec. IV-B2)** — warp-register bitonic merge up to
//!   512 candidates; a radix path with a shared-memory footprint (and
//!   a larger constant) beyond, which is what makes very large `itopk`
//!   favor the multi-CTA mapping (Fig. 7).
//! * **Hash placement (Sec. IV-B3)** — each probe pays shared- or
//!   device-memory latency; forgettable resets pay a sweep over the
//!   table.

use crate::device::DeviceSpec;
use crate::trace::{SimRound, SimTrace};
use cagra::search::trace::IterationTrace;
use serde::{Deserialize, Serialize};

/// Static kernel shape for one search configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Threads cooperating on one distance (2..=32).
    pub team_size: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Bytes per vector element (4 = FP32, 2 = FP16).
    pub bytes_per_elem: usize,
    /// Internal top-M length per CTA.
    pub itopk: usize,
    /// Visited-table slot count.
    pub hash_slots: usize,
    /// Hash table resident in shared memory?
    pub hash_in_shared: bool,
    /// Graph degree `d`.
    pub degree: usize,
    /// Threads per CTA (cuVS uses 64–512; 256 is the common setting).
    pub cta_threads: usize,
    /// Candidate queue maintained with serialized insertions
    /// (SONG/GGNN/GANNS) instead of CAGRA's bitonic sort+merge.
    pub serial_queue: bool,
}

impl KernelConfig {
    /// Derive the kernel shape from a recorded trace plus dataset
    /// storage properties.
    pub fn from_trace(
        trace: &SimTrace,
        dim: usize,
        bytes_per_elem: usize,
        team_size: usize,
    ) -> Self {
        let (host, sim) = (&trace.host, &trace.sim);
        KernelConfig {
            team_size,
            dim,
            bytes_per_elem,
            itopk: if host.num_workers > 1 {
                (host.itopk.div_ceil(host.num_workers)).max(32)
            } else {
                host.itopk
            },
            hash_slots: sim.hash_slots,
            hash_in_shared: sim.hash_in_shared,
            degree: host.degree,
            cta_threads: 256,
            serial_queue: sim.serial_queue,
        }
    }

    /// 128-bit (16-byte) loads each team member issues per vector.
    pub fn loads_per_team(&self) -> usize {
        (self.dim * self.bytes_per_elem).div_ceil(self.team_size * 16)
    }

    /// Distances computed concurrently per warp.
    pub fn teams_per_warp(&self) -> usize {
        32 / self.team_size
    }

    /// Estimated registers per thread: a base working set (buffer
    /// cursors, hash state, loop bookkeeping) plus the
    /// register-resident query fragment (`dim / team` f32 values).
    pub fn registers_per_thread(&self) -> usize {
        64 + self.dim.div_ceil(self.team_size)
    }

    /// Fraction of loaded bytes that are useful. A team loads
    /// `loads_per_team * team * 16` bytes to cover a
    /// `dim * bytes_per_elem` vector; the paper's Sec. IV-B1 example
    /// (96-dim FP32 on a full warp: 3072 useful of 4096 loaded bits)
    /// is the motivating inefficiency for warp splitting.
    pub fn lane_efficiency(&self) -> f64 {
        let useful = (self.dim * self.bytes_per_elem) as f64;
        let loaded = (self.loads_per_team() * self.team_size * 16) as f64;
        useful / loaded
    }

    /// Shared-memory bytes per CTA: the search buffer (top-M list +
    /// candidate list, 8 bytes per entry), the staging area for the
    /// query, and the hash table when shared-resident.
    pub fn shared_mem_per_cta(&self) -> usize {
        let buffer = (self.itopk + self.degree) * 8;
        let query = self.dim * self.bytes_per_elem;
        let hash = if self.hash_in_shared { self.hash_slots * 4 } else { 0 };
        buffer + query + hash + 1024 // fixed kernel scratch
    }
}

/// Resolved occupancy for a kernel on a device.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Occupancy {
    /// Concurrent CTAs per SM.
    pub ctas_per_sm: usize,
    /// Registers per thread after the spill ceiling.
    pub regs_per_thread: usize,
    /// Fraction of the register demand that spilled to local memory
    /// (0 = none); spills multiply distance-phase cost.
    pub spill_ratio: f64,
    /// Which resource bound occupancy: "regs", "smem", "warps", "ctas".
    pub limited_by: &'static str,
}

/// Compute occupancy for `cfg` on `device`.
pub fn cta_occupancy(device: &DeviceSpec, cfg: &KernelConfig) -> Occupancy {
    let wanted_regs = cfg.registers_per_thread();
    let regs = wanted_regs.min(device.max_registers_per_thread);
    let spill_ratio =
        if wanted_regs > regs { (wanted_regs - regs) as f64 / wanted_regs as f64 } else { 0.0 };
    let warps_per_cta = cfg.cta_threads.div_ceil(32);
    let by_regs = device.registers_per_sm / (regs * 32 * warps_per_cta).max(1);
    let by_smem = device.shared_mem_per_sm / cfg.shared_mem_per_cta().max(1);
    let by_warps = device.max_warps_per_sm / warps_per_cta.max(1);
    let by_ctas = device.max_ctas_per_sm;
    let (ctas, limited_by) =
        [(by_regs, "regs"), (by_smem, "smem"), (by_warps, "warps"), (by_ctas, "ctas")]
            .into_iter()
            .min_by_key(|&(c, _)| c)
            .expect("non-empty limits");
    Occupancy {
        ctas_per_sm: ctas.max(1).min(by_ctas.max(1)),
        regs_per_thread: regs,
        spill_ratio,
        limited_by,
    }
}

/// Cycles one CTA spends on the distance phase for `n_dist` vectors.
fn distance_cycles(cfg: &KernelConfig, occ: &Occupancy, n_dist: u64) -> f64 {
    if n_dist == 0 {
        return 0.0;
    }
    let warps_per_cta = (cfg.cta_threads / 32).max(1);
    // Distances in flight across the CTA: one per team.
    let concurrent = (cfg.teams_per_warp() * warps_per_cta).max(1);
    let rounds = (n_dist as f64 / concurrent as f64).ceil();
    // Per round a team issues `loads_per_team` 128-bit load
    // instructions (cost amortized over the memory pipeline), padded
    // by lane waste when the vector does not fill the transaction,
    // plus a log2(team)-step shuffle reduction. Register spills turn
    // register traffic into local-memory traffic on every access.
    let per_round = cfg.loads_per_team() as f64 * 30.0 / cfg.lane_efficiency()
        * (1.0 + 4.0 * occ.spill_ratio)
        + (cfg.team_size as f64).log2() * 4.0;
    // One exposed memory latency per phase; the rest is pipelined.
    rounds * per_round + latency_exposure(cfg) + 60.0
}

// Memory-latency exposure grows mildly with vector size (longer
// dependent load chains).
fn latency_exposure(cfg: &KernelConfig) -> f64 {
    (cfg.loads_per_team() as f64).sqrt() * 9.0
}

/// Cycles for the candidate-queue update.
fn topm_cycles(cfg: &KernelConfig, sort_len: u64) -> f64 {
    if sort_len == 0 {
        return 0.0;
    }
    if cfg.serial_queue {
        // SONG-style bounded priority queue: each candidate's insert
        // is a dependent binary search + shift executed by one thread
        // group — serialized across the candidate batch. This is the
        // data-structure bottleneck CAGRA's batched bitonic update
        // removes.
        let log_q = (cfg.itopk.max(2) as f64).log2();
        return sort_len as f64 * (log_q * 2.0 + 6.0);
    }
    let n = sort_len.next_power_of_two().max(2) as f64;
    let stages = n.log2();
    if cfg.itopk <= 512 {
        // Warp-register bitonic sort + merge with the top-M list:
        // n/32 elements per thread through log^2 stages.
        (n / 32.0).max(1.0) * stages * stages * 6.0 + cfg.itopk as f64 / 32.0 * 12.0
    } else {
        // CTA-wide radix path through shared memory: linear passes
        // with a bigger constant (the paper's observed degradation).
        (sort_len as f64 + cfg.itopk as f64) * 3.5 + 400.0
    }
}

/// Cycles spent in the hash table for one iteration.
fn hash_cycles(device: &DeviceSpec, cfg: &KernelConfig, round: &SimRound) -> f64 {
    // Probes within an iteration are independent, so they pipeline:
    // one exposed latency per iteration plus a per-probe issue cost
    // (device probes are full DRAM transactions; shared probes are
    // bank accesses), spread across the CTA's warps.
    let (latency, per_probe) = if cfg.hash_in_shared {
        (device.shared_latency_cycles, 2.0)
    } else {
        (device.device_latency_cycles, 8.0)
    };
    let warps = (cfg.cta_threads / 32) as f64;
    let probe_cost = if round.probes == 0 {
        0.0
    } else {
        (latency + round.probes as f64 * per_probe) / warps.max(1.0)
    };
    let reset_cost = if round.reset {
        // fill() sweep at 16 bytes/cycle/warp + top-M re-registration.
        cfg.hash_slots as f64 * 4.0 / (16.0 * warps) + cfg.itopk as f64 * 2.0
    } else {
        0.0
    };
    probe_cost + reset_cost
}

/// Per-phase cycle attribution for a slice of kernel work, mirroring
/// the five phases of the search loop (Fig. 6): top-M sort, parent
/// selection/control, neighbor-list expansion, distance computation,
/// and visited-hash maintenance. Makes the cost model's attribution
/// inspectable instead of a single opaque total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct CycleBreakdown {
    /// Top-M candidate sort/merge cycles.
    pub sort: f64,
    /// Parent selection + fixed per-iteration control cycles.
    pub parent_select: f64,
    /// Neighbor-list (graph adjacency) fetch cycles.
    pub expand: f64,
    /// Distance-computation cycles.
    pub distance: f64,
    /// Visited-hash probe/reset cycles.
    pub hash: f64,
}

impl CycleBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.sort + self.parent_select + self.expand + self.distance + self.hash
    }

    /// Accumulate another breakdown into this one.
    pub fn accumulate(&mut self, other: &CycleBreakdown) {
        self.sort += other.sort;
        self.parent_select += other.parent_select;
        self.expand += other.expand;
        self.distance += other.distance;
        self.hash += other.hash;
    }

    /// Scale every phase (e.g. by a CTA count).
    pub fn scaled(&self, factor: f64) -> CycleBreakdown {
        CycleBreakdown {
            sort: self.sort * factor,
            parent_select: self.parent_select * factor,
            expand: self.expand * factor,
            distance: self.distance * factor,
            hash: self.hash * factor,
        }
    }
}

/// Phase-attributed cycles one CTA spends on one search iteration,
/// `it` with the table's work in it, `round`.
pub fn iteration_breakdown(
    device: &DeviceSpec,
    cfg: &KernelConfig,
    occ: &Occupancy,
    it: &IterationTrace,
    round: &SimRound,
) -> CycleBreakdown {
    CycleBreakdown {
        sort: topm_cycles(cfg, it.sort_len),
        parent_select: 120.0, // fixed per-iteration control overhead
        expand: (cfg.degree as f64 * 4.0 / 128.0).ceil() * 40.0, // neighbor-list loads
        distance: distance_cycles(cfg, occ, it.distances_computed),
        hash: hash_cycles(device, cfg, round),
    }
}

/// Phase-attributed cycles for the random-initialization phase.
pub fn init_breakdown(cfg: &KernelConfig, occ: &Occupancy, init_distances: u64) -> CycleBreakdown {
    CycleBreakdown {
        distance: distance_cycles(cfg, occ, init_distances),
        sort: topm_cycles(cfg, init_distances),
        ..CycleBreakdown::default()
    }
}

/// Device-memory bytes one query moves (dataset vectors + neighbor
/// lists + a device-resident hash).
pub fn query_bytes(cfg: &KernelConfig, trace: &SimTrace) -> f64 {
    // Lane waste loads real bytes: a 96-dim FP32 vector on a full-warp
    // team moves 512 of its 384 useful bytes (Sec. IV-B1).
    let host = &trace.host;
    let vector_bytes = host.total_distances() as f64 * (cfg.dim * cfg.bytes_per_elem) as f64
        / cfg.lane_efficiency();
    let graph_bytes: f64 = host.iterations.iter().map(|i| (i.candidates * 4) as f64).sum();
    let hash_bytes = if cfg.hash_in_shared {
        0.0
    } else {
        // Each device-memory probe is its own DRAM transaction.
        trace.sim.total_hash_probes() as f64 * 32.0
    };
    vector_bytes + graph_bytes + hash_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SimRecord;
    use cagra::search::trace::SearchTrace;

    fn cfg(team: usize, dim: usize) -> KernelConfig {
        KernelConfig {
            team_size: team,
            dim,
            bytes_per_elem: 4,
            itopk: 64,
            hash_slots: 2048,
            hash_in_shared: true,
            degree: 32,
            cta_threads: 256,
            serial_queue: false,
        }
    }

    #[test]
    fn loads_per_team_matches_paper_example() {
        // Sec. IV-B1: dim 96 FP32 = 3072 bits; team of 8 loads 1024
        // bits per instruction -> 3 loads.
        let c = cfg(8, 96);
        assert_eq!(c.loads_per_team(), 3);
        assert_eq!(c.teams_per_warp(), 4);
        // A full warp (team 32) covers 4096 bits in one go.
        assert_eq!(cfg(32, 96).loads_per_team(), 1);
    }

    #[test]
    fn fp16_halves_the_loads() {
        let mut c = cfg(8, 96);
        c.bytes_per_elem = 2;
        assert_eq!(c.loads_per_team(), 2); // 1536 bits / 1024
        let mut big = cfg(8, 960);
        assert_eq!(big.loads_per_team(), 30);
        big.bytes_per_elem = 2;
        assert_eq!(big.loads_per_team(), 15);
    }

    #[test]
    fn small_teams_burn_registers() {
        assert!(cfg(2, 96).registers_per_thread() > cfg(8, 96).registers_per_thread());
        // GIST at team 2 exceeds the per-thread ceiling -> spills.
        let d = DeviceSpec::a100();
        let occ = cta_occupancy(&d, &cfg(2, 960));
        assert!(occ.spill_ratio > 0.0);
        let occ8 = cta_occupancy(&d, &cfg(32, 960));
        assert_eq!(occ8.spill_ratio, 0.0);
    }

    #[test]
    fn occupancy_limited_by_registers_for_small_teams() {
        let d = DeviceSpec::a100();
        let occ2 = cta_occupancy(&d, &cfg(2, 96));
        let occ8 = cta_occupancy(&d, &cfg(8, 96));
        assert!(occ2.ctas_per_sm <= occ8.ctas_per_sm, "{occ2:?} vs {occ8:?}");
    }

    #[test]
    fn team_size_sweet_spot_for_small_dim() {
        // Fig. 8 (DEEP-1M, dim 96): team 4/8 beat 2 and 32.
        let d = DeviceSpec::a100();
        let it = IterationTrace { candidates: 32, distances_computed: 28, sort_len: 32 };
        let round = SimRound { probes: 40, reset: false };
        let score = |team| {
            let c = cfg(team, 96);
            let occ = cta_occupancy(&d, &c);
            // Throughput ~ parallel CTAs / per-iteration time.
            occ.ctas_per_sm as f64 / iteration_breakdown(&d, &c, &occ, &it, &round).total()
        };
        let (s2, s8, s32) = (score(2), score(8), score(32));
        assert!(s8 > s2, "team8 {s8} must beat team2 {s2}");
        assert!(s8 >= s32, "team8 {s8} must be >= team32 {s32}");
    }

    #[test]
    fn team_32_wins_for_large_dim() {
        // Fig. 8 (GIST, dim 960): full-warp teams win.
        let d = DeviceSpec::a100();
        let it = IterationTrace { candidates: 48, distances_computed: 40, sort_len: 48 };
        let round = SimRound { probes: 60, reset: false };
        let score = |team| {
            let c = cfg(team, 960);
            let occ = cta_occupancy(&d, &c);
            occ.ctas_per_sm as f64 / iteration_breakdown(&d, &c, &occ, &it, &round).total()
        };
        assert!(score(32) > score(4), "32: {} vs 4: {}", score(32), score(4));
        assert!(score(32) > score(2), "32: {} vs 2: {}", score(32), score(2));
    }

    #[test]
    fn shared_hash_is_cheaper_per_probe() {
        let d = DeviceSpec::a100();
        let it = IterationTrace { candidates: 32, distances_computed: 10, sort_len: 32 };
        let round = SimRound { probes: 50, reset: false };
        let shared = cfg(8, 96);
        let mut device_hash = cfg(8, 96);
        device_hash.hash_in_shared = false;
        let occ = cta_occupancy(&d, &shared);
        assert!(
            iteration_breakdown(&d, &shared, &occ, &it, &round).total()
                < iteration_breakdown(&d, &device_hash, &occ, &it, &round).total()
        );
    }

    #[test]
    fn huge_itopk_pays_radix_penalty() {
        let d = DeviceSpec::a100();
        let it = IterationTrace { candidates: 32, distances_computed: 10, sort_len: 32 };
        let round = SimRound { probes: 30, reset: false };
        let small = cfg(8, 96);
        let mut big = cfg(8, 96);
        big.itopk = 1024;
        let occ = cta_occupancy(&d, &small);
        assert!(
            iteration_breakdown(&d, &big, &occ, &it, &round).total()
                > 2.0 * iteration_breakdown(&d, &small, &occ, &it, &round).total()
        );
    }

    #[test]
    fn query_bytes_scale_with_precision() {
        let trace = SimTrace {
            host: SearchTrace {
                init_distances: 32,
                iterations: vec![IterationTrace {
                    candidates: 32,
                    distances_computed: 20,
                    sort_len: 32,
                }],
                itopk: 64,
                search_width: 1,
                degree: 32,
                num_workers: 1,
                scratch_reused: false,
            },
            sim: SimRecord {
                rounds: vec![SimRound { probes: 40, reset: false }],
                hash_slots: 2048,
                hash_in_shared: true,
                serial_queue: false,
                accesses: None,
            },
        };
        let fp32 = query_bytes(&cfg(8, 96), &trace);
        let mut half = cfg(8, 96);
        half.bytes_per_elem = 2;
        let fp16 = query_bytes(&half, &trace);
        assert!(fp16 < fp32);
        assert!(fp16 > 0.4 * fp32);
    }
}
