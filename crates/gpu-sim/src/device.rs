//! Device specifications and the Fig. 7 mapping rule they decide.

use cagra::search::planner::Mode;
use serde::{Deserialize, Serialize};

/// The hardware parameters the cost model consumes. Defaults mirror
/// the paper's NVIDIA A100 (80 GB, SXM).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: String,
    /// Streaming multiprocessors (the paper's recommended `b_T`).
    pub sm_count: usize,
    /// Warp scheduler limit per SM.
    pub max_warps_per_sm: usize,
    /// Thread-block limit per SM.
    pub max_ctas_per_sm: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Per-thread register ceiling before spilling.
    pub max_registers_per_thread: usize,
    /// Usable shared memory per SM, bytes.
    pub shared_mem_per_sm: usize,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Device (HBM) bandwidth, GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Average amortized cost of a dependent device-memory access,
    /// cycles.
    pub device_latency_cycles: f64,
    /// Average amortized cost of a shared-memory access, cycles.
    pub shared_latency_cycles: f64,
    /// Kernel launch overhead, microseconds (dominates tiny batches).
    pub launch_overhead_us: f64,
}

impl DeviceSpec {
    /// The paper's evaluation GPU: A100-SXM 80 GB.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100-SXM4-80GB".to_string(),
            sm_count: 108,
            max_warps_per_sm: 64,
            max_ctas_per_sm: 32,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 164 * 1024,
            clock_ghz: 1.41,
            mem_bandwidth_gbps: 2039.0,
            device_latency_cycles: 290.0,
            shared_latency_cycles: 25.0,
            launch_overhead_us: 8.0,
        }
    }

    /// Internal top-M threshold `M_T` of Fig. 7 (the paper recommends
    /// 512).
    pub const ITOPK_THRESHOLD: usize = 512;

    /// The paper's Fig. 7 rule: multi-CTA when the batch cannot give
    /// every SM a query (`batch < b_T`, with `b_T` the SM count) or
    /// when single-CTA's top-M update would dominate (`itopk > M_T`),
    /// single-CTA otherwise.
    pub fn mapping(&self, batch: usize, itopk: usize) -> Mode {
        if batch < self.sm_count || itopk > Self::ITOPK_THRESHOLD {
            Mode::MultiCta
        } else {
            Mode::SingleCta
        }
    }

    /// Seconds represented by `cycles` core cycles.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Seconds needed to move `bytes` through device memory.
    pub fn bytes_to_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.mem_bandwidth_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_published_numbers() {
        let d = DeviceSpec::a100();
        assert_eq!(d.sm_count, 108);
        assert_eq!(d.registers_per_sm, 65_536);
        assert!((d.clock_ghz - 1.41).abs() < 1e-9);
    }

    #[test]
    fn single_query_goes_multi() {
        assert_eq!(DeviceSpec::a100().mapping(1, 64), Mode::MultiCta);
    }

    #[test]
    fn large_batch_small_itopk_goes_single() {
        assert_eq!(DeviceSpec::a100().mapping(10_000, 64), Mode::SingleCta);
    }

    #[test]
    fn large_itopk_forces_multi_even_for_large_batches() {
        assert_eq!(DeviceSpec::a100().mapping(10_000, 1024), Mode::MultiCta);
    }

    #[test]
    fn mapping_boundaries() {
        let d = DeviceSpec::a100();
        let m_t = DeviceSpec::ITOPK_THRESHOLD;
        // batch == b_T is "not smaller" -> single.
        assert_eq!(d.mapping(d.sm_count, 64), Mode::SingleCta);
        assert_eq!(d.mapping(d.sm_count - 1, 64), Mode::MultiCta);
        // itopk == M_T is "not larger" -> single.
        assert_eq!(d.mapping(10_000, m_t), Mode::SingleCta);
        assert_eq!(d.mapping(10_000, m_t + 1), Mode::MultiCta);
    }

    #[test]
    fn unit_conversions() {
        let d = DeviceSpec::a100();
        let s = d.cycles_to_seconds(1.41e9);
        assert!((s - 1.0).abs() < 1e-9);
        let s = d.bytes_to_seconds(2039.0 * 1e9);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
