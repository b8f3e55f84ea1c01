//! Multi-GPU timing for the sharded deployment (Sec. IV-C2 / Q-C5).
//!
//! Each device owns one shard's graph and dataset; a query broadcast
//! to all devices completes when the slowest device finishes, and the
//! host merges the per-shard top-k lists (a negligible k·shards merge,
//! modeled as a fixed per-query cost). This is the deployment the
//! paper recommends once a dataset no longer fits one device's memory.

use crate::device::DeviceSpec;
use crate::exec::{simulate_batch, BatchTiming};
use crate::trace::SimTrace;
use cagra::search::planner::Mode;

/// Result of simulating a sharded launch across identical devices.
#[derive(Clone, Debug)]
pub struct MultiGpuTiming {
    /// End-to-end seconds (slowest device + host merge).
    pub seconds: f64,
    /// Queries per second.
    pub qps: f64,
    /// Per-device timings, one per shard.
    pub per_device: Vec<BatchTiming>,
}

/// Host-side merge cost per query (k-way merge of tiny sorted lists).
const MERGE_SECONDS_PER_QUERY: f64 = 2.0e-8;

/// Simulate a batch where query `q`'s work on shard `s` is
/// `shard_traces[s][q]`. All shards run concurrently on their own
/// device.
///
/// # Panics
/// Panics if shards disagree on the batch size or there are no shards,
/// and wherever [`simulate_batch`] panics.
pub fn simulate_sharded_batch(
    device: &DeviceSpec,
    shard_traces: &[Vec<SimTrace>],
    dim: usize,
    bytes_per_elem: usize,
    team_size: usize,
    mapping: Mode,
) -> MultiGpuTiming {
    assert!(!shard_traces.is_empty(), "need at least one shard");
    let batch = shard_traces[0].len();
    assert!(batch > 0, "empty batch");
    assert!(
        shard_traces.iter().all(|t| t.len() == batch),
        "all shards must process the same batch"
    );
    let per_device: Vec<BatchTiming> = shard_traces
        .iter()
        .map(|traces| simulate_batch(device, traces, dim, bytes_per_elem, team_size, mapping))
        .collect();
    let slowest = per_device.iter().map(|t| t.seconds).fold(0.0, f64::max);
    let seconds = slowest + MERGE_SECONDS_PER_QUERY * batch as f64;
    MultiGpuTiming { seconds, qps: batch as f64 / seconds, per_device }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SimRecord, SimRound};
    use cagra::search::trace::{IterationTrace, SearchTrace};

    fn trace(iters: usize) -> SimTrace {
        let it = IterationTrace { candidates: 32, distances_computed: 20, sort_len: 32 };
        SimTrace {
            host: SearchTrace {
                init_distances: 32,
                iterations: vec![it; iters],
                itopk: 64,
                search_width: 1,
                degree: 32,
                num_workers: 1,
                scratch_reused: false,
            },
            sim: SimRecord {
                rounds: vec![SimRound { probes: 48, reset: false }; iters],
                hash_slots: 2048,
                hash_in_shared: true,
                serial_queue: false,
                accesses: None,
            },
        }
    }

    #[test]
    fn completion_is_bounded_by_the_slowest_shard() {
        let d = DeviceSpec::a100();
        let fast: Vec<_> = (0..100).map(|_| trace(8)).collect();
        let slow: Vec<_> = (0..100).map(|_| trace(64)).collect();
        let t =
            simulate_sharded_batch(&d, &[fast.clone(), slow.clone()], 96, 4, 8, Mode::SingleCta);
        let slow_alone = simulate_batch(&d, &slow, 96, 4, 8, Mode::SingleCta);
        assert!(t.seconds >= slow_alone.seconds, "{} < {}", t.seconds, slow_alone.seconds);
        assert_eq!(t.per_device.len(), 2);
    }

    #[test]
    fn sharding_shrinks_per_device_time_for_equal_total_work() {
        // Splitting a dataset in half roughly halves each device's
        // traversal depth; two devices in parallel finish sooner than
        // one device doing the full-depth search.
        let d = DeviceSpec::a100();
        let full: Vec<_> = (0..2000).map(|_| trace(32)).collect();
        let half: Vec<_> = (0..2000).map(|_| trace(18)).collect();
        let single = simulate_batch(&d, &full, 96, 4, 8, Mode::SingleCta);
        let sharded = simulate_sharded_batch(&d, &[half.clone(), half], 96, 4, 8, Mode::SingleCta);
        assert!(sharded.qps > single.qps, "sharded {} vs single {}", sharded.qps, single.qps);
    }

    #[test]
    #[should_panic(expected = "same batch")]
    fn mismatched_batches_rejected() {
        let d = DeviceSpec::a100();
        let a = vec![trace(4)];
        let b = vec![trace(4), trace(4)];
        simulate_sharded_batch(&d, &[a, b], 96, 4, 8, Mode::SingleCta);
    }
}
