//! Execution traces: the per-round operation counts of a search.
//!
//! The search algorithm is functional — recall comes from the real
//! traversal — and these counts say what it did: distances scored,
//! neighbor slots filled, the segment a GPU warp would sort. The
//! `gpu-sim` crate prices them as simulated GPU time together with
//! what its own visited tables record (probes, resets, the access
//! log), so one search implementation serves both the CPU benchmarks
//! (wall clock) and the GPU model (simulated cycles).

use serde::{Deserialize, Serialize};

/// Counts for one search iteration (steps 1–3 of Fig. 6).
///
/// All counts are `u64` regardless of platform, so serialized traces
/// are portable and summation cannot overflow on 32-bit targets.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct IterationTrace {
    /// Neighbor slots the round's expansions filled, visited or not
    /// (`parents × d` summed over workers).
    pub candidates: u64,
    /// Distances actually computed (first-visit neighbors).
    pub distances_computed: u64,
    /// Length of the widest worker's segment the GPU sorts in step 1.
    pub sort_len: u64,
}

/// Counts for one whole query search.
///
/// Event counts are `u64` (see [`IterationTrace`]); configuration
/// echoes (`itopk`, `degree`, ...) remain `usize` since they describe
/// in-memory shapes, not accumulated counts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Distances computed for the random initialization step.
    pub init_distances: u64,
    /// Per-iteration counts, in order.
    pub iterations: Vec<IterationTrace>,
    /// Internal top-M length used.
    pub itopk: usize,
    /// Search width `p` (parents per iteration, per worker).
    pub search_width: usize,
    /// Graph degree `d`.
    pub degree: usize,
    /// Number of cooperating workers (1 for single-CTA).
    pub num_workers: usize,
    /// True when the recording search ran on recycled per-thread
    /// scratch (zero steady-state allocations) rather than freshly
    /// allocated working state. Purely informational — results are
    /// bit-identical either way — but surfaced so QPS reports state
    /// which execution path produced them.
    #[serde(default)]
    pub scratch_reused: bool,
}

impl SearchTrace {
    /// Total distance computations including initialization.
    pub fn total_distances(&self) -> u64 {
        self.init_distances + self.iterations.iter().map(|i| i.distances_computed).sum::<u64>()
    }

    /// Number of iterations executed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_iterations() {
        let t = SearchTrace {
            init_distances: 10,
            iterations: vec![
                IterationTrace { candidates: 32, distances_computed: 20, sort_len: 32 },
                IterationTrace { candidates: 32, distances_computed: 5, sort_len: 32 },
            ],
            ..Default::default()
        };
        assert_eq!(t.total_distances(), 35);
        assert_eq!(t.iteration_count(), 2);
    }
}
