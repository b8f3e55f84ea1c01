//! Execution traces: the per-iteration operation counts that the
//! `gpu-sim` crate converts into simulated GPU time.
//!
//! The search algorithm is functional — recall comes from the real
//! traversal — while timing is derived afterward from these counts, so
//! one search implementation serves both the CPU benchmarks (wall
//! clock) and the GPU model (simulated cycles).

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
    /// Hash probe steps performed this iteration (0 on the host).
    pub hash_probes: u64,
    /// Length of the widest worker's segment the GPU sorts in step 1.
    pub sort_len: u64,
    /// Whether the forgettable table was reset before this iteration.
    pub hash_reset: bool,
}

/// Internal-layout node ids touched during one iteration (or round,
/// for multi-CTA), recorded only when access logging is enabled.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IterAccess {
    /// Parents expanded: each costs one adjacency-row gather.
    pub parents: Vec<u32>,
    /// Nodes whose distances were computed: each costs one vector-row
    /// gather (hash-suppressed neighbors never load their vector).
    pub scored: Vec<u32>,
}

/// Chronological memory-access log of one search, in *internal*
/// (physical layout) node ids — the input to `gpu-sim`'s 128-bit
/// transaction replay, which is how relabeling strategies are compared
/// in simulated memory traffic. Recorded only by `gpu-sim`'s searches
/// that ask for it, because the log allocates per query.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AccessLog {
    /// Nodes scored during random initialization (vector-row gathers).
    pub init_scored: Vec<u32>,
    /// Per-iteration adjacency/vector gathers, in traversal order.
    pub iterations: Vec<IterAccess>,
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
    /// Hash table slot count; 0 for a host search, which runs no hash
    /// table.
    pub hash_slots: usize,
    /// True when the hash policy was forgettable (shared-memory
    /// resident in the GPU mapping).
    pub hash_in_shared: bool,
    /// True when the recording search maintains its candidate queue
    /// with serialized insertions (SONG-style bounded priority queue)
    /// rather than CAGRA's warp-wide bitonic sort+merge. The cost
    /// model prices the two differently — removing this serialization
    /// is one of CAGRA's kernel contributions (Sec. IV-B2).
    #[serde(default)]
    pub serial_queue: bool,
    /// True when the recording search ran on recycled per-thread
    /// scratch (zero steady-state allocations) rather than freshly
    /// allocated working state. Purely informational — results are
    /// bit-identical either way — but surfaced so QPS reports state
    /// which execution path produced them.
    #[serde(default)]
    pub scratch_reused: bool,
    /// Memory-access log (internal ids), present only when the search
    /// ran with access logging on.
    #[serde(default)]
    pub accesses: Option<AccessLog>,
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

    /// Total hash probes.
    pub fn total_hash_probes(&self) -> u64 {
        self.iterations.iter().map(|i| i.hash_probes).sum()
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
                IterationTrace {
                    candidates: 32,
                    distances_computed: 20,
                    hash_probes: 40,
                    sort_len: 32,
                    hash_reset: false,
                },
                IterationTrace {
                    candidates: 32,
                    distances_computed: 5,
                    hash_probes: 35,
                    sort_len: 32,
                    hash_reset: true,
                },
            ],
            ..Default::default()
        };
        assert_eq!(t.total_distances(), 35);
        assert_eq!(t.iteration_count(), 2);
        assert_eq!(t.total_hash_probes(), 75);
    }
}
