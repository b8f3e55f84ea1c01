//! What a simulated search records beyond the host's
//! [`SearchTrace`]: the visited table's work per round, where the
//! table lives, how the candidate queue is kept, and optionally every
//! row the search gathered. [`SimTrace`] is the one type this crate
//! prices.

use cagra::search::trace::SearchTrace;

/// The visited table's work in one round (one entry per
/// [`SearchTrace::iterations`] entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimRound {
    /// Hash probe steps the round's expansions took (a reset's
    /// re-registrations are not counted).
    pub probes: u64,
    /// Whether the forgettable table was reset before this round.
    pub reset: bool,
}

/// Internal-layout node ids touched during one iteration (or round,
/// for multi-CTA).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterAccess {
    /// Parents expanded: each costs one adjacency-row gather.
    pub parents: Vec<u32>,
    /// Nodes whose distances were computed: each costs one vector-row
    /// gather (hash-suppressed neighbors never load their vector).
    pub scored: Vec<u32>,
}

/// Chronological memory-access log of one search, in *internal*
/// (physical layout) node ids — the input to [`crate::replay_log`]'s
/// 128-bit transaction replay, which is how relabeling strategies are
/// compared in simulated memory traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessLog {
    /// Nodes scored during random initialization (vector-row gathers).
    pub init_scored: Vec<u32>,
    /// Per-iteration adjacency/vector gathers, in traversal order.
    pub iterations: Vec<IterAccess>,
}

/// What a simulated kernel records beyond the host trace.
#[derive(Clone, Debug, Default)]
pub struct SimRecord {
    /// Per-round table work, parallel to the host trace's iterations.
    pub rounds: Vec<SimRound>,
    /// Visited-table slot count.
    pub hash_slots: usize,
    /// True when the table was the forgettable one (shared-memory
    /// resident in the GPU mapping).
    pub hash_in_shared: bool,
    /// True when the kernel maintains its candidate queue with
    /// serialized insertions (SONG-style bounded priority queue)
    /// rather than CAGRA's warp-wide bitonic sort+merge. The cost
    /// model prices the two differently — removing this serialization
    /// is one of CAGRA's kernel contributions (Sec. IV-B2).
    pub serial_queue: bool,
    /// Memory-access log (internal ids), present only when the search
    /// ran with access logging on.
    pub accesses: Option<AccessLog>,
}

impl SimRecord {
    /// Total hash probes.
    pub fn total_hash_probes(&self) -> u64 {
        self.rounds.iter().map(|r| r.probes).sum()
    }
}

/// A simulated search's trace: the host loop's counts plus what the
/// GPU's table recorded. Every pricing entry of this crate takes it.
#[derive(Clone, Debug, Default)]
pub struct SimTrace {
    /// The host loop's counts.
    pub host: SearchTrace,
    /// The simulated table's record.
    pub sim: SimRecord,
}

impl SimTrace {
    /// The empty trace of a SONG-style kernel (SONG, GGNN, GANNS): one
    /// worker expanding one parent per round over a bounded queue of
    /// `queue` entries kept with serialized inserts, and a visited
    /// table of `hash_slots` slots in device memory.
    pub fn serial(queue: usize, degree: usize, hash_slots: usize) -> SimTrace {
        let host = SearchTrace {
            itopk: queue,
            degree,
            search_width: 1,
            num_workers: 1,
            ..Default::default()
        };
        SimTrace { host, sim: SimRecord { hash_slots, serial_queue: true, ..Default::default() } }
    }
}
