//! 128-bit memory-transaction replay: how many DRAM transactions a
//! kernel's gathers cost under a given vertex *numbering*.
//!
//! The cycle model in [`crate::cost`] prices each phase from operation
//! counts, which are invariant under relabeling — by design, a
//! relabeled index performs bit-identical work. What relabeling changes
//! is *where* that work lands in memory: gathers of nearby ids share
//! 128-byte lines and stay resident in cache, gathers of scattered ids
//! each pay a full line fill. This module replays the memory-access
//! log a simulated search recorded ([`crate::AccessLog`]) against
//! a flat address-space layout and a small direct-mapped cache, and
//! counts the 128-bit (16-byte) transactions the misses would issue —
//! the quantity Sec. IV-B1 of the paper optimizes.
//!
//! The replay is deterministic and exact for the model: same trace,
//! same layout, same counts. Comparing counts across relabel
//! strategies on the *same* trace isolates the layout effect.

use crate::trace::AccessLog;
use serde::Serialize;

/// Bytes per cache line / memory segment.
pub const LINE_BYTES: u64 = 128;
/// 128-bit transactions per line fill (128 bytes / 16 bytes).
pub const TX_PER_LINE: u64 = 8;
/// Default cache size in lines: 192 KiB, the unified L1/shared storage
/// of an A100 SM — the cache a single query's CTA actually sees.
pub const DEFAULT_CACHE_LINES: usize = 1536;

/// Flat device address space for one index: adjacency rows first,
/// vector rows after (aligned to a line boundary), every row
/// contiguous. Mirrors how both arrays are actually stored.
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    n: usize,
    adj_row_bytes: u64,
    vec_row_bytes: u64,
    vec_base: u64,
}

impl MemLayout {
    /// Layout for `n` nodes of graph degree `degree` and
    /// `vec_row_bytes` bytes per vector row (`dim * bytes_per_elem`).
    pub fn new(n: usize, degree: usize, vec_row_bytes: usize) -> MemLayout {
        let adj_row_bytes = (degree as u64) * 4;
        let adj_total = adj_row_bytes * n as u64;
        MemLayout {
            n,
            adj_row_bytes,
            vec_row_bytes: vec_row_bytes as u64,
            vec_base: adj_total.div_ceil(LINE_BYTES) * LINE_BYTES,
        }
    }

    /// Node count the layout covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the zero-node layout.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Byte range of node `id`'s adjacency row.
    fn adj_range(&self, id: u32) -> (u64, u64) {
        let start = id as u64 * self.adj_row_bytes;
        (start, start + self.adj_row_bytes)
    }

    /// Byte range of node `id`'s vector row.
    fn vec_range(&self, id: u32) -> (u64, u64) {
        let start = self.vec_base + id as u64 * self.vec_row_bytes;
        (start, start + self.vec_row_bytes)
    }
}

/// Direct-mapped cache of [`LINE_BYTES`] lines: one tag per set, a
/// first-order stand-in for the L1/L2 a gather stream sees. Direct
/// mapping makes conflict misses visible, which is exactly what hub
/// packing (degree relabeling) relieves.
#[derive(Clone, Debug)]
pub struct CacheModel {
    tags: Vec<u64>,
}

impl CacheModel {
    /// A cold cache of `lines` sets.
    pub fn new(lines: usize) -> CacheModel {
        assert!(lines > 0, "cache must have at least one line");
        CacheModel { tags: vec![u64::MAX; lines] }
    }

    /// Touch the byte range `[start, end)`, returning the number of
    /// 128-bit transactions issued (8 per missed line, 0 per hit).
    fn touch(&mut self, start: u64, end: u64) -> u64 {
        let mut tx = 0;
        let first = start / LINE_BYTES;
        let last = (end.max(start + 1) - 1) / LINE_BYTES;
        for line in first..=last {
            let set = (line % self.tags.len() as u64) as usize;
            if self.tags[set] != line {
                self.tags[set] = line;
                tx += TX_PER_LINE;
            }
        }
        tx
    }
}

/// 128-bit transaction counts per kernel phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TxCounts {
    /// Vector-row gathers during random initialization.
    pub init: u64,
    /// Adjacency-row gathers during parent expansion.
    pub expand: u64,
    /// Vector-row gathers for scored (first-visit) neighbors.
    pub distance: u64,
}

impl TxCounts {
    /// Sum across phases.
    pub fn total(&self) -> u64 {
        self.init + self.expand + self.distance
    }

    /// Accumulate another count into this one.
    pub fn accumulate(&mut self, other: &TxCounts) {
        self.init += other.init;
        self.expand += other.expand;
        self.distance += other.distance;
    }

    /// Add these counts to the `sim.tx_*` observability counters.
    pub fn record(&self) {
        let m = obs::metrics();
        m.sim_tx_init.add(self.init);
        m.sim_tx_expand.add(self.expand);
        m.sim_tx_distance.add(self.distance);
    }
}

/// Replay one search's access log against `layout` on `cache`,
/// returning per-phase transaction counts. A batch replays each query
/// on its own cold cache (one CTA per query: queries do not share an
/// SM's L1).
pub fn replay_log(layout: &MemLayout, cache: &mut CacheModel, log: &AccessLog) -> TxCounts {
    let mut tx = TxCounts::default();
    for &id in &log.init_scored {
        let (s, e) = layout.vec_range(id);
        tx.init += cache.touch(s, e);
    }
    for it in &log.iterations {
        for &p in &it.parents {
            let (s, e) = layout.adj_range(p);
            tx.expand += cache.touch(s, e);
        }
        for &id in &it.scored {
            let (s, e) = layout.vec_range(id);
            tx.distance += cache.touch(s, e);
        }
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::IterAccess;

    fn log_with(init: Vec<u32>, iters: Vec<IterAccess>) -> AccessLog {
        AccessLog { init_scored: init, iterations: iters }
    }

    #[test]
    fn adjacent_rows_share_lines() {
        // 32-byte vector rows: four consecutive ids fit in one line.
        let layout = MemLayout::new(64, 8, 32);
        let mut cache = CacheModel::new(DEFAULT_CACHE_LINES);
        let t = log_with(vec![0, 1, 2, 3], vec![]);
        let tx = replay_log(&layout, &mut cache, &t);
        assert_eq!(tx.init, TX_PER_LINE, "four rows in one line = one fill");

        // The same four rows scattered: four separate fills.
        let mut cold = CacheModel::new(DEFAULT_CACHE_LINES);
        let t = log_with(vec![0, 16, 32, 48], vec![]);
        let tx = replay_log(&layout, &mut cold, &t);
        assert_eq!(tx.init, 4 * TX_PER_LINE);
    }

    #[test]
    fn cache_hits_are_free_and_conflicts_cost() {
        let layout = MemLayout::new(1024, 8, 128);
        let mut cache = CacheModel::new(4); // tiny: 4 lines
        let t = log_with(vec![], vec![IterAccess { parents: vec![], scored: vec![7, 7, 7] }]);
        let tx = replay_log(&layout, &mut cache, &t);
        assert_eq!(tx.distance, TX_PER_LINE, "re-touching a resident line is free");

        // ids 0 and 4 map to the same set in a 4-line cache
        // (128-byte rows = one line per id): alternating evicts.
        let mut cache = CacheModel::new(4);
        let t = log_with(vec![], vec![IterAccess { parents: vec![], scored: vec![0, 4, 0, 4] }]);
        let tx = replay_log(&layout, &mut cache, &t);
        assert_eq!(tx.distance, 4 * TX_PER_LINE, "conflict misses every touch");
    }

    #[test]
    fn phases_attribute_to_their_own_counter() {
        let layout = MemLayout::new(256, 16, 64);
        let mut cache = CacheModel::new(DEFAULT_CACHE_LINES);
        let t = log_with(vec![3], vec![IterAccess { parents: vec![9], scored: vec![200] }]);
        let tx = replay_log(&layout, &mut cache, &t);
        assert!(tx.init > 0);
        assert!(tx.expand > 0);
        assert!(tx.distance > 0);
        assert_eq!(tx.total(), tx.init + tx.expand + tx.distance);
    }

    #[test]
    fn empty_access_log_contributes_zero() {
        let layout = MemLayout::new(16, 4, 16);
        let mut cache = CacheModel::new(8);
        assert_eq!(replay_log(&layout, &mut cache, &AccessLog::default()), TxCounts::default());
    }

    #[test]
    fn vectors_do_not_alias_adjacency() {
        // Adjacency of the last node and vector of node 0 must land on
        // different lines (the vector base is line-aligned past the
        // adjacency block).
        let layout = MemLayout::new(10, 4, 16); // adjacency: 160 bytes
        let (adj_s, adj_e) = layout.adj_range(9);
        let (vec_s, _) = layout.vec_range(0);
        assert!(adj_e <= vec_s);
        assert_eq!(vec_s % LINE_BYTES, 0);
        assert!(adj_s / LINE_BYTES <= vec_s / LINE_BYTES);
    }
}
