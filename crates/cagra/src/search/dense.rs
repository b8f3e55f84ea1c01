//! The host's visited set: one generation stamp per graph row.
//!
//! The GPU's hash tables (`gpu-sim`) are sized to its memory; the host
//! can afford 4 bytes per graph row per scratch. A visit check is one
//! load and one store, and the table never fills, so it admits exactly
//! what a standard hash table admits. Starting a query is one
//! generation increment.

use super::kernel::Hook;

/// Generation a new table starts in. Slots are allocated zeroed and
/// generation 0 is never current, so they read as empty. Starting a
/// thousand resets short of the wrap (the kernel's `INITIAL_JIFFIES`
/// trick) means every long-lived table crosses it early, not once in
/// 2^32 resets where nobody would see it break.
pub const FIRST_GENERATION: u32 = u32::MAX - 1000;

/// Generation-stamped visited flags over graph rows.
#[derive(Clone, Debug)]
pub struct DenseVisited {
    /// Generation each row was last visited in (0: never); visited iff
    /// current.
    stamps: Vec<u32>,
    generation: u32,
}

impl Default for DenseVisited {
    fn default() -> Self {
        DenseVisited { stamps: Vec::new(), generation: FIRST_GENERATION }
    }
}

impl DenseVisited {
    /// Forget every row and cover rows `0..rows` for the next query.
    pub fn restart(&mut self, rows: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A stamp from the previous cycle would otherwise come back
            // to life when its generation number is reused.
            self.stamps.fill(0);
            self.generation = 1;
        }
        if self.stamps.len() < rows {
            // Fresh zeroed memory: the OS maps pages as they are touched.
            self.stamps = vec![0; rows];
        }
        #[cfg(feature = "debug_invariants")]
        {
            // ALLOW(panic): compiled only under `debug_invariants`.
            assert!(self.stamps.len() >= rows, "dense visited table does not cover the graph");
            // ALLOW(panic): compiled only under `debug_invariants`.
            assert_ne!(self.generation, 0, "generation 0 marks never-written stamps");
        }
    }
}

impl Hook for DenseVisited {
    fn begin(&mut self, rows: usize, _max_rounds: usize, _round_slots: usize) {
        self.restart(rows);
    }

    /// Mark `id` visited; returns `true` on its first visit since the
    /// last [`DenseVisited::restart`].
    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        // ALLOW(panic): ids are graph rows — `FixedDegreeGraph` stores
        // only ids below its length, random starts are drawn below it
        // through a bijective id map — and the kernel restarts this
        // table over `graph.len()` rows.
        let stamp = &mut self.stamps[id as usize];
        let fresh = *stamp != self.generation;
        *stamp = self.generation;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_visits_per_query() {
        let mut v = DenseVisited::default();
        v.restart(8);
        assert!(v.insert(3) && !v.insert(3) && v.insert(7));
        v.restart(8);
        assert!(v.insert(3), "a restart forgets every row");
        // Growing to a larger graph keeps the table usable.
        v.restart(20);
        assert!(v.insert(19) && v.insert(3) && !v.insert(19));
    }

    #[test]
    fn restart_across_the_wrap_wipes_stale_stamps() {
        // A row stamped in the generation the counter is about to reuse
        // must not read as visited after the wrap.
        let mut v = DenseVisited::default();
        v.restart(8);
        v.generation = 1;
        assert!(v.insert(3));
        v.generation = u32::MAX;
        assert!(v.insert(5));
        v.restart(8);
        assert_eq!(v.generation, 1, "0 is reserved for never-written stamps");
        assert!(v.insert(3), "a stamp from the previous cycle came back to life");
        assert!(v.insert(5) && !v.insert(5));
        // A fresh table meets the wrap within its first 1001 restarts.
        let mut v = DenseVisited::default();
        let start = v.generation;
        for round in 0..1100u32 {
            v.restart(4);
            assert!(v.insert(round % 4), "round {round}");
            assert!(!v.insert(round % 4));
        }
        assert!(v.generation < start, "the counter wrapped");
    }
}
