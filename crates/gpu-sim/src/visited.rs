//! The GPU's visited-node hash tables (Sec. IV-B3), which simulated
//! searches run so that this crate can price them. A host search runs
//! `cagra`'s one-stamp-per-row table, which admits exactly what a
//! standard table does.
//!
//! In the manner of SONG, a power-of-two table of node ids probed
//! linearly. Two management modes mirror the paper:
//!
//! * **standard** — sized at construction for `2 * I_max * p * d`
//!   potential entries so collisions stay rare and the table never
//!   fills; the GPU keeps it in device memory.
//! * **forgettable** — a small table (2^8..2^13 entries, shared
//!   memory) that is periodically [`VisitedSet::reset`]; only the
//!   current top-M survivors are re-registered. Forgetting can cause
//!   re-computation of distances but, per the paper (and our Fig. 9
//!   runs), no catastrophic recall loss.
//!
//! A reset is one increment, not a wipe: each slot carries the
//! *generation* it was written in beside the id, and a slot from an
//! older generation reads as empty. Slot count, hash and probe
//! sequence are those of the plain table, so which ids are admitted,
//! [`VisitedSet::len`] and [`VisitedSet::probes`] are too.

use cagra::search::dense::FIRST_GENERATION;

/// The GPU's visited-table management, chosen per simulated table
/// ([`crate::SimTable`]) or batch ([`crate::search_batch_traced`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashPolicy {
    /// One table sized for the whole search
    /// (`>= 2 * I_max * p * d` entries), never reset. The paper places
    /// this in device memory; multi-CTA always uses it.
    Standard,
    /// Small table (`2^bits` entries, paper: 2^8..2^13) reset every
    /// `reset_interval` iterations, re-registering only the current
    /// top-M entries afterwards. The paper places this in shared
    /// memory for higher single-CTA occupancy.
    Forgettable {
        /// log2 of the table size.
        bits: u8,
        /// Iterations between resets (paper: typically 1–4).
        reset_interval: u8,
    },
}

/// Fixed-capacity open-addressing set of node ids.
#[derive(Clone, Debug)]
pub struct VisitedSet {
    /// `generation << 32 | id`; occupied iff the generation is current.
    /// The table is the first `mask + 1` slots (a scratch re-shaped to
    /// a smaller table keeps its allocation).
    slots: Vec<u64>,
    mask: u32,
    generation: u32,
    len: usize,
    /// Total probe steps performed (costing input for `gpu-sim`).
    probes: u64,
}

/// Multiplicative 32-bit hash (Knuth's 2^32 / phi constant).
#[inline]
fn hash(id: u32) -> u32 {
    id.wrapping_mul(0x9e37_79b1)
}

impl VisitedSet {
    /// Create a table of `2^bits` slots.
    ///
    /// # Panics
    /// Panics unless `4 <= bits <= 30`.
    pub fn new(bits: u8) -> Self {
        // `reset_to` steps the generation to `FIRST_GENERATION`.
        let (slots, generation) = (Vec::new(), FIRST_GENERATION - 1);
        let mut v = VisitedSet { slots, mask: 0, generation, len: 0, probes: 0 };
        v.reset_to(bits);
        v
    }

    /// `debug_invariants` shadow: the linear-probe loops terminate
    /// because (a) the table is a power of two inside the allocation
    /// with wrap mask `size - 1`, so `(slot + 1) & mask` cycles
    /// through every slot,
    /// and (b) each loop is bounded by `capacity` steps. Verify (a),
    /// the occupancy accounting that (b)'s full-table fallback relies
    /// on, and that no slot can carry the current generation unwritten.
    #[inline]
    fn check_shape(&self) {
        #[cfg(feature = "debug_invariants")]
        {
            // ALLOW(panic): compiled only under `debug_invariants`.
            assert!(self.capacity().is_power_of_two(), "probe invariant: table not a power of two");
            // ALLOW(panic): compiled only under `debug_invariants`.
            assert!(
                self.capacity() <= self.slots.len(),
                "probe invariant: wrap mask reaches past the allocation"
            );
            // ALLOW(panic): compiled only under `debug_invariants`.
            assert!(self.len <= self.capacity(), "probe invariant: len exceeds capacity");
            // ALLOW(panic): compiled only under `debug_invariants`.
            assert_ne!(self.generation, 0, "generation 0 marks never-written slots");
        }
    }

    /// Table size adequate for a standard (never-reset) search: at
    /// least twice `I_max * p * d` entries, as the paper recommends.
    pub fn standard_bits(max_iterations: usize, width: usize) -> u8 {
        let entries = 2 * max_iterations.max(1) * width.max(1);
        let bits = entries.next_power_of_two().trailing_zeros() as u8;
        bits.clamp(8, 30)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no ids are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative probe count.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// What a slot holding `id` in the current generation reads as.
    #[inline]
    fn stamped(&self, id: u32) -> u64 {
        (self.generation as u64) << 32 | id as u64
    }

    /// Insert `id`; returns `true` if it was not present (i.e. the
    /// caller should compute its distance). A full table reports
    /// `false` ("already visited"), which is safe: it suppresses a
    /// distance computation, mirroring the bounded GPU probe loop.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let want = self.stamped(id);
        let mut slot = hash(id) & self.mask;
        let cap = self.capacity();
        for _ in 0..cap {
            self.probes += 1;
            // ALLOW(panic): `slot` is masked by `size - 1` of the
            // power-of-two table, so it is always in bounds.
            let cur = &mut self.slots[slot as usize];
            if *cur == want {
                return false;
            }
            if (*cur >> 32) as u32 != self.generation {
                *cur = want;
                self.len += 1;
                self.check_shape();
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
        // The bounded probe loop visited every slot without finding
        // `id` or a hole — only a genuinely full table can do that.
        #[cfg(feature = "debug_invariants")]
        // ALLOW(panic): compiled only under `debug_invariants`.
        assert_eq!(
            self.len, cap,
            "probe invariant: probe loop exhausted {cap} slots but only {} are occupied",
            self.len
        );
        false
    }

    /// Membership query without insertion.
    pub fn contains(&self, id: u32) -> bool {
        let want = self.stamped(id);
        let mut slot = hash(id) & self.mask;
        for _ in 0..self.capacity() {
            // ALLOW(panic): `slot` is masked by `size - 1` of the
            // power-of-two table, so it is always in bounds.
            let cur = self.slots[slot as usize];
            if cur == want {
                return true;
            }
            if (cur >> 32) as u32 != self.generation {
                return false;
            }
            slot = (slot + 1) & self.mask;
        }
        false
    }

    /// Forget every id: O(1), except once per 2^32 calls when the
    /// generation counter wraps and the slots are really wiped — a
    /// stamp left over from the previous cycle would otherwise come
    /// back to life when its generation number is reused.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(0);
            self.generation = 1;
        }
        self.len = 0;
    }

    /// Re-initialize for a fresh search at `2^bits` slots, reusing the
    /// existing allocation whenever the size matches (the scratch-reuse
    /// path: per-thread tables are recycled across a whole batch, so in
    /// steady state this touches no slot and allocates nothing).
    ///
    /// # Panics
    /// Panics unless `4 <= bits <= 30`.
    pub fn reset_to(&mut self, bits: u8) {
        // ALLOW(panic): documented precondition (see `# Panics`).
        assert!((4..=30).contains(&bits), "hash bits {bits} out of range");
        let size = 1usize << bits;
        // A stale stamp reads as empty wherever the new mask puts it,
        // so re-shaping wipes nothing; the allocation only ever grows.
        if self.slots.len() < size {
            self.slots.resize(size, 0);
        }
        self.mask = (size - 1) as u32;
        self.clear();
        self.probes = 0;
        self.check_shape();
    }

    /// Forgettable-mode reset: evict everything, then re-register the
    /// given survivors (the paper re-registers the current top-M list).
    pub fn reset(&mut self, survivors: impl IntoIterator<Item = u32>) {
        self.clear();
        for id in survivors {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_semantics() {
        let mut v = VisitedSet::new(6);
        assert!(v.insert(10));
        assert!(!v.insert(10));
        assert!(v.insert(11));
        assert_eq!(v.len(), 2);
        assert!(v.contains(10));
        assert!(!v.contains(99));
    }

    #[test]
    fn matches_std_hashset_on_random_streams() {
        use std::collections::HashSet;
        let mut x = 7u64;
        let mut ours = VisitedSet::new(12);
        let mut std_set = HashSet::new();
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let id = ((x >> 33) as u32) % 3000;
            assert_eq!(ours.insert(id), std_set.insert(id), "id {id}");
        }
        assert_eq!(ours.len(), std_set.len());
    }

    #[test]
    fn full_table_reports_visited() {
        let mut v = VisitedSet::new(4); // 16 slots
        for id in 0..16 {
            assert!(v.insert(id));
        }
        assert!(!v.insert(100), "full table must refuse");
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn reset_keeps_only_survivors() {
        let mut v = VisitedSet::new(6);
        for id in 0..20 {
            v.insert(id);
        }
        v.reset([3, 7, 9]);
        assert_eq!(v.len(), 3);
        assert!(v.contains(3) && v.contains(7) && v.contains(9));
        assert!(!v.contains(5));
        // Forgotten ids can be inserted (and thus recomputed) again.
        assert!(v.insert(5));
    }

    #[test]
    fn generation_wrap_wipes_stale_stamps() {
        // An id written in the generation the counter is about to
        // reuse must not come back to life after the wrap.
        let mut v = VisitedSet::new(4);
        v.generation = 1;
        assert!(v.insert(7));
        v.generation = u32::MAX;
        assert!(!v.contains(7) && v.insert(8));
        v.reset([8]);
        assert_eq!(v.generation, 1, "0 is reserved for never-written slots");
        assert!(v.contains(8) && !v.contains(7));
        assert_eq!(v.len(), 1);
        // A fresh table meets the wrap within its first 1001 resets.
        let mut v = VisitedSet::new(4);
        let start = v.generation;
        for round in 0..1100u32 {
            assert!(v.insert(round), "round {round}");
            assert!(!v.insert(round));
            v.reset([]);
            assert!(v.is_empty() && !v.contains(round));
        }
        assert!(v.generation < start, "the counter wrapped");
    }

    #[test]
    fn standard_bits_gives_headroom() {
        // 64 iterations * width 32 = 2048 entries -> >= 4096 slots.
        let bits = VisitedSet::standard_bits(64, 32);
        assert!(1usize << bits >= 4096, "bits {bits}");
        // Paper's range floor: never below 2^8.
        assert!(VisitedSet::standard_bits(1, 1) >= 8);
    }

    #[test]
    fn probes_accumulate() {
        let mut v = VisitedSet::new(8);
        v.insert(1);
        v.insert(2);
        assert!(v.probes() >= 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bits_out_of_range_rejected() {
        VisitedSet::new(31);
    }

    #[test]
    fn reset_to_reuses_or_resizes() {
        let mut v = VisitedSet::new(6);
        for id in 0..30 {
            v.insert(id);
        }
        // Same size: contents and counters forgotten, capacity kept.
        v.reset_to(6);
        assert_eq!(v.capacity(), 64);
        assert_eq!(v.len(), 0);
        assert_eq!(v.probes(), 0);
        assert!(!v.contains(3));
        assert!(v.insert(3));
        // Different size: table is re-shaped and still behaves.
        v.reset_to(8);
        assert_eq!(v.capacity(), 256);
        assert!(v.insert(1000));
        assert!(!v.insert(1000));
        v.reset_to(4);
        assert_eq!(v.capacity(), 16);
        assert!(v.is_empty());
        // The shrunken table is a real 16-slot table: it fills at 16
        // and ids left in the larger shapes' slots are gone.
        assert!(!v.contains(1000) && !v.contains(3));
        assert_eq!((0..40).filter(|&id| v.insert(id)).count(), 16);
    }
}
