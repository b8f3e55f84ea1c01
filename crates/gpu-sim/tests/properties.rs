//! Visited hash-table invariants over arbitrary inputs (moved with the
//! table from `cagra`'s `tests/properties.rs`).

use cagra::search::dense::DenseVisited;
use cagra::search::kernel::Hook;
use gpu_sim::VisitedSet;
use proptest::prelude::*;

/// The visited table as it was before generation stamps — `u32::MAX`
/// marks an empty slot and every reset is a `memset` — kept as the
/// reference [`VisitedSet`] must be indistinguishable from.
struct MemsetTable {
    slots: Vec<u32>,
    len: usize,
    probes: u64,
}

impl MemsetTable {
    const EMPTY: u32 = u32::MAX;

    fn new(bits: u8) -> Self {
        MemsetTable { slots: vec![Self::EMPTY; 1 << bits], len: 0, probes: 0 }
    }

    fn home(&self, id: u32) -> usize {
        id.wrapping_mul(0x9e37_79b1) as usize & (self.slots.len() - 1)
    }

    fn insert(&mut self, id: u32) -> bool {
        let mut slot = self.home(id);
        for _ in 0..self.slots.len() {
            self.probes += 1;
            if self.slots[slot] == id {
                return false;
            }
            if self.slots[slot] == Self::EMPTY {
                self.slots[slot] = id;
                self.len += 1;
                return true;
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        false
    }

    fn contains(&self, id: u32) -> bool {
        let mut slot = self.home(id);
        for _ in 0..self.slots.len() {
            if self.slots[slot] == id {
                return true;
            }
            if self.slots[slot] == Self::EMPTY {
                return false;
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        false
    }

    fn reset(&mut self, survivors: &[u32]) {
        self.slots.fill(Self::EMPTY);
        self.len = 0;
        for &id in survivors {
            self.insert(id);
        }
    }

    fn reset_to(&mut self, bits: u8) {
        *self = MemsetTable::new(bits);
    }
}

proptest! {
    /// Model test: the generation-stamped table and the memset table
    /// take the same random `insert` / `contains` / `reset(survivors)`
    /// / `reset_to(bits)` sequence and must agree on every return
    /// value, `len()` and `probes()` after every step. Tables of 16–64
    /// slots against 96 ids, so they fill up. A fresh `VisitedSet`
    /// starts 1001 resets short of its generation wrap (`cagra`'s
    /// `FIRST_GENERATION`); 990–1010 burn-in resets put the wrap
    /// before, inside, or after the random sequence.
    #[test]
    fn visited_set_is_indistinguishable_from_a_memset_table(
        burn_in in 990u32..1010,
        ops in proptest::collection::vec((0u8..10, 0u32..96, 4u8..7), 1..400),
    ) {
        let mut ours = VisitedSet::new(5);
        let mut model = MemsetTable::new(5);
        for _ in 0..burn_in {
            ours.reset([]);
            model.reset(&[]);
        }
        for (step, &(op, id, bits)) in ops.iter().enumerate() {
            match op {
                0..=5 => prop_assert_eq!(ours.insert(id), model.insert(id), "step {}: insert {}", step, id),
                6 | 7 => prop_assert_eq!(ours.contains(id), model.contains(id), "step {}: contains {}", step, id),
                8 => {
                    // Survivors as the kernel picks them: a few ids,
                    // some present, some not, one repeated.
                    let survivors = [id, id / 2, id, id + 1];
                    ours.reset(survivors);
                    model.reset(&survivors);
                }
                _ => {
                    ours.reset_to(bits);
                    model.reset_to(bits);
                    prop_assert_eq!(ours.capacity(), model.slots.len());
                }
            }
            prop_assert_eq!(ours.len(), model.len, "step {}: len", step);
            prop_assert_eq!(ours.probes(), model.probes, "step {}: probes", step);
        }
        for id in 0..96 {
            prop_assert_eq!(ours.contains(id), model.contains(id), "final contains {}", id);
        }
    }

    /// The host's dense table against a `VisitedSet` sized never to
    /// fill (256 slots, at most 96 ids per query): the same random
    /// `insert` streams over ids below `n`, with per-query restarts,
    /// must get the same answer from both at every step. A fresh
    /// `DenseVisited` also starts 1001 restarts short of its generation
    /// wrap; 990–1010 burn-in restarts put the wrap before, inside, or
    /// after the random sequence.
    #[test]
    fn dense_table_is_indistinguishable_from_a_table_that_never_fills(
        burn_in in 990u32..1010,
        n in 1u32..96,
        ops in proptest::collection::vec((0u8..8, 0u32..96), 1..400),
    ) {
        let mut dense = DenseVisited::default();
        let mut table = VisitedSet::new(8);
        for _ in 0..burn_in {
            dense.restart(n as usize);
        }
        for (step, &(op, id)) in ops.iter().enumerate() {
            if op == 0 {
                // A new query.
                dense.restart(n as usize);
                table.reset_to(8);
            } else {
                let id = id % n;
                prop_assert_eq!(dense.insert(id), table.insert(id), "step {}: insert {}", step, id);
            }
        }
    }

    #[test]
    fn visited_set_matches_hashset(ids in proptest::collection::vec(0u32..10_000, 0..500)) {
        let mut ours = VisitedSet::new(14); // ample capacity
        let mut std_set = std::collections::HashSet::new();
        for &id in &ids {
            prop_assert_eq!(ours.insert(id), std_set.insert(id), "id {}", id);
        }
        prop_assert_eq!(ours.len(), std_set.len());
        for &id in &ids {
            prop_assert!(ours.contains(id));
        }
    }

    #[test]
    fn reset_then_survivors_only(ids in proptest::collection::vec(0u32..1000, 1..100), keep in proptest::collection::vec(0u32..1000, 0..20)) {
        let mut v = VisitedSet::new(12);
        for &id in &ids {
            v.insert(id);
        }
        v.reset(keep.iter().copied());
        for &id in &keep {
            prop_assert!(v.contains(id));
        }
        for &id in &ids {
            if !keep.contains(&id) {
                prop_assert!(!v.contains(id), "id {} survived reset", id);
            }
        }
    }
}
