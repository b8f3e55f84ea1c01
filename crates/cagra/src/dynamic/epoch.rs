//! Epoch-stamped snapshot pointer: the publication primitive behind
//! [`crate::dynamic::DynamicIndex`].
//!
//! Readers clone an `Arc` to the current snapshot and search it with
//! no further coordination; a writer publishes a *new* snapshot and
//! bumps the epoch counter, never mutating anything a reader may
//! hold. Two slots are kept so a publish writes the inactive slot and
//! then flips one atomic — a reader is never blocked behind the store
//! of a large snapshot, only behind another reader's `Arc` clone.
//!
//! Semantics (the contract the `cfg(loom)` model checks):
//!
//! * [`EpochPtr::load`] always returns a fully-published snapshot —
//!   either the one current when the call started or a newer one,
//!   never a torn or dropped value.
//! * [`EpochPtr::epoch`] is monotonic, and after `publish` returns,
//!   a `load` that observes the new epoch observes the new snapshot.
//!
//! Publishers must be externally serialized (the index holds its
//! writer mutex across every `publish`); concurrent readers need no
//! coordination beyond this type.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// An atomically swappable `Arc<T>` with a published-generation
/// counter. See the module docs for the reader/writer contract.
#[derive(Debug)]
pub struct EpochPtr<T> {
    /// Double buffer: `active` indexes the slot readers clone from;
    /// a publish rewrites the *inactive* slot before flipping.
    slots: [Mutex<Arc<T>>; 2],
    active: AtomicUsize,
    epoch: AtomicU64,
}

impl<T> EpochPtr<T> {
    /// Wrap an initial snapshot at epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        EpochPtr {
            slots: [Mutex::new(Arc::clone(&initial)), Mutex::new(initial)],
            active: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// Clone the current snapshot: a short critical section on the
    /// active slot's mutex that clones an `Arc`. Not wait-free — a
    /// reader can wait behind another reader's clone, or behind a
    /// publisher that has come round to this slot again — but a publish
    /// in progress writes the *other* slot, so readers do not queue
    /// behind it.
    pub fn load(&self) -> Arc<T> {
        let a = self.active.load(Ordering::Acquire) & 1;
        // A poisoned slot mutex can only mean a reader panicked while
        // cloning; the Arc inside is still valid.
        // ALLOW(panic): `a` is masked to 0|1 and `slots` has exactly 2.
        Arc::clone(&self.slots[a].lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// The published generation: bumped by every [`EpochPtr::publish`].
    /// Consumers key caches on this (`serve`'s shape cache) so state
    /// derived from one snapshot is revalidated after a swap.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Install `next` as the current snapshot and return the new
    /// epoch. Callers must hold the owning structure's writer lock —
    /// concurrent publishes would race on the inactive slot.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let inactive = (self.active.load(Ordering::Acquire) & 1) ^ 1;
        // ALLOW(panic): `inactive` is masked to 0|1 and `slots` has exactly 2.
        *self.slots[inactive].lock().unwrap_or_else(|p| p.into_inner()) = next;
        self.active.store(inactive, Ordering::Release);
        obs::metrics().dyn_epoch_swaps.inc();
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_swaps_and_bumps_epoch() {
        let p = EpochPtr::new(Arc::new(1u32));
        assert_eq!(*p.load(), 1);
        assert_eq!(p.epoch(), 0);
        assert_eq!(p.publish(Arc::new(2)), 1);
        assert_eq!(*p.load(), 2);
        assert_eq!(p.publish(Arc::new(3)), 2);
        assert_eq!(*p.load(), 3);
        assert_eq!(p.epoch(), 2);
    }

    #[test]
    fn old_snapshots_stay_valid_across_publishes() {
        let p = EpochPtr::new(Arc::new(vec![1, 2, 3]));
        let held = p.load();
        p.publish(Arc::new(vec![4]));
        p.publish(Arc::new(vec![5]));
        // The reader's clone is untouched by both swaps (including the
        // second, which rewrote the slot the clone came from).
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*p.load(), vec![5]);
    }
}
