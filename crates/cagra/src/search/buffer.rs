//! The CAGRA search buffer: internal top-M list + candidate list, and
//! the top-M update (step 1, Sec. IV-B2).
//!
//! Entries are `(distance, packed index)` pairs; the packed index
//! carries the parent flag in its MSB (see [`super::parent`]). Dummy
//! entries carry `FLT_MAX` distance and the `INVALID` index, so they
//! sort last, exactly as the paper initializes the list. Only scored
//! nodes are ever pushed: the GPU would also sort a placeholder for
//! every already-visited neighbor, but a placeholder never becomes a
//! parent or a result, so the host skips it.
//!
//! The GPU kernel sorts the whole candidate segment with a
//! warp-register bitonic network and merges it with the top-M list.
//! `(distance, node id)` is a total order, so the list that comes out
//! does not depend on *how* it was sorted, and the host does only the
//! work the list needs: a candidate that is not better than the
//! current M-th entry is dropped with one compare (in steady state
//! that is nearly all of them), the survivors are sorted, and the
//! merge touches only the tail of the list they displace. `gpu-sim`
//! prices the network analytically from the trace's `sort_len`; it
//! never ran it.
//!
//! **NaN contract:** a candidate whose distance is NaN never enters
//! the top-M list (it is not better than any entry, dummies included).

use super::parent::{node_id, INVALID};
use std::cmp::Ordering;

/// One buffer slot: distance plus flagged node index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BufEntry {
    /// Query distance (`f32::MAX` for dummies).
    pub dist: f32,
    /// Node id with MSB parent flag.
    pub packed: u32,
}

impl BufEntry {
    /// A dummy entry sorting after every real entry.
    pub const DUMMY: BufEntry = BufEntry { dist: f32::MAX, packed: INVALID };

    /// A fresh (unparented) entry.
    pub fn new(id: u32, dist: f32) -> Self {
        BufEntry { dist, packed: id }
    }
}

/// The list order: distance, then node id (flag excluded so parenting
/// never perturbs the order), NaN last.
#[inline]
fn order(a: &BufEntry, b: &BufEntry) -> Ordering {
    match a.dist.partial_cmp(&b.dist) {
        Some(by_dist) => by_dist.then_with(|| node_id(a.packed).cmp(&node_id(b.packed))),
        None => a.dist.is_nan().cmp(&b.dist.is_nan()),
    }
}

/// The contiguous search buffer (Fig. 6 top).
#[derive(Clone, Debug)]
pub struct SearchBuffer {
    /// Internal top-M list, always sorted ascending; length M.
    topm: Vec<BufEntry>,
    /// Candidate list (`p * d` slots).
    candidates: Vec<BufEntry>,
}

impl SearchBuffer {
    /// Create a buffer with top-M length `m` and candidate capacity
    /// `width` (`p * d`). The top-M list starts as all dummies.
    pub fn new(m: usize, width: usize) -> Self {
        // ALLOW(panic): constructor precondition; zero-sized lists
        // have no meaningful search semantics.
        assert!(m > 0 && width > 0, "buffer sizes must be positive");
        SearchBuffer { topm: vec![BufEntry::DUMMY; m], candidates: Vec::with_capacity(width) }
    }

    /// Re-initialize for a fresh search with top-M length `m` and
    /// candidate capacity `width`, reusing the existing allocations.
    /// After `reset` the buffer is indistinguishable from
    /// [`SearchBuffer::new`]`(m, width)` except that, in steady state
    /// (same shape as the previous search), no heap allocation occurs.
    pub fn reset(&mut self, m: usize, width: usize) {
        // ALLOW(panic): same precondition as `new`.
        assert!(m > 0 && width > 0, "buffer sizes must be positive");
        self.topm.clear();
        self.topm.resize(m, BufEntry::DUMMY);
        self.candidates.clear();
        self.candidates.reserve(width);
    }

    /// The sorted top-M list.
    pub fn topm(&self) -> &[BufEntry] {
        &self.topm
    }

    /// Mutable access (parent marking).
    pub fn topm_mut(&mut self) -> &mut [BufEntry] {
        &mut self.topm
    }

    /// Clear and refill the candidate segment.
    pub fn set_candidates(&mut self, iter: impl IntoIterator<Item = BufEntry>) {
        self.candidates.clear();
        self.candidates.extend(iter);
    }

    /// Append one candidate (the allocation-free alternative to
    /// [`SearchBuffer::set_candidates`] for hot loops).
    #[inline]
    pub fn push_candidate(&mut self, entry: BufEntry) {
        self.candidates.push(entry);
    }

    /// Current candidate segment.
    pub fn candidates(&self) -> &[BufEntry] {
        &self.candidates
    }

    /// Step 1: merge the candidate list into the top-M list, keeping
    /// the M smallest in list order (a list entry precedes a candidate
    /// that compares equal to it). Returns the number of candidates
    /// that entered the list (a progress signal). A round that admits
    /// nothing costs one compare per candidate and leaves the list
    /// untouched.
    pub fn update_topm(&mut self) -> usize {
        // `new` / `reset` keep the list at M >= 1 entries.
        let Some(&worst) = self.topm.last() else { return 0 };
        self.candidates.retain(|c| order(c, &worst).is_lt());
        self.candidates.sort_unstable_by(order);
        // The a-th survivor in ascending order has `a` survivors ahead
        // of it, so it makes the list exactly when it beats the entry
        // `a` slots from the end — and once one fails, the rest do.
        let admitted = self
            .candidates
            .iter()
            .zip(self.topm.iter().rev())
            .take_while(|(c, t)| order(c, t).is_lt())
            .count();
        // Merge from the back, largest survivor first. `topm[..keep]`
        // still sit in their old slots and `gap` survivors are
        // unplaced, so the entries a survivor precedes move up `gap`
        // slots — onto slots already vacated — and it takes the slot
        // below them. The prefix no survivor reaches is never touched.
        let mut keep = self.topm.len() - admitted;
        for (placed_before, c) in self.candidates.iter().take(admitted).enumerate().rev() {
            let gap = placed_before + 1;
            // ALLOW(panic): `keep <= M - admitted` only shrinks.
            let stay = self.topm[..keep].partition_point(|t| !order(c, t).is_lt());
            self.topm.copy_within(stay..keep, stay + gap);
            // ALLOW(panic): `stay + gap <= keep + gap <= M`.
            self.topm[stay + gap - 1] = *c;
            keep = stay;
        }
        self.candidates.clear();
        admitted
    }

    /// Ids of the real (non-dummy) top-M entries, flags stripped.
    pub fn topm_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.topm.iter().filter(|e| e.packed != INVALID).map(|e| node_id(e.packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::parent::{is_parented, set_parented};

    fn e(id: u32, dist: f32) -> BufEntry {
        BufEntry::new(id, dist)
    }

    #[test]
    fn update_topm_keeps_m_smallest() {
        let mut b = SearchBuffer::new(3, 4);
        b.set_candidates([e(0, 4.0), e(1, 1.0), e(2, 3.0), e(3, 2.0)]);
        let admitted = b.update_topm();
        assert_eq!(admitted, 3);
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![1, 3, 2]);
        // Second round: only better candidates displace.
        b.set_candidates([e(4, 0.5), e(5, 10.0)]);
        assert_eq!(b.update_topm(), 1);
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![4, 1, 3]);
    }

    #[test]
    fn equal_distances_order_by_id_with_the_parent_flag_ignored() {
        let mut b = SearchBuffer::new(4, 4);
        b.set_candidates([e(7, 2.0), e(9, 1.0)]);
        b.update_topm();
        b.topm_mut()[1].packed = set_parented(7);
        // 3 < 7 < 8 at equal distance, flag or no flag.
        b.set_candidates([e(8, 2.0), e(3, 2.0)]);
        assert_eq!(b.update_topm(), 2);
        assert_eq!(b.topm_ids().collect::<Vec<_>>(), vec![9, 3, 7, 8]);
        assert!(is_parented(b.topm()[2].packed), "flag preserved");
    }

    #[test]
    fn nan_candidates_never_enter_the_list() {
        // Underfull list, full list, and NaN beside admissible
        // candidates: the NaN entry is dropped every time.
        let mut b = SearchBuffer::new(3, 4);
        b.set_candidates([e(0, f32::NAN)]);
        assert_eq!(b.update_topm(), 0);
        assert_eq!(b.topm(), [BufEntry::DUMMY; 3]);
        b.set_candidates([e(1, 5.0), e(2, f32::NAN), e(3, 1.0), e(4, f32::NAN)]);
        assert_eq!(b.update_topm(), 2);
        b.set_candidates([e(5, f32::NAN), e(6, f32::INFINITY), e(7, f32::NEG_INFINITY)]);
        assert_eq!(b.update_topm(), 1, "+inf sorts after the dummies, -inf first");
        assert_eq!(b.topm_ids().collect::<Vec<_>>(), vec![7, 3, 1]);
        assert!(b.topm().iter().all(|t| !t.dist.is_nan()));
    }

    #[test]
    fn dummies_fill_an_underfull_list() {
        let mut b = SearchBuffer::new(4, 2);
        b.set_candidates([e(9, 1.0)]);
        b.update_topm();
        assert_eq!(b.topm_ids().count(), 1);
        assert_eq!(b.topm()[3], BufEntry::DUMMY);
    }

    #[test]
    fn parent_flags_survive_update() {
        let mut b = SearchBuffer::new(2, 2);
        b.set_candidates([e(0, 1.0), e(1, 2.0)]);
        b.update_topm();
        b.topm_mut()[0].packed = set_parented(b.topm()[0].packed);
        b.set_candidates([e(2, 3.0)]);
        assert_eq!(b.update_topm(), 0);
        assert!(is_parented(b.topm()[0].packed));
    }

    #[test]
    fn max_dist_candidates_never_displace_real_entries() {
        let mut b = SearchBuffer::new(2, 2);
        b.set_candidates([e(0, 1.0), e(1, 2.0)]);
        b.update_topm();
        // A candidate at the dummies' distance ties them and loses.
        b.set_candidates([BufEntry { dist: f32::MAX, packed: 5 }]);
        b.update_topm();
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_m_rejected() {
        SearchBuffer::new(0, 1);
    }

    #[test]
    fn reset_matches_fresh_buffer() {
        let mut reused = SearchBuffer::new(3, 4);
        reused.set_candidates([e(0, 4.0), e(1, 1.0), e(2, 3.0)]);
        reused.update_topm();
        // Re-shape to a different (m, width) and replay a search that a
        // fresh buffer also runs; results must match entry-for-entry.
        reused.reset(2, 3);
        let mut fresh = SearchBuffer::new(2, 3);
        for b in [&mut reused, &mut fresh] {
            b.push_candidate(e(7, 2.0));
            b.push_candidate(e(8, 0.5));
            b.update_topm();
        }
        assert_eq!(reused.topm(), fresh.topm());
    }
}
