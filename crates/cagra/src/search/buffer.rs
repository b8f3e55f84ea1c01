//! The CAGRA search buffer: one worker's internal top-M list, with
//! admission at push (step 1, Sec. IV-B2) and the parent pick (step 2).
//!
//! Entries are `(distance, packed index)` pairs; the packed index
//! carries the parent flag in its MSB (see [`super::parent`]). Dummy
//! entries carry `FLT_MAX` distance and the `INVALID` index, so they
//! sort last, exactly as the paper initializes the list. Only scored
//! nodes are ever pushed: the GPU would also sort a placeholder for
//! every already-visited neighbor, but a placeholder never becomes a
//! parent or a result, so the host skips it.
//!
//! The GPU kernel sorts a round's whole `p * d` candidate segment with
//! a warp-register bitonic network and merges it with the top-M list.
//! `(distance, node id)` is a total order, so the list that comes out
//! does not depend on *how* it was built, and the host builds it one
//! scored candidate at a time: [`SearchBuffer::push_candidate`] drops a
//! candidate that is not better than the current M-th entry with one
//! compare (in steady state that is nearly all of them) and inserts the
//! rest at their slot, behind any equal entry. That is the first M of a
//! stable sort of the list followed by the candidates in push order —
//! what the GPU's merge keeps, since only a list entry and a re-scored
//! duplicate of it can compare equal. `gpu-sim` prices the network it
//! would run analytically from the trace's `sort_len`; the host never
//! runs it.
//!
//! Each buffer also keeps a *parent cursor*: the first slot that may
//! hold an unparented entry. An admission lowers it to its slot, and
//! [`SearchBuffer::pick_parents`] scans from it, so a round's pick does
//! not rescan the parented head of the list.
//!
//! **NaN contract:** a candidate whose distance is NaN never enters
//! the top-M list (it is not better than any entry, dummies included).

use super::parent::{is_parented, node_id, set_parented, INVALID};

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

/// The list order, as "`a` goes before `b`": distance, then node id
/// (flag excluded so parenting never perturbs the order). A NaN goes
/// before nothing, so it never enters the list, and no list entry is
/// NaN; on the other entries this is `(dist, id)`'s `<`, with
/// `-0.0 == 0.0`.
#[inline(always)]
fn precedes(a: &BufEntry, b: &BufEntry) -> bool {
    a.dist < b.dist || (a.dist == b.dist && node_id(a.packed) < node_id(b.packed))
}

/// One worker's top-M list (Fig. 6 top) and its parent cursor.
#[derive(Clone, Debug)]
pub struct SearchBuffer {
    /// Internal top-M list, always sorted ascending; length M.
    topm: Vec<BufEntry>,
    /// Every slot below this one holds a parented entry.
    cursor: usize,
}

impl SearchBuffer {
    /// Create a buffer with top-M length `m`, all dummies.
    pub fn new(m: usize) -> Self {
        // ALLOW(panic): constructor precondition; an empty list has no
        // meaningful search semantics.
        assert!(m > 0, "buffer sizes must be positive");
        SearchBuffer { topm: vec![BufEntry::DUMMY; m], cursor: 0 }
    }

    /// Re-initialize for a fresh search with top-M length `m`, reusing
    /// the allocation. After `reset` the buffer is indistinguishable
    /// from [`SearchBuffer::new`]`(m)`; once it has held `m` entries it
    /// allocates nothing.
    pub fn reset(&mut self, m: usize) {
        // ALLOW(panic): same precondition as `new`.
        assert!(m > 0, "buffer sizes must be positive");
        self.topm.clear();
        self.topm.resize(m, BufEntry::DUMMY);
        self.cursor = 0;
    }

    /// The sorted top-M list.
    pub fn topm(&self) -> &[BufEntry] {
        &self.topm
    }

    /// Step 1, one candidate at a time: admit a scored entry into the
    /// list, behind any entry equal to it, or drop it with one compare
    /// when it is not better than the M-th entry. Returns whether it
    /// entered the list.
    #[inline]
    pub fn push_candidate(&mut self, entry: BufEntry) -> bool {
        // `new` / `reset` keep the list at M >= 1 entries.
        let Some((worst, head)) = self.topm.split_last() else { return false };
        if !precedes(&entry, worst) {
            return false;
        }
        let slot = head.partition_point(|t| !precedes(&entry, t));
        let end = head.len();
        self.topm.copy_within(slot..end, slot + 1);
        // ALLOW(panic): `slot <= end = M - 1`.
        self.topm[slot] = entry;
        self.cursor = self.cursor.min(slot);
        #[cfg(feature = "debug_invariants")]
        self.check();
        true
    }

    /// Step 2: mark up to `p` of the best unparented entries as parents
    /// and append their ids to `out`, scanning from the cursor (dummies
    /// carry `INVALID`, which reads as parented). Returns how many it
    /// picked; none means the list is finished.
    #[inline]
    pub fn pick_parents(&mut self, p: usize, out: &mut Vec<u32>) -> usize {
        let mut picked = 0;
        let mut slot = self.cursor;
        for entry in self.topm.iter_mut().skip(self.cursor) {
            if picked == p {
                break;
            }
            if !is_parented(entry.packed) {
                out.push(node_id(entry.packed));
                entry.packed = set_parented(entry.packed);
                picked += 1;
            }
            slot += 1;
        }
        self.cursor = slot;
        #[cfg(feature = "debug_invariants")]
        self.check();
        picked
    }

    /// Ids of the real (non-dummy) top-M entries, flags stripped.
    pub fn topm_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.topm.iter().filter(|e| e.packed != INVALID).map(|e| node_id(e.packed))
    }

    /// `debug_invariants` shadow: the list is in order, and every
    /// slot below the cursor is parented.
    #[cfg(feature = "debug_invariants")]
    fn check(&self) {
        // ALLOW(panic): compiled only under `debug_invariants`.
        assert!(
            self.topm.iter().zip(self.topm.iter().skip(1)).all(|(a, b)| !precedes(b, a)),
            "top-M list out of order"
        );
        // ALLOW(panic): compiled only under `debug_invariants`.
        assert!(
            self.topm.iter().take(self.cursor).all(|e| is_parented(e.packed)),
            "an unparented entry sits below the parent cursor"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32, dist: f32) -> BufEntry {
        BufEntry::new(id, dist)
    }

    fn push_all(b: &mut SearchBuffer, entries: &[BufEntry]) -> usize {
        entries.iter().filter(|&&c| b.push_candidate(c)).count()
    }

    #[test]
    fn push_keeps_m_smallest() {
        let mut b = SearchBuffer::new(3);
        assert_eq!(push_all(&mut b, &[e(0, 4.0), e(1, 1.0), e(2, 3.0), e(3, 2.0)]), 4);
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![1, 3, 2]);
        // Only better candidates displace.
        assert_eq!(push_all(&mut b, &[e(4, 0.5), e(5, 10.0)]), 1);
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![4, 1, 3]);
    }

    #[test]
    fn equal_distances_order_by_id_with_the_parent_flag_ignored() {
        let mut b = SearchBuffer::new(4);
        push_all(&mut b, &[e(7, 2.0), e(9, 1.0)]);
        let mut parents = Vec::new();
        assert_eq!(b.pick_parents(2, &mut parents), 2);
        assert_eq!(parents, vec![9, 7]);
        // 3 < 7 < 8 at equal distance, flag or no flag.
        assert_eq!(push_all(&mut b, &[e(8, 2.0), e(3, 2.0)]), 2);
        assert_eq!(b.topm_ids().collect::<Vec<_>>(), vec![9, 3, 7, 8]);
        assert!(is_parented(b.topm()[2].packed), "flag preserved");
    }

    #[test]
    fn a_rescored_duplicate_lands_behind_its_list_entry() {
        let mut b = SearchBuffer::new(3);
        push_all(&mut b, &[e(4, 1.0), e(5, 2.0)]);
        b.pick_parents(1, &mut Vec::new());
        assert!(b.push_candidate(e(4, 1.0)));
        assert_eq!(
            b.topm(),
            [BufEntry { dist: 1.0, packed: set_parented(4) }, e(4, 1.0), e(5, 2.0)]
        );
    }

    #[test]
    fn nan_candidates_never_enter_the_list() {
        // Underfull list, full list, and NaN beside admissible
        // candidates: the NaN entry is dropped every time.
        let mut b = SearchBuffer::new(3);
        assert!(!b.push_candidate(e(0, f32::NAN)));
        assert_eq!(b.topm(), [BufEntry::DUMMY; 3]);
        assert_eq!(push_all(&mut b, &[e(1, 5.0), e(2, f32::NAN), e(3, 1.0), e(4, f32::NAN)]), 2);
        let tail = [e(5, f32::NAN), e(6, f32::INFINITY), e(7, f32::NEG_INFINITY)];
        assert_eq!(push_all(&mut b, &tail), 1, "+inf sorts after the dummies, -inf first");
        assert_eq!(b.topm_ids().collect::<Vec<_>>(), vec![7, 3, 1]);
        assert!(b.topm().iter().all(|t| !t.dist.is_nan()));
    }

    #[test]
    fn dummies_fill_an_underfull_list() {
        let mut b = SearchBuffer::new(4);
        b.push_candidate(e(9, 1.0));
        assert_eq!(b.topm_ids().count(), 1);
        assert_eq!(b.topm()[3], BufEntry::DUMMY);
    }

    #[test]
    fn parent_flags_survive_later_pushes() {
        let mut b = SearchBuffer::new(2);
        push_all(&mut b, &[e(0, 1.0), e(1, 2.0)]);
        b.pick_parents(1, &mut Vec::new());
        assert!(!b.push_candidate(e(2, 3.0)));
        assert!(is_parented(b.topm()[0].packed));
    }

    #[test]
    fn max_dist_candidates_never_displace_real_entries() {
        let mut b = SearchBuffer::new(2);
        push_all(&mut b, &[e(0, 1.0), e(1, 2.0)]);
        // A candidate at the dummies' distance ties them and loses.
        assert!(!b.push_candidate(BufEntry { dist: f32::MAX, packed: 5 }));
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn the_pick_resumes_at_an_admission_above_the_cursor() {
        let mut b = SearchBuffer::new(4);
        push_all(&mut b, &[e(0, 1.0), e(1, 2.0), e(2, 3.0)]);
        let mut parents = Vec::new();
        b.pick_parents(2, &mut parents);
        // Entry 3 lands between the two parents; it is next.
        b.push_candidate(e(3, 1.5));
        b.pick_parents(1, &mut parents);
        assert_eq!(parents, vec![0, 1, 3]);
        b.pick_parents(1, &mut parents);
        assert_eq!(parents, vec![0, 1, 3, 2]);
        // Only dummies and parents are left.
        assert_eq!(b.pick_parents(1, &mut parents), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_m_rejected() {
        SearchBuffer::new(0);
    }

    #[test]
    fn reset_matches_fresh_buffer() {
        let mut reused = SearchBuffer::new(3);
        push_all(&mut reused, &[e(0, 4.0), e(1, 1.0), e(2, 3.0)]);
        reused.pick_parents(2, &mut Vec::new());
        // Re-shape to a different m and replay a search that a fresh
        // buffer also runs; lists and picks must match entry for entry.
        reused.reset(2);
        let mut fresh = SearchBuffer::new(2);
        for b in [&mut reused, &mut fresh] {
            push_all(b, &[e(7, 2.0), e(8, 0.5)]);
        }
        assert_eq!(reused.topm(), fresh.topm());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        reused.pick_parents(1, &mut a);
        fresh.pick_parents(1, &mut b);
        assert_eq!(a, b);
    }
}
