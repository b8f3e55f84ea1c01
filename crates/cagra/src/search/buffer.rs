//! The CAGRA search buffer: internal top-M list + candidate list, and
//! the top-M update (step 1, Sec. IV-B2).
//!
//! Entries are `(distance, packed index)` pairs; the packed index
//! carries the parent flag in its MSB (see [`super::parent`]). The
//! candidate segment is sorted with a **bitonic network** — the same
//! network the GPU kernel runs in registers — and merged with the
//! already-sorted top-M list. Dummy entries carry `FLT_MAX` distance
//! and the `INVALID` index, so they sort last, exactly as the paper
//! initializes the list.

use super::parent::{node_id, INVALID};

/// One buffer slot: distance plus flagged node index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BufEntry {
    /// Query distance (`f32::MAX` for dummies / hash-suppressed nodes).
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

    /// Sort key: distance, node id (flag excluded so parenting never
    /// perturbs the order), NaN last.
    #[inline]
    fn key(&self) -> (f32, u32) {
        (self.dist, node_id(self.packed))
    }
}

#[inline]
fn less(a: &BufEntry, b: &BufEntry) -> bool {
    let (da, ia) = a.key();
    let (db, ib) = b.key();
    match da.partial_cmp(&db) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        Some(std::cmp::Ordering::Equal) => ia < ib,
        None => db.is_nan() && !da.is_nan(), // NaN sorts last
    }
}

/// Sort `entries` ascending in place with a bitonic network, padded to
/// the next power of two with DUMMY entries (which sort last) for the
/// duration of the call. The padding lives in the vector's own spare
/// capacity — [`SearchBuffer`] reserves it up front — so a hot-loop
/// sort allocates nothing.
///
/// This mirrors the warp-level register sort of the CUDA kernel (used
/// when the candidate buffer is <= 512 entries); for larger buffers
/// the GPU switches to a radix sort, which is functionally identical,
/// so the host implementation keeps one code path.
pub fn bitonic_sort(entries: &mut Vec<BufEntry>) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    entries.resize(padded, BufEntry::DUMMY);
    // The network runs on a slice of known length: through `&mut Vec`
    // every swap would make the compiler reload the vector's pointer
    // and length, and bounds-check `i` against it.
    // ALLOW(panic): `resize` just made the length exactly `padded`.
    let slots = &mut entries[..padded];

    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    // ALLOW(panic): `i < padded` and `l = i ^ j` with
                    // `j < padded` (a power of two), so `l < padded`.
                    if less(&slots[l], &slots[i]) == ascending {
                        slots.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    // The first `n` slots hold the input (only a NaN distance sorts
    // after the padding, and such an entry is dropped for a DUMMY).
    entries.truncate(n);
}

/// The contiguous search buffer (Fig. 6 top).
#[derive(Clone, Debug)]
pub struct SearchBuffer {
    /// Internal top-M list, always sorted ascending.
    topm: Vec<BufEntry>,
    /// Candidate list (`p * d` slots, with capacity for the sort's
    /// power-of-two padding).
    candidates: Vec<BufEntry>,
    m: usize,
    scratch: Vec<BufEntry>,
}

impl SearchBuffer {
    /// Create a buffer with top-M length `m` and candidate capacity
    /// `width` (`p * d`). The top-M list starts as all dummies.
    pub fn new(m: usize, width: usize) -> Self {
        // ALLOW(panic): constructor precondition; zero-sized lists
        // have no meaningful search semantics.
        assert!(m > 0 && width > 0, "buffer sizes must be positive");
        SearchBuffer {
            topm: vec![BufEntry::DUMMY; m],
            candidates: Vec::with_capacity(width.next_power_of_two()),
            m,
            scratch: Vec::with_capacity(m + width),
        }
    }

    /// Re-initialize for a fresh search with top-M length `m` and
    /// candidate capacity `width`, reusing the existing allocations.
    /// After `reset` the buffer is indistinguishable from
    /// [`SearchBuffer::new`]`(m, width)` except that, in steady state
    /// (same shape as the previous search), no heap allocation occurs.
    pub fn reset(&mut self, m: usize, width: usize) {
        // ALLOW(panic): same precondition as `new`.
        assert!(m > 0 && width > 0, "buffer sizes must be positive");
        self.m = m;
        self.topm.clear();
        self.topm.resize(m, BufEntry::DUMMY);
        self.candidates.clear();
        self.candidates.reserve(width.next_power_of_two());
        self.scratch.clear();
        self.scratch.reserve(m + width);
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

    /// Mutable candidate segment. The expansion loop pushes every
    /// neighbor with a placeholder distance in adjacency order (the
    /// order feeds the bitonic sort's tie-breaking), then patches the
    /// first-visit entries from one batched distance call.
    #[inline]
    pub fn candidates_mut(&mut self) -> &mut [BufEntry] {
        &mut self.candidates
    }

    /// Step 1: sort the candidate list and merge it into the top-M
    /// list, keeping the M smallest. Returns the number of candidates
    /// that entered the list (a progress signal).
    pub fn update_topm(&mut self) -> usize {
        bitonic_sort(&mut self.candidates);
        self.scratch.clear();
        let mut ti = 0usize;
        let mut ci = 0usize;
        let mut admitted = 0usize;
        while self.scratch.len() < self.m {
            // Matching on the fetched entries (instead of re-indexing
            // after a take/skip decision) keeps the merge panic-free.
            match (self.topm.get(ti), self.candidates.get(ci)) {
                (Some(&t), Some(&c)) if less(&c, &t) => {
                    self.scratch.push(c);
                    ci += 1;
                    admitted += 1;
                }
                (_, Some(&c)) if ti >= self.topm.len() => {
                    self.scratch.push(c);
                    ci += 1;
                    admitted += 1;
                }
                (Some(&t), _) => {
                    self.scratch.push(t);
                    ti += 1;
                }
                _ => break,
            }
        }
        while self.scratch.len() < self.m {
            self.scratch.push(BufEntry::DUMMY);
        }
        std::mem::swap(&mut self.topm, &mut self.scratch);
        self.candidates.clear();
        // Dummies admitted from an undersized candidate list are not
        // progress.
        admitted
    }

    /// Ids of the real (non-dummy) top-M entries, flags stripped.
    pub fn topm_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.topm.iter().filter(|e| e.packed != INVALID).map(|e| node_id(e.packed))
    }

    /// Ids of the *live* top-M entries: non-dummy AND carrying a
    /// computed distance. Hash-suppressed placeholders sit at
    /// `dist == f32::MAX` with a real id; which of those survive in an
    /// underfull list is tie-broken by id, so any consumer that must
    /// stay invariant under vertex relabeling (the forgettable-hash
    /// reset re-seed) has to skip them and take only the entries whose
    /// position is determined by geometry.
    pub fn topm_live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.topm
            .iter()
            .filter(|e| e.packed != INVALID && e.dist < f32::MAX)
            .map(|e| node_id(e.packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::parent::set_parented;

    fn e(id: u32, dist: f32) -> BufEntry {
        BufEntry::new(id, dist)
    }

    #[test]
    fn bitonic_sorts_arbitrary_lengths() {
        for n in [0usize, 1, 2, 3, 5, 8, 13, 64, 100, 257] {
            let mut x = 99u64;
            let mut v: Vec<BufEntry> = (0..n)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                    e(i as u32, ((x >> 40) as f32) / 1e3)
                })
                .collect();
            let mut want = v.clone();
            want.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.packed.cmp(&b.packed)));
            bitonic_sort(&mut v);
            assert_eq!(v, want, "n = {n}");
        }
    }

    #[test]
    fn bitonic_sort_ignores_parent_flag_in_order() {
        let mut v = vec![BufEntry { dist: 2.0, packed: set_parented(7) }, e(3, 1.0)];
        bitonic_sort(&mut v);
        assert_eq!(node_id(v[0].packed), 3);
        assert!(super::super::parent::is_parented(v[1].packed), "flag preserved");
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
        b.update_topm();
        let ids: Vec<u32> = b.topm_ids().collect();
        assert_eq!(ids, vec![4, 1, 3]);
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
        b.update_topm();
        assert!(super::super::parent::is_parented(b.topm()[0].packed));
    }

    #[test]
    fn max_dist_candidates_never_displace_real_entries() {
        let mut b = SearchBuffer::new(2, 2);
        b.set_candidates([e(0, 1.0), e(1, 2.0)]);
        b.update_topm();
        // Hash-suppressed candidates arrive as dist = MAX.
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
