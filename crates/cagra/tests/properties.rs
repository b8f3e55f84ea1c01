//! CAGRA search-machinery invariants over arbitrary inputs.

use cagra::search::buffer::{BufEntry, SearchBuffer};
use cagra::search::parent::{is_parented, node_id, set_parented, INVALID};
use proptest::prelude::*;

/// The distance an id scores whenever it is scored (so an id that is
/// scored twice — forgotten by the hash, then met again — comes back
/// as an exact duplicate of its list entry). Quantized: distinct ids
/// tie often.
fn dist_of(id: u32) -> f32 {
    (id.wrapping_mul(2_654_435_761) % 23) as f32 * 0.5
}

proptest! {
    /// `update_topm` against its definition, round by round: stable
    /// sort of `topm ++ candidates` by `(dist, node_id)`, NaN
    /// candidates dropped, first M kept. The stream has everything the
    /// kernel produces — ids repeated within a round (two parents
    /// sharing a neighbor) and across rounds (duplicates re-scored
    /// after a forgettable reset), underfull lists, entries parented
    /// between rounds — plus `f32::MAX` entries that tie the dummies.
    #[test]
    fn update_topm_equals_sort_and_truncate_oracle(
        m in 1usize..24,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..48, 0u8..8), 0..40), 0usize..24, 0usize..24),
            1..12,
        ),
    ) {
        let mut buf = SearchBuffer::new(m, 40);
        let mut want = vec![BufEntry::DUMMY; m];
        for (round, (candidates, parent_a, parent_b)) in rounds.iter().enumerate() {
            let candidates: Vec<BufEntry> = candidates
                .iter()
                .map(|&(id, kind)| match kind {
                    0..=2 => BufEntry::new(id, f32::MAX),
                    3 => BufEntry::new(id, f32::NAN),
                    _ => BufEntry::new(id, dist_of(id)),
                })
                .collect();
            buf.set_candidates(candidates.iter().copied());
            let admitted = buf.update_topm();

            let mut all: Vec<(BufEntry, bool)> = want.iter().map(|&e| (e, false)).collect();
            all.extend(candidates.iter().filter(|c| !c.dist.is_nan()).map(|&c| (c, true)));
            all.sort_by(|(a, _), (b, _)| {
                a.dist.partial_cmp(&b.dist).unwrap().then(node_id(a.packed).cmp(&node_id(b.packed)))
            });
            all.truncate(m);
            want = all.iter().map(|&(e, _)| e).collect();
            prop_assert_eq!(buf.topm(), &want[..], "round {}", round);
            prop_assert_eq!(admitted, all.iter().filter(|(_, fresh)| *fresh).count());
            prop_assert!(buf.candidates().is_empty());

            // Parent two entries, as step 2 would, in both lists.
            for slot in [*parent_a, *parent_b].into_iter().filter(|&slot| slot < m) {
                if want[slot].packed != INVALID {
                    want[slot].packed = set_parented(want[slot].packed);
                    buf.topm_mut()[slot].packed = want[slot].packed;
                }
            }
        }
    }

    #[test]
    fn parent_flag_never_corrupts_id(id in 0u32..(1 << 31)) {
        let p = set_parented(id);
        prop_assert!(is_parented(p));
        prop_assert_eq!(node_id(p), id);
        prop_assert_eq!(set_parented(p), p); // idempotent
    }

    #[test]
    fn buffer_topm_is_sorted_min_m_of_stream(chunks in proptest::collection::vec(proptest::collection::vec(0.0f32..1e6, 1..20), 1..10)) {
        let m = 8;
        let mut buf = SearchBuffer::new(m, 32);
        let mut all: Vec<(f32, u32)> = Vec::new();
        let mut next_id = 0u32;
        for chunk in &chunks {
            let entries: Vec<BufEntry> = chunk
                .iter()
                .map(|&d| {
                    let e = BufEntry::new(next_id, d);
                    all.push((d, next_id));
                    next_id += 1;
                    e
                })
                .collect();
            buf.set_candidates(entries);
            buf.update_topm();
        }
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let want: Vec<u32> = all.iter().take(m).map(|&(_, id)| id).collect();
        let got: Vec<u32> = buf.topm_ids().collect();
        prop_assert_eq!(got, want);
    }
}
