//! CAGRA search-machinery invariants over arbitrary inputs.

use cagra::search::buffer::{BufEntry, SearchBuffer};
use cagra::search::parent::{is_parented, node_id, set_parented};
use proptest::prelude::*;

/// The distance an id scores whenever it is scored (so an id that is
/// scored twice — forgotten by the hash, then met again — comes back
/// as an exact duplicate of its list entry). Quantized: distinct ids
/// tie often.
fn dist_of(id: u32) -> f32 {
    (id.wrapping_mul(2_654_435_761) % 23) as f32 * 0.5
}

proptest! {
    /// `push_candidate` against its definition, push by push: stable
    /// sort of `topm ++ [candidate]` by `(dist, node_id)`, a NaN
    /// candidate dropped, first M kept. The stream has everything the
    /// kernel produces — ids repeated within a round (two parents
    /// sharing a neighbor) and across rounds (duplicates re-scored
    /// after a forgettable reset), underfull lists, entries parented
    /// between rounds — plus `f32::MAX` entries that tie the dummies.
    /// Each round's parent pick must take the best unparented entries,
    /// as a scan from the list head would.
    #[test]
    fn push_candidate_equals_sort_and_truncate_oracle(
        m in 1usize..24,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..48, 0u8..8), 0..40), 0usize..3),
            1..12,
        ),
    ) {
        let mut buf = SearchBuffer::new(m);
        let mut want = vec![BufEntry::DUMMY; m];
        for (round, (candidates, parents)) in rounds.iter().enumerate() {
            for &(id, kind) in candidates {
                let c = match kind {
                    0..=2 => BufEntry::new(id, f32::MAX),
                    3 => BufEntry::new(id, f32::NAN),
                    _ => BufEntry::new(id, dist_of(id)),
                };
                let admitted = buf.push_candidate(c);

                let mut all: Vec<(BufEntry, bool)> = want.iter().map(|&e| (e, false)).collect();
                all.extend((!c.dist.is_nan()).then_some((c, true)));
                all.sort_by(|(a, _), (b, _)| {
                    a.dist
                        .partial_cmp(&b.dist)
                        .unwrap()
                        .then(node_id(a.packed).cmp(&node_id(b.packed)))
                });
                all.truncate(m);
                want = all.iter().map(|&(e, _)| e).collect();
                prop_assert_eq!(buf.topm(), &want[..], "round {}", round);
                prop_assert_eq!(admitted, all.iter().any(|(_, fresh)| *fresh));
            }

            // Step 2 in both lists: the first unparented real entries.
            let mut picked = Vec::new();
            buf.pick_parents(*parents, &mut picked);
            let mut expected = Vec::new();
            for entry in want.iter_mut().filter(|e| !is_parented(e.packed)).take(*parents) {
                expected.push(node_id(entry.packed));
                entry.packed = set_parented(entry.packed);
            }
            prop_assert_eq!(picked, expected, "round {}", round);
            prop_assert_eq!(buf.topm(), &want[..], "round {}", round);
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
        let mut buf = SearchBuffer::new(m);
        let mut all: Vec<(f32, u32)> = Vec::new();
        let mut next_id = 0u32;
        for chunk in &chunks {
            for &d in chunk {
                buf.push_candidate(BufEntry::new(next_id, d));
                all.push((d, next_id));
                next_id += 1;
            }
        }
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let want: Vec<u32> = all.iter().take(m).map(|&(_, id)| id).collect();
        let got: Vec<u32> = buf.topm_ids().collect();
        prop_assert_eq!(got, want);
    }
}
