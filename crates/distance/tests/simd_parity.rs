//! SIMD-vs-scalar bit-exactness: the contract that lets recall numbers
//! and search results be independent of the host CPU.
//!
//! Every backend entry must match the canonical scalar kernel *bit for
//! bit* across all remainder-lane shapes (dims 1..=67 cover every
//! `len % 8` plus multi-chunk cases), all three metrics, and all three
//! element types; and the batched `to_rows` gang kernel must equal
//! repeated `to_row` calls exactly.

use dataset::{f16, Dataset, DatasetF16, DatasetI8, VectorStore};
use distance::kernels::{self, Kernels};
use distance::{DistanceOracle, Metric};
use proptest::prelude::*;

/// Deterministic pseudo-random f32s in roughly [-8, 8) with plenty of
/// fractional bits, so summation-order differences would actually show
/// up in the low mantissa bits if a backend strayed from the contract.
fn lcg_vec(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 16.0
        })
        .collect()
}

fn assert_pair_bits(tag: &str, dim: usize, a: f32, b: f32) {
    assert_eq!(a.to_bits(), b.to_bits(), "{tag} diverged at dim {dim}: {a} vs {b}");
}

/// Exhaustive sweep: every kernel table entry, every dim 1..=67, every
/// element type, scalar vs detected backend, bit for bit.
#[test]
fn all_kernels_match_scalar_bitwise_for_all_remainder_lanes() {
    let s: &Kernels = kernels::scalar();
    let v: &Kernels = kernels::detected();
    for dim in 1..=67usize {
        let q = lcg_vec(dim as u64, dim);
        let r = lcg_vec(dim as u64 + 1000, dim);
        let r16 = f16::narrow_slice(&r);
        let quant = Dataset::from_flat(r.clone(), dim).to_i8();
        let (codes, scales) = quant.flat_i8().unwrap();

        assert_pair_bits("l2 f32", dim, (s.l2)(&q, &r), (v.l2)(&q, &r));
        assert_pair_bits("dot f32", dim, (s.dot)(&q, &r), (v.dot)(&q, &r));
        let (sab, sbb) = (s.dot_norm)(&q, &r);
        let (vab, vbb) = (v.dot_norm)(&q, &r);
        assert_pair_bits("dot_norm.ab f32", dim, sab, vab);
        assert_pair_bits("dot_norm.bb f32", dim, sbb, vbb);

        assert_pair_bits("l2 f16", dim, (s.l2_f16)(&q, &r16), (v.l2_f16)(&q, &r16));
        assert_pair_bits("dot f16", dim, (s.dot_f16)(&q, &r16), (v.dot_f16)(&q, &r16));
        let (sab, sbb) = (s.dot_norm_f16)(&q, &r16);
        let (vab, vbb) = (v.dot_norm_f16)(&q, &r16);
        assert_pair_bits("dot_norm.ab f16", dim, sab, vab);
        assert_pair_bits("dot_norm.bb f16", dim, sbb, vbb);

        assert_pair_bits("l2 i8", dim, (s.l2_i8)(&q, codes, scales), (v.l2_i8)(&q, codes, scales));
        assert_pair_bits(
            "dot i8",
            dim,
            (s.dot_i8)(&q, codes, scales),
            (v.dot_i8)(&q, codes, scales),
        );
        let (sab, sbb) = (s.dot_norm_i8)(&q, codes, scales);
        let (vab, vbb) = (v.dot_norm_i8)(&q, codes, scales);
        assert_pair_bits("dot_norm.ab i8", dim, sab, vab);
        assert_pair_bits("dot_norm.bb i8", dim, sbb, vbb);
    }
}

/// The multi-row entries equal `MULTI` one-row calls of the scalar
/// reference bit for bit, on every backend, for every remainder shape.
#[test]
fn multi_row_kernels_equal_one_row_scalar_calls() {
    let s = kernels::scalar();
    for table in [kernels::scalar(), kernels::detected()] {
        for dim in 1..=67usize {
            let q = lcg_vec(dim as u64 + 11, dim);
            let rows: Vec<Vec<f32>> =
                (0..kernels::MULTI).map(|t| lcg_vec(dim as u64 * 31 + t as u64, dim)).collect();
            let refs: [&[f32]; kernels::MULTI] = std::array::from_fn(|t| rows[t].as_slice());
            let l2 = (table.l2_x4)(&q, refs);
            let dot = (table.dot_x4)(&q, refs);
            let dot_norm = (table.dot_norm_x4)(&q, refs);
            for (t, r) in refs.iter().enumerate() {
                let tag = format!("{} row {t}", table.name);
                assert_pair_bits(&format!("{tag} l2_x4"), dim, l2[t], (s.l2)(&q, r));
                assert_pair_bits(&format!("{tag} dot_x4"), dim, dot[t], (s.dot)(&q, r));
                let (ab, bb) = (s.dot_norm)(&q, r);
                assert_pair_bits(&format!("{tag} dot_norm_x4.ab"), dim, dot_norm[t].0, ab);
                assert_pair_bits(&format!("{tag} dot_norm_x4.bb"), dim, dot_norm[t].1, bb);
            }
        }
    }
}

/// `to_rows` on every gang length 0..=9 — no multi-row group, one or
/// two groups, and every remainder — equals `to_row_prepared` per id.
#[test]
fn to_rows_equals_to_row_prepared_at_every_gang_length() {
    let (n, dim) = (12usize, 21usize);
    let base = Dataset::from_flat(lcg_vec(77, n * dim), dim);
    let query = lcg_vec(78, dim);
    for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
        for table in [kernels::scalar(), kernels::detected()] {
            let o = DistanceOracle::with_kernels(&base, metric, table);
            let pq = o.prepare(&query);
            for len in 0..=9usize {
                let ids: Vec<u32> = (0..len).map(|j| ((j * 5 + 3) % n) as u32).collect();
                let mut out = vec![f32::NAN; len];
                o.to_rows(&pq, &ids, &mut out);
                for (j, (&id, &got)) in ids.iter().zip(&out).enumerate() {
                    let one = o.to_row_prepared(&pq, id as usize);
                    assert_eq!(
                        got.to_bits(),
                        one.to_bits(),
                        "{metric:?} {} len {len} slot {j}",
                        table.name
                    );
                }
            }
        }
    }
}

/// The typed (in-loop widening) kernels must equal "widen the whole
/// row first, then run the f32 kernel" — this is what makes dropping
/// the `get_into` copies a pure optimization.
#[test]
fn typed_kernels_equal_widen_then_f32() {
    for table in [kernels::scalar(), kernels::detected()] {
        for dim in 1..=67usize {
            let q = lcg_vec(dim as u64 + 7, dim);
            let r = lcg_vec(dim as u64 + 2000, dim);
            let r16 = f16::narrow_slice(&r);
            let mut widened = vec![0.0f32; dim];
            f16::widen_into(&r16, &mut widened);
            assert_pair_bits(table.name, dim, (table.l2_f16)(&q, &r16), (table.l2)(&q, &widened));

            let quant = Dataset::from_flat(r.clone(), dim).to_i8();
            let (codes, scales) = quant.flat_i8().unwrap();
            let mut dq = vec![0.0f32; dim];
            quant.get_into(0, &mut dq);
            assert_pair_bits(
                table.name,
                dim,
                (table.l2_i8)(&q, codes, scales),
                (table.l2)(&q, &dq),
            );
            assert_pair_bits(
                table.name,
                dim,
                (table.dot_i8)(&q, codes, scales),
                (table.dot)(&q, &dq),
            );
        }
    }
}

fn store_oracles<'a, S: VectorStore + ?Sized>(
    store: &'a S,
    metric: Metric,
) -> (DistanceOracle<'a, S>, DistanceOracle<'a, S>) {
    (
        DistanceOracle::with_kernels(store, metric, kernels::scalar()),
        DistanceOracle::with_kernels(store, metric, kernels::detected()),
    )
}

fn check_oracle_parity<S: VectorStore + ?Sized>(store: &S, n: usize, dim: usize) {
    let query = lcg_vec(99, dim);
    let ids: Vec<u32> = (0..n as u32).rev().chain(0..n as u32 / 2).collect();
    for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
        let (scalar_o, simd_o) = store_oracles(store, metric);
        let pq_s = scalar_o.prepare(&query);
        let pq_v = simd_o.prepare(&query);
        assert_eq!(pq_s.norm().to_bits(), pq_v.norm().to_bits());

        let mut out_s = vec![0.0f32; ids.len()];
        let mut out_v = vec![0.0f32; ids.len()];
        scalar_o.to_rows(&pq_s, &ids, &mut out_s);
        simd_o.to_rows(&pq_v, &ids, &mut out_v);
        for (j, (a, b)) in out_s.iter().zip(&out_v).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{metric:?} to_rows[{j}]");
            // Batched == one-at-a-time, on both backends.
            let one = simd_o.to_row(&query, ids[j] as usize);
            assert_eq!(b.to_bits(), one.to_bits(), "{metric:?} gang vs to_row[{j}]");
        }

        for i in 0..n.min(6) {
            for j in 0..n.min(6) {
                assert_eq!(
                    scalar_o.between_rows(i, j).to_bits(),
                    simd_o.between_rows(i, j).to_bits(),
                    "{metric:?} between_rows({i},{j})"
                );
            }
        }
    }
}

#[test]
fn oracle_parity_across_stores_and_metrics() {
    let (n, dim) = (40, 33);
    let base = Dataset::from_flat(lcg_vec(5, n * dim), dim);
    check_oracle_parity(&base, n, dim);
    let h: DatasetF16 = base.to_f16();
    check_oracle_parity(&h, n, dim);
    let q: DatasetI8 = base.to_i8();
    check_oracle_parity(&q, n, dim);
}

proptest! {
    /// Random dims and data: f32 kernel entries agree bitwise between
    /// scalar and the detected backend.
    #[test]
    fn f32_kernels_bitwise_equal(dim in 1usize..=67, seed in 0u64..1_000_000) {
        let q = lcg_vec(seed, dim);
        let r = lcg_vec(seed ^ 0xABCD, dim);
        let s = kernels::scalar();
        let v = kernels::detected();
        prop_assert_eq!((s.l2)(&q, &r).to_bits(), (v.l2)(&q, &r).to_bits());
        prop_assert_eq!((s.dot)(&q, &r).to_bits(), (v.dot)(&q, &r).to_bits());
        let (sab, sbb) = (s.dot_norm)(&q, &r);
        let (vab, vbb) = (v.dot_norm)(&q, &r);
        prop_assert_eq!(sab.to_bits(), vab.to_bits());
        prop_assert_eq!(sbb.to_bits(), vbb.to_bits());
    }

    /// `dot_norm` is a fusion, not a reassociation: its two halves
    /// must equal independent `dot` calls bit for bit.
    #[test]
    fn dot_norm_fusion_is_exact(dim in 1usize..=67, seed in 0u64..1_000_000) {
        let q = lcg_vec(seed, dim);
        let r = lcg_vec(seed ^ 0x1234, dim);
        for table in [kernels::scalar(), kernels::detected()] {
            let (ab, bb) = (table.dot_norm)(&q, &r);
            prop_assert_eq!(ab.to_bits(), (table.dot)(&q, &r).to_bits());
            prop_assert_eq!(bb.to_bits(), (table.dot)(&r, &r).to_bits());
        }
    }

    /// `to_rows` equals repeated `to_row` on random id sequences
    /// (with repeats), for every metric.
    #[test]
    fn to_rows_equals_repeated_to_row(seed in 0u64..1_000_000, picks in proptest::collection::vec(0usize..24, 1..40)) {
        let dim = 19;
        let base = Dataset::from_flat(lcg_vec(seed, 24 * dim), dim);
        let query = lcg_vec(seed ^ 0x77, dim);
        let ids: Vec<u32> = picks.iter().map(|&p| p as u32).collect();
        for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            let o = DistanceOracle::new(&base, metric);
            let pq = o.prepare(&query);
            let mut out = vec![0.0f32; ids.len()];
            o.to_rows(&pq, &ids, &mut out);
            for (&id, &got) in ids.iter().zip(&out) {
                prop_assert_eq!(got.to_bits(), o.to_row(&query, id as usize).to_bits());
            }
        }
    }
}
