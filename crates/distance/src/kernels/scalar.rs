//! Canonical scalar kernels — the bit-exactness reference.
//!
//! Every backend (AVX2, NEON, this one) must reproduce these results
//! *bit for bit*. The contract that makes that possible:
//!
//! 1. **8-lane accumulation.** The vector is consumed in chunks of 8;
//!    lane `l` of the accumulator only ever sees elements with index
//!    `≡ l (mod 8)`, in chunk order. An AVX2 `f32x8` register (or a
//!    NEON `float32x4` pair) accumulates the same partial sums in the
//!    same order.
//! 2. **Fixed horizontal reduction.** [`hsum8`] collapses the 8 lanes
//!    as `s_l = acc[l] + acc[l+4]` (the natural 256→128-bit fold),
//!    then `(s0 + s1) + (s2 + s3)`. All backends use this tree.
//! 3. **Sequential tail.** The `len % 8` remainder is added one
//!    element at a time *after* the horizontal sum, identically
//!    everywhere.
//! 4. **No FMA.** A fused multiply-add rounds once where `mul` then
//!    `add` rounds twice, so FMA in one backend but not another would
//!    break bit-identity. These kernels are memory-bound; the lost
//!    FLOPs are not measurable.
//!
//! Widening is exact in both directions — binary16 → f32 is lossless
//! and `i8 as f32` is lossless — and the int8 dequant `code * scale`
//! is a single f32 rounding in every backend, so the typed kernels
//! match "widen the whole row, then run the f32 kernel" bit for bit.

use super::MULTI;
use dataset::F16;

/// Fold an 8-lane accumulator with the canonical reduction tree.
#[inline(always)]
pub(crate) fn hsum8(acc: &[f32; 8]) -> f32 {
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    (s0 + s1) + (s2 + s3)
}

/// Row-element accessor: how to widen element `j` of a stored row.
///
/// The three implementations (f32 pass-through, binary16 widen, int8
/// dequant) are `#[inline(always)]` so each kernel monomorphizes to a
/// tight loop with the conversion fused in — the scalar analogue of
/// the SIMD backends widening inside the vector loop.
pub(crate) trait RowSrc {
    fn at(&self, j: usize) -> f32;
}

pub(crate) struct SrcF32<'a>(pub &'a [f32]);
impl RowSrc for SrcF32<'_> {
    #[inline(always)]
    fn at(&self, j: usize) -> f32 {
        self.0[j]
    }
}

pub(crate) struct SrcF16<'a>(pub &'a [F16]);
impl RowSrc for SrcF16<'_> {
    #[inline(always)]
    fn at(&self, j: usize) -> f32 {
        self.0[j].to_f32()
    }
}

pub(crate) struct SrcI8<'a> {
    pub codes: &'a [i8],
    pub scales: &'a [f32],
}
impl RowSrc for SrcI8<'_> {
    #[inline(always)]
    fn at(&self, j: usize) -> f32 {
        self.codes[j] as f32 * self.scales[j]
    }
}

#[inline(always)]
fn l2_generic<R: RowSrc>(q: &[f32], r: &R) -> f32 {
    let n = q.len();
    let chunks = n / 8;
    let mut acc = [0.0f32; 8];
    for c in 0..chunks {
        let base = c * 8;
        for (lane, a) in acc.iter_mut().enumerate() {
            let d = q[base + lane] - r.at(base + lane);
            *a += d * d;
        }
    }
    let mut sum = hsum8(&acc);
    for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
        let d = qj - r.at(j);
        sum += d * d;
    }
    sum
}

#[inline(always)]
fn dot_generic<R: RowSrc>(q: &[f32], r: &R) -> f32 {
    let n = q.len();
    let chunks = n / 8;
    let mut acc = [0.0f32; 8];
    for c in 0..chunks {
        let base = c * 8;
        for (lane, a) in acc.iter_mut().enumerate() {
            *a += q[base + lane] * r.at(base + lane);
        }
    }
    let mut sum = hsum8(&acc);
    for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
        sum += qj * r.at(j);
    }
    sum
}

/// One-pass `(q · r, r · r)` — the cosine kernel. Two independent
/// accumulator sets, each following the canonical order, so the pair
/// equals separate `dot(q, r)` / `dot(r, r)` calls bit for bit.
#[inline(always)]
fn dot_norm_generic<R: RowSrc>(q: &[f32], r: &R) -> (f32, f32) {
    let n = q.len();
    let chunks = n / 8;
    let mut ab = [0.0f32; 8];
    let mut bb = [0.0f32; 8];
    for c in 0..chunks {
        let base = c * 8;
        for lane in 0..8 {
            let w = r.at(base + lane);
            ab[lane] += q[base + lane] * w;
            bb[lane] += w * w;
        }
    }
    let mut sab = hsum8(&ab);
    let mut sbb = hsum8(&bb);
    for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
        let w = r.at(j);
        sab += qj * w;
        sbb += w * w;
    }
    (sab, sbb)
}

pub fn l2_f32(q: &[f32], r: &[f32]) -> f32 {
    l2_generic(q, &SrcF32(r))
}
pub fn dot_f32(q: &[f32], r: &[f32]) -> f32 {
    dot_generic(q, &SrcF32(r))
}
pub fn dot_norm_f32(q: &[f32], r: &[f32]) -> (f32, f32) {
    dot_norm_generic(q, &SrcF32(r))
}

// The multi-row entries are, by definition, one one-row call per row.
pub fn l2_f32_x4(q: &[f32], rows: [&[f32]; MULTI]) -> [f32; MULTI] {
    rows.map(|r| l2_f32(q, r))
}
pub fn dot_f32_x4(q: &[f32], rows: [&[f32]; MULTI]) -> [f32; MULTI] {
    rows.map(|r| dot_f32(q, r))
}
pub fn dot_norm_f32_x4(q: &[f32], rows: [&[f32]; MULTI]) -> [(f32, f32); MULTI] {
    rows.map(|r| dot_norm_f32(q, r))
}

pub fn l2_f16(q: &[f32], r: &[F16]) -> f32 {
    l2_generic(q, &SrcF16(r))
}
pub fn dot_f16(q: &[f32], r: &[F16]) -> f32 {
    dot_generic(q, &SrcF16(r))
}
pub fn dot_norm_f16(q: &[f32], r: &[F16]) -> (f32, f32) {
    dot_norm_generic(q, &SrcF16(r))
}

pub fn l2_i8(q: &[f32], codes: &[i8], scales: &[f32]) -> f32 {
    l2_generic(q, &SrcI8 { codes, scales })
}
pub fn dot_i8(q: &[f32], codes: &[i8], scales: &[f32]) -> f32 {
    dot_generic(q, &SrcI8 { codes, scales })
}
pub fn dot_norm_i8(q: &[f32], codes: &[i8], scales: &[f32]) -> (f32, f32) {
    dot_norm_generic(q, &SrcI8 { codes, scales })
}
