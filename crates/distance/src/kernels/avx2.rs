//! AVX2 backend — 8 f32 lanes per iteration, matching the canonical
//! scalar order in [`super::scalar`] bit for bit.
//!
//! Per the bit-exactness contract there is deliberately **no FMA**
//! (`_mm256_fmadd_ps` rounds once; `mul` + `add` rounds twice like the
//! scalar reference) and the horizontal sum folds 256→128 bits then
//! combines the four 128-bit lanes in the fixed `(s0+s1)+(s2+s3)`
//! tree. FP16 rows widen with `vcvtph2ps` (requires `f16c`; the
//! conversion is exact, identical to [`dataset::F16::to_f32`]) and
//! int8 rows widen with sign extension + `cvtdq2ps`, both inside the
//! vector loop — no row is ever copied.
//!
//! Everything here is `unsafe fn` gated on runtime detection in
//! [`super::detect`]; the public dispatch table only installs these
//! entries when `avx2` (and `f16c` for the FP16 kernels) is present.

#![cfg(target_arch = "x86_64")]

use super::MULTI;
use core::arch::x86_64::*;
use dataset::F16;

/// Canonical 8-lane horizontal sum: fold the high 128-bit half onto
/// the low half (`s_l = acc[l] + acc[l+4]`), then `(s0+s1)+(s2+s3)`.
///
/// # Safety
/// Requires `avx2`.
#[inline(always)]
unsafe fn hsum8(acc: __m256) -> f32 {
    // SAFETY: caller contract guarantees `avx2`; every intrinsic here
    // is register-only except the store into the 4-lane local, which
    // exactly fills `lanes`.
    unsafe {
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let s = _mm_add_ps(lo, hi);
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), s);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }
}

// --- 8-wide row loaders -------------------------------------------------
// Each widens 8 stored elements starting at `base` into an f32x8.
// Callers guarantee `base + 8 <= row length`.

/// # Safety
/// Requires `avx2` and `base + 8 <= r.len()`.
#[inline(always)]
unsafe fn load8_f32(r: &[f32], base: usize) -> __m256 {
    debug_assert!(base + 8 <= r.len());
    // SAFETY: caller contract — `avx2` available and `base + 8 <=
    // r.len()`, so the unaligned 8-lane load stays inside `r`.
    unsafe { _mm256_loadu_ps(r.as_ptr().add(base)) }
}

/// # Safety
/// Requires `avx2` + `f16c` and `base + 8 <= r.len()`.
#[inline(always)]
unsafe fn load8_f16(r: &[F16], base: usize) -> __m256 {
    debug_assert!(base + 8 <= r.len());
    // SAFETY: caller contract — `avx2`+`f16c` available and `base + 8
    // <= r.len()`; eight binary16 values = 128 bits read in bounds,
    // and vcvtph2ps widens them exactly.
    unsafe {
        let raw = _mm_loadu_si128(r.as_ptr().add(base) as *const __m128i);
        _mm256_cvtph_ps(raw)
    }
}

/// # Safety
/// Requires `avx2` and `base + 8` in bounds of both `codes` and
/// `scales`.
#[inline(always)]
unsafe fn load8_i8(codes: &[i8], scales: &[f32], base: usize) -> __m256 {
    debug_assert!(base + 8 <= codes.len() && base + 8 <= scales.len());
    // SAFETY: caller contract — `avx2` available and `base + 8` within
    // both `codes` (64-bit load) and `scales` (256-bit load).
    // Sign-extend to i32, convert (exact), then one multiply by the
    // per-dimension scales (one rounding, same as the scalar
    // `code as f32 * scale`).
    unsafe {
        let raw = _mm_loadl_epi64(codes.as_ptr().add(base) as *const __m128i);
        let wide = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
        _mm256_mul_ps(wide, _mm256_loadu_ps(scales.as_ptr().add(base)))
    }
}

// --- generic kernel bodies ----------------------------------------------
// `load8` widens a vector chunk, `at` widens one tail element. The
// bodies are `#[inline(always)]` and only ever called from the
// `#[target_feature]` wrappers below, so they compile with AVX2
// enabled. Closures do not inherit the caller's unsafe context, hence
// the explicit `unsafe` blocks at each call site.

/// # Safety
/// Requires `avx2`; `load8(base)`/`at(j)` must be in bounds for every
/// `base + 8 <= q.len()` and `j < q.len()` (row length >= `q.len()`).
#[inline(always)]
unsafe fn l2_body(q: &[f32], load8: impl Fn(usize) -> __m256, at: impl Fn(usize) -> f32) -> f32 {
    let n = q.len();
    let chunks = n / 8;
    // SAFETY: caller contract — `avx2` available and the row behind
    // `load8`/`at` is at least `q.len()` long, so every `base = c*8`
    // with `base + 8 <= n` keeps the query load in bounds and the
    // loaders' own preconditions hold.
    unsafe {
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 8;
            let d = _mm256_sub_ps(_mm256_loadu_ps(q.as_ptr().add(base)), load8(base));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut sum = hsum8(acc);
        for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
            let d = qj - at(j);
            sum += d * d;
        }
        sum
    }
}

/// # Safety
/// As for [`l2_body`].
#[inline(always)]
unsafe fn dot_body(q: &[f32], load8: impl Fn(usize) -> __m256, at: impl Fn(usize) -> f32) -> f32 {
    let n = q.len();
    let chunks = n / 8;
    // SAFETY: as in `l2_body` — caller guarantees `avx2` and row
    // length >= `q.len()`.
    unsafe {
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 8;
            let qv = _mm256_loadu_ps(q.as_ptr().add(base));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(qv, load8(base)));
        }
        let mut sum = hsum8(acc);
        for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
            sum += qj * at(j);
        }
        sum
    }
}

/// # Safety
/// As for [`l2_body`].
#[inline(always)]
unsafe fn dot_norm_body(
    q: &[f32],
    load8: impl Fn(usize) -> __m256,
    at: impl Fn(usize) -> f32,
) -> (f32, f32) {
    let n = q.len();
    let chunks = n / 8;
    // SAFETY: as in `l2_body` — caller guarantees `avx2` and row
    // length >= `q.len()`.
    unsafe {
        let mut ab = _mm256_setzero_ps();
        let mut bb = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 8;
            let qv = _mm256_loadu_ps(q.as_ptr().add(base));
            let w = load8(base);
            ab = _mm256_add_ps(ab, _mm256_mul_ps(qv, w));
            bb = _mm256_add_ps(bb, _mm256_mul_ps(w, w));
        }
        let mut sab = hsum8(ab);
        let mut sbb = hsum8(bb);
        for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
            let w = at(j);
            sab += qj * w;
            sbb += w * w;
        }
        (sab, sbb)
    }
}

// --- public kernels -----------------------------------------------------
// Safety for all: the caller must have verified the named target
// features at runtime and pass equal-length query/row slices.

/// # Safety
/// Requires `avx2`; `q.len() == r.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn l2_f32(q: &[f32], r: &[f32]) -> f32 {
    // SAFETY: `load8_f32` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_f32(r, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { l2_body(q, load8, |j| r[j]) }
}

/// # Safety
/// Requires `avx2`; `q.len() == r.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_f32(q: &[f32], r: &[f32]) -> f32 {
    // SAFETY: `load8_f32` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_f32(r, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { dot_body(q, load8, |j| r[j]) }
}

/// # Safety
/// Requires `avx2`; `q.len() == r.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_norm_f32(q: &[f32], r: &[f32]) -> (f32, f32) {
    // SAFETY: `load8_f32` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_f32(r, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { dot_norm_body(q, load8, |j| r[j]) }
}

// --- multi-row f32 kernels ----------------------------------------------
// One query against `MULTI` rows: the query chunk loads once, and each
// row keeps its own accumulator running exactly the one-row kernel's
// operations (same lanes, same `hsum8`, same sequential tail), so row
// `i`'s result equals `l2_f32(q, rows[i])` bit for bit. The four
// independent chains hide the add latency a single row's chain waits
// on.

/// # Safety
/// Requires `avx2`; every row is `q.len()` long.
#[target_feature(enable = "avx2")]
pub unsafe fn l2_f32_x4(q: &[f32], rows: [&[f32]; MULTI]) -> [f32; MULTI] {
    let chunks = q.len() / 8;
    // SAFETY: caller contract — `avx2` available and every row is
    // `q.len()` long, so each `base + 8 <= q.len()` load of the query
    // and of every row stays in bounds.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); MULTI];
        for c in 0..chunks {
            let base = c * 8;
            let qv = _mm256_loadu_ps(q.as_ptr().add(base));
            for (a, r) in acc.iter_mut().zip(rows) {
                let d = _mm256_sub_ps(qv, load8_f32(r, base));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(d, d));
            }
        }
        let mut out = [0.0f32; MULTI];
        for ((o, a), r) in out.iter_mut().zip(acc).zip(rows) {
            let mut sum = hsum8(a);
            for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
                let d = qj - r[j];
                sum += d * d;
            }
            *o = sum;
        }
        out
    }
}

/// # Safety
/// Requires `avx2`; every row is `q.len()` long.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_f32_x4(q: &[f32], rows: [&[f32]; MULTI]) -> [f32; MULTI] {
    let chunks = q.len() / 8;
    // SAFETY: as in `l2_f32_x4` — `avx2` available and every row is
    // `q.len()` long.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); MULTI];
        for c in 0..chunks {
            let base = c * 8;
            let qv = _mm256_loadu_ps(q.as_ptr().add(base));
            for (a, r) in acc.iter_mut().zip(rows) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(qv, load8_f32(r, base)));
            }
        }
        let mut out = [0.0f32; MULTI];
        for ((o, a), r) in out.iter_mut().zip(acc).zip(rows) {
            let mut sum = hsum8(a);
            for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
                sum += qj * r[j];
            }
            *o = sum;
        }
        out
    }
}

/// # Safety
/// Requires `avx2`; every row is `q.len()` long.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_norm_f32_x4(q: &[f32], rows: [&[f32]; MULTI]) -> [(f32, f32); MULTI] {
    let chunks = q.len() / 8;
    // SAFETY: as in `l2_f32_x4` — `avx2` available and every row is
    // `q.len()` long.
    unsafe {
        let mut ab = [_mm256_setzero_ps(); MULTI];
        let mut bb = [_mm256_setzero_ps(); MULTI];
        for c in 0..chunks {
            let base = c * 8;
            let qv = _mm256_loadu_ps(q.as_ptr().add(base));
            for ((sab, sbb), r) in ab.iter_mut().zip(bb.iter_mut()).zip(rows) {
                let w = load8_f32(r, base);
                *sab = _mm256_add_ps(*sab, _mm256_mul_ps(qv, w));
                *sbb = _mm256_add_ps(*sbb, _mm256_mul_ps(w, w));
            }
        }
        let mut out = [(0.0f32, 0.0f32); MULTI];
        for (((o, a), b), r) in out.iter_mut().zip(ab).zip(bb).zip(rows) {
            let mut sab = hsum8(a);
            let mut sbb = hsum8(b);
            for (j, &qj) in q.iter().enumerate().skip(chunks * 8) {
                let w = r[j];
                sab += qj * w;
                sbb += w * w;
            }
            *o = (sab, sbb);
        }
        out
    }
}

/// # Safety
/// Requires `avx2` and `f16c`; `q.len() == r.len()`.
#[target_feature(enable = "avx2,f16c")]
pub unsafe fn l2_f16(q: &[f32], r: &[F16]) -> f32 {
    // SAFETY: `load8_f16` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_f16(r, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { l2_body(q, load8, |j| r[j].to_f32()) }
}

/// # Safety
/// Requires `avx2` and `f16c`; `q.len() == r.len()`.
#[target_feature(enable = "avx2,f16c")]
pub unsafe fn dot_f16(q: &[f32], r: &[F16]) -> f32 {
    // SAFETY: `load8_f16` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_f16(r, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { dot_body(q, load8, |j| r[j].to_f32()) }
}

/// # Safety
/// Requires `avx2` and `f16c`; `q.len() == r.len()`.
#[target_feature(enable = "avx2,f16c")]
pub unsafe fn dot_norm_f16(q: &[f32], r: &[F16]) -> (f32, f32) {
    // SAFETY: `load8_f16` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_f16(r, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { dot_norm_body(q, load8, |j| r[j].to_f32()) }
}

/// # Safety
/// Requires `avx2`; `q`, `codes`, `scales` all of equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn l2_i8(q: &[f32], codes: &[i8], scales: &[f32]) -> f32 {
    // SAFETY: `load8_i8` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_i8(codes, scales, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { l2_body(q, load8, |j| codes[j] as f32 * scales[j]) }
}

/// # Safety
/// Requires `avx2`; `q`, `codes`, `scales` all of equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_i8(q: &[f32], codes: &[i8], scales: &[f32]) -> f32 {
    // SAFETY: `load8_i8` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees the row
    // is `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_i8(codes, scales, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { dot_body(q, load8, |j| codes[j] as f32 * scales[j]) }
}

/// # Safety
/// Requires `avx2`; `q`, `codes`, `scales` all of equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_norm_i8(q: &[f32], codes: &[i8], scales: &[f32]) -> (f32, f32) {
    // SAFETY: `load8_i8` needs `base + 8 <= row len`; the body only
    // passes `base + 8 <= q.len()` and the caller guarantees codes and
    // scales are `q.len()` long. Features are this fn's own contract.
    let load8 = |base| unsafe { load8_i8(codes, scales, base) };
    // SAFETY: forwarded caller contract (target features + lengths).
    unsafe { dot_norm_body(q, load8, |j| codes[j] as f32 * scales[j]) }
}
