//! Asymmetric distance computation (ADC) over product-quantized rows.
//!
//! A PQ-encoded row is `m` one-byte centroid indices. Instead of
//! decoding and running a full-dimension kernel, ADC builds one lookup
//! table per query — `m × 256` f32 entries, entry `(s, c)` holding the
//! metric contribution of subspace `s` under centroid `c` — and scores
//! a row with `m` table lookups. The table is built once per
//! [`crate::PreparedQuery`] (inside [`crate::DistanceOracle::prepare`]
//! when the store is PQ-backed), so the per-row cost in the search hot
//! loop drops from `O(dim)` multiplies to `O(m)` gathers.
//!
//! **Bit-exactness.** ADC follows the same contract as the dense
//! kernels (`kernels::scalar` module docs), transposed to subspaces:
//!
//! 1. Table entries are computed with the oracle's kernel table on
//!    per-subspace slices — bit-identical across backends by the dense
//!    contract.
//! 2. Row scores accumulate the `m` looked-up entries in 8-lane order
//!    (lane `l` sums subspaces `≡ l (mod 8)` in chunk order), reduce
//!    with the shared [`hsum8`] tree, and finish the tail
//!    sequentially. The AVX2 gather path mirrors this lane assignment
//!    exactly, so `CAGRA_FORCE_SCALAR=0/1` produce the same bits.
//! 3. Cosine uses a paired table (`q·c` and `c·c` halves) reduced as
//!    two parallel sums, then the same `cosine_from_parts` epilogue as
//!    the dense path.
//!
//! For squared L2 the ADC score equals the exact distance to the
//! *reconstructed* row (subspaces partition the dimensions), so
//! two-phase search degrades only by quantization error, never by the
//! scoring shortcut itself.

use crate::kernels::scalar::hsum8;
use crate::kernels::Kernels;
use crate::{cosine_from_parts, Metric};
use dataset::PqView;

/// Per-query ADC lookup table over one codebook.
///
/// Layout: squared L2 and inner product use a single `m * 256` table;
/// cosine stores two halves (`q·c` at `[0, m*256)`, `c·c` at
/// `[m*256, 2*m*256)`) sharing one gather index stream.
pub struct AdcTable {
    data: Vec<f32>,
    m: usize,
    metric: Metric,
    /// Score rows with the AVX2 gather kernel (set when the building
    /// oracle runs the `avx2` backend; scalar otherwise — NEON has no
    /// gather, so it shares the canonical scalar path).
    use_avx2: bool,
}

impl AdcTable {
    /// Build the table for `query` against a PQ view, computing the
    /// per-subspace entries with `kern` (the building oracle's
    /// backend).
    pub fn build(
        view: &PqView<'_>,
        metric: Metric,
        query: &[f32],
        kern: &'static Kernels,
    ) -> AdcTable {
        let cb = view.codebook;
        let (m, ksub) = (cb.m(), cb.ksub());
        assert_eq!(query.len(), cb.dim(), "query/codebook dim mismatch");
        let paired = metric == Metric::Cosine;
        let mut data = vec![0.0f32; m * 256 * if paired { 2 } else { 1 }];
        for s in 0..m {
            let (lo, hi) = cb.subspace(s);
            let qs = &query[lo..hi];
            let dsub = hi - lo;
            let cents = cb.centroids(s);
            for c in 0..ksub {
                let cent = &cents[c * dsub..(c + 1) * dsub];
                match metric {
                    Metric::SquaredL2 => data[s * 256 + c] = (kern.l2)(qs, cent),
                    Metric::InnerProduct => data[s * 256 + c] = (kern.dot)(qs, cent),
                    Metric::Cosine => {
                        let (ab, bb) = (kern.dot_norm)(qs, cent);
                        data[s * 256 + c] = ab;
                        data[m * 256 + s * 256 + c] = bb;
                    }
                }
            }
            // Entries past ksub stay 0.0; valid codes never reach them
            // (the encoder emits codes < ksub).
        }
        let use_avx2 = cfg!(target_arch = "x86_64") && kern.name == "avx2";
        AdcTable { data, m, metric, use_avx2 }
    }

    /// Bytes per encoded vector this table scores.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Score one code row (`codes.len() == m`). `qnorm` is the hoisted
    /// query norm, used only under cosine.
    ///
    /// # Panics
    /// Panics if `codes.len() != m`.
    #[inline]
    pub fn score(&self, codes: &[u8], qnorm: f32) -> f32 {
        assert_eq!(codes.len(), self.m, "code row length");
        match self.metric {
            Metric::SquaredL2 => self.sum(&self.data, codes),
            Metric::InnerProduct => -self.sum(&self.data, codes),
            Metric::Cosine => {
                let (ab, bb) = self.sum2(codes);
                cosine_from_parts(qnorm, (ab, bb))
            }
        }
    }

    #[inline]
    fn sum(&self, lut: &[f32], codes: &[u8]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            debug_assert!(lut.len() >= codes.len() * 256);
            // SAFETY: `use_avx2` is set only when the building kernel
            // table is the avx2 backend, which `detect()` installs
            // only after the runtime feature probe succeeded. The
            // constructor sizes `lut` to `m * 256` (per half) and
            // `score` asserts `codes.len() == m`, so every gather
            // index `s * 256 + code` with `code < 256` is in bounds.
            return unsafe { x86::sum_avx2(lut, codes) };
        }
        sum_scalar(lut, codes)
    }

    #[inline]
    fn sum2(&self, codes: &[u8]) -> (f32, f32) {
        let (ab, bb) = self.data.split_at(self.m * 256);
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            // SAFETY: same argument as `sum` — feature probed at
            // detect time, both halves sized `m * 256`, and all
            // gather indices bounded by `m * 256` by construction.
            return unsafe { x86::sum2_avx2(ab, bb, codes) };
        }
        sum2_scalar(ab, bb, codes)
    }
}

/// Canonical scalar reduction: 8-lane accumulation over subspaces in
/// chunk order, [`hsum8`] tree, sequential tail — the subspace
/// transposition of `kernels::scalar`'s element-wise contract.
fn sum_scalar(lut: &[f32], codes: &[u8]) -> f32 {
    let m = codes.len();
    let chunks = m / 8;
    let mut acc = [0.0f32; 8];
    for c in 0..chunks {
        for (l, a) in acc.iter_mut().enumerate() {
            let s = c * 8 + l;
            *a += lut[s * 256 + codes[s] as usize];
        }
    }
    let mut sum = hsum8(&acc);
    for s in chunks * 8..m {
        sum += lut[s * 256 + codes[s] as usize];
    }
    sum
}

/// Paired variant: two sums (cosine `q·c` / `c·c` halves) sharing one
/// pass over the codes.
fn sum2_scalar(lut_ab: &[f32], lut_bb: &[f32], codes: &[u8]) -> (f32, f32) {
    let m = codes.len();
    let chunks = m / 8;
    let mut ab = [0.0f32; 8];
    let mut bb = [0.0f32; 8];
    for c in 0..chunks {
        for l in 0..8 {
            let s = c * 8 + l;
            let at = s * 256 + codes[s] as usize;
            ab[l] += lut_ab[at];
            bb[l] += lut_bb[at];
        }
    }
    let mut sab = hsum8(&ab);
    let mut sbb = hsum8(&bb);
    for (s, &code) in codes.iter().enumerate().skip(chunks * 8) {
        let at = s * 256 + code as usize;
        sab += lut_ab[at];
        sbb += lut_bb[at];
    }
    (sab, sbb)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 gather kernels for the ADC row score. Lane `l` of the
    //! accumulator sees exactly the subspaces lane `l` of the scalar
    //! accumulator sees, and the reduction reuses [`hsum8`], so the
    //! output bits match `sum_scalar`/`sum2_scalar` exactly.

    use super::hsum8;
    use core::arch::x86_64::*;

    /// Widened gather indices for the 8 codes of chunk `c`: subspace
    /// `c*8 + l` maps to `c*2048 + l*256 + code`.
    ///
    /// # Safety
    /// Requires AVX2, and `codes` must have at least `(c + 1) * 8`
    /// readable bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn chunk_indices(codes: &[u8], c: usize, offs: __m256i) -> __m256i {
        // SAFETY: caller guarantees 8 bytes at `c * 8` are in bounds;
        // an unaligned 8-byte read of initialized `u8` data is valid.
        let raw = unsafe { (codes.as_ptr().add(c * 8) as *const i64).read_unaligned() };
        _mm256_add_epi32(
            _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(raw)),
            _mm256_add_epi32(offs, _mm256_set1_epi32((c * 2048) as i32)),
        )
    }

    /// # Safety
    /// Requires AVX2 and `lut.len() >= codes.len() * 256` (every
    /// gather index `s * 256 + codes[s]` must be in bounds).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_avx2(lut: &[f32], codes: &[u8]) -> f32 {
        let m = codes.len();
        let chunks = m / 8;
        let offs = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            // SAFETY: `c < chunks` keeps the 8-byte code read in
            // bounds; the caller's `lut` length contract bounds every
            // gathered index (codes are u8, so `< m * 256`).
            unsafe {
                let idx = chunk_indices(codes, c, offs);
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(lut.as_ptr(), idx));
            }
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is 8 f32s, exactly one __m256 store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        let mut sum = hsum8(&lanes);
        for s in chunks * 8..m {
            sum += lut[s * 256 + codes[s] as usize];
        }
        sum
    }

    /// # Safety
    /// Requires AVX2; both halves must satisfy
    /// `len >= codes.len() * 256`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum2_avx2(lut_ab: &[f32], lut_bb: &[f32], codes: &[u8]) -> (f32, f32) {
        let m = codes.len();
        let chunks = m / 8;
        let offs = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        let mut acc_ab = _mm256_setzero_ps();
        let mut acc_bb = _mm256_setzero_ps();
        for c in 0..chunks {
            // SAFETY: as in `sum_avx2`, for both table halves (one
            // shared index vector, two gathers).
            unsafe {
                let idx = chunk_indices(codes, c, offs);
                acc_ab = _mm256_add_ps(acc_ab, _mm256_i32gather_ps::<4>(lut_ab.as_ptr(), idx));
                acc_bb = _mm256_add_ps(acc_bb, _mm256_i32gather_ps::<4>(lut_bb.as_ptr(), idx));
            }
        }
        let mut lanes_ab = [0.0f32; 8];
        let mut lanes_bb = [0.0f32; 8];
        // SAFETY: each array is 8 f32s, exactly one __m256 store.
        unsafe {
            _mm256_storeu_ps(lanes_ab.as_mut_ptr(), acc_ab);
            _mm256_storeu_ps(lanes_bb.as_mut_ptr(), acc_bb);
        }
        let mut sab = hsum8(&lanes_ab);
        let mut sbb = hsum8(&lanes_bb);
        for (s, &code) in codes.iter().enumerate().skip(chunks * 8) {
            let at = s * 256 + code as usize;
            sab += lut_ab[at];
            sbb += lut_bb[at];
        }
        (sab, sbb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use dataset::synth::{Family, SynthSpec};
    use dataset::{pq, Dataset, PqConfig, VectorStore};

    fn synth(n: usize, dim: usize, seed: u64) -> Dataset {
        let spec = SynthSpec { dim, n, queries: 0, family: Family::Gaussian, seed };
        spec.generate().0
    }

    /// Independent canonical reduction (the scalar contract restated),
    /// used as the naive reference the LUT kernels must match bitwise.
    fn canonical_sum(vals: &[f32]) -> f32 {
        let chunks = vals.len() / 8;
        let mut acc = [0.0f32; 8];
        for c in 0..chunks {
            for (l, a) in acc.iter_mut().enumerate() {
                *a += vals[c * 8 + l];
            }
        }
        let mut sum = hsum8(&acc);
        for &v in &vals[chunks * 8..] {
            sum += v;
        }
        sum
    }

    /// Naive ADC: per-subspace metric parts computed directly from the
    /// row's centroids (no table, no gather), reduced canonically.
    fn naive_adc(
        store: &dataset::PqStore,
        row: usize,
        metric: Metric,
        q: &[f32],
        kern: &'static Kernels,
    ) -> f32 {
        let cb = store.codebook();
        let codes = store.row_codes(row);
        let m = cb.m();
        let mut parts = vec![0.0f32; m];
        let mut parts2 = vec![0.0f32; m];
        for s in 0..m {
            let (lo, hi) = cb.subspace(s);
            let dsub = hi - lo;
            let c = codes[s] as usize;
            let cent = &cb.centroids(s)[c * dsub..(c + 1) * dsub];
            let qs = &q[lo..hi];
            match metric {
                Metric::SquaredL2 => parts[s] = (kern.l2)(qs, cent),
                Metric::InnerProduct => parts[s] = (kern.dot)(qs, cent),
                Metric::Cosine => {
                    let (ab, bb) = (kern.dot_norm)(qs, cent);
                    parts[s] = ab;
                    parts2[s] = bb;
                }
            }
        }
        match metric {
            Metric::SquaredL2 => canonical_sum(&parts),
            Metric::InnerProduct => -canonical_sum(&parts),
            Metric::Cosine => {
                let qnorm = (kern.dot)(q, q).sqrt();
                cosine_from_parts(qnorm, (canonical_sum(&parts), canonical_sum(&parts2)))
            }
        }
    }

    #[test]
    fn lut_matches_naive_bitwise_across_dims_and_metrics() {
        // Satellite coverage: dims 1..=67 x 3 metrics, m varying with
        // dim so both the 8-lane body and the tail are exercised, on
        // the scalar AND the detected backend.
        let metrics = [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine];
        for dim in 1usize..=67 {
            let m = ((dim - 1) % 11 + 1).min(dim);
            let d = synth(24, dim, dim as u64);
            let store = pq::build(&d, &PqConfig { sample: 24, iters: 2, ..PqConfig::new(m) });
            let view = store.flat_pq().unwrap();
            let q = d.row(0).to_vec();
            for metric in metrics {
                for kern in [kernels::scalar(), kernels::detected()] {
                    let table = AdcTable::build(&view, metric, &q, kern);
                    let qnorm = (kern.dot)(&q, &q).sqrt();
                    for row in 0..store.len() {
                        let lut = table.score(store.row_codes(row), qnorm);
                        let naive = naive_adc(&store, row, metric, &q, kern);
                        assert_eq!(
                            lut.to_bits(),
                            naive.to_bits(),
                            "dim {dim} m {m} {metric:?} {} row {row}: {lut} vs {naive}",
                            kern.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_and_detected_backends_agree_bitwise() {
        let d = synth(40, 33, 9);
        let store = pq::build(&d, &PqConfig { sample: 40, iters: 3, ..PqConfig::new(9) });
        let view = store.flat_pq().unwrap();
        let q = d.row(1).to_vec();
        for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            let ts = AdcTable::build(&view, metric, &q, kernels::scalar());
            let td = AdcTable::build(&view, metric, &q, kernels::detected());
            let qnorm = crate::dot(&q, &q).sqrt();
            for row in 0..store.len() {
                let a = ts.score(store.row_codes(row), qnorm);
                let b = td.score(store.row_codes(row), qnorm);
                assert_eq!(a.to_bits(), b.to_bits(), "{metric:?} row {row}");
            }
        }
    }

    #[test]
    fn l2_adc_equals_distance_to_reconstruction() {
        // Subspaces partition the dims, so the ADC L2 score *is* the
        // L2 distance to the decoded row (up to f32 associativity).
        let d = synth(30, 16, 4);
        let store = pq::build(&d, &PqConfig { sample: 30, iters: 4, ..PqConfig::new(4) });
        let view = store.flat_pq().unwrap();
        let q = d.row(2).to_vec();
        let table = AdcTable::build(&view, Metric::SquaredL2, &q, kernels::scalar());
        let mut rec = vec![0.0f32; 16];
        for row in 0..store.len() {
            store.get_into(row, &mut rec);
            let adc = table.score(store.row_codes(row), 0.0);
            let exact = crate::squared_l2(&q, &rec);
            assert!((adc - exact).abs() <= 1e-4 * exact.max(1.0), "row {row}: {adc} vs {exact}");
        }
    }

    #[test]
    #[should_panic(expected = "code row length")]
    fn wrong_code_length_panics() {
        let d = synth(10, 8, 1);
        let store = pq::build(&d, &PqConfig { sample: 10, ..PqConfig::new(4) });
        let view = store.flat_pq().unwrap();
        let table = AdcTable::build(&view, Metric::SquaredL2, d.row(0), kernels::scalar());
        table.score(&[0u8; 3], 0.0);
    }
}
