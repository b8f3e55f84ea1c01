//! Product quantization — compressed vector storage for out-of-core
//! scale (ROADMAP item 3; the paper's DEEP-100M runs need ~400 bytes
//! per vector in f32, PQ brings that to `m` bytes).
//!
//! The vector space is split into `m` contiguous subspaces (the first
//! `dim % m` subspaces take the extra dimension when `m` does not
//! divide `dim`). Each subspace gets its own codebook of up to 256
//! centroids fitted by k-means on a deterministic sample
//! ([`crate::sample`]), and a vector is stored as `m` one-byte
//! centroid indices. Decoding concatenates the chosen centroids;
//! asymmetric distance (in `distance::adc`) never decodes at all — it
//! looks the codes up in a per-query table.
//!
//! Everything here is deterministic for a given `(data, config)` pair
//! under any thread count: training touches rows in sampled-ascending
//! order on a single RNG stream, ties in assignment break toward the
//! lowest centroid index, and empty clusters are reseeded from the
//! farthest sample point by a strict-greater scan.

use crate::sample::{derive_seed, sample_rows, STAGE_KMEANS, STAGE_SAMPLE};
use crate::storage::{PermutableStore, PqView, VectorStore};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Training configuration for a [`PqCodebook`].
#[derive(Clone, Copy, Debug)]
pub struct PqConfig {
    /// Number of subspaces == bytes per encoded vector. `1..=dim`.
    pub m: usize,
    /// Lloyd iterations per subspace.
    pub iters: usize,
    /// Training sample size (clamped to the dataset size).
    pub sample: usize,
    /// Base seed; all internal streams derive from it.
    pub seed: u64,
}

impl PqConfig {
    /// Defaults tuned for the eval workloads: 8 Lloyd iterations on a
    /// 16k-row sample train a 96-dim codebook in a few seconds on one
    /// core while recall@10 after rerank matches full precision.
    pub fn new(m: usize) -> PqConfig {
        PqConfig { m, iters: 8, sample: 16_384, seed: 0x9a7e }
    }
}

/// Per-subspace centroid tables.
#[derive(Clone, Debug)]
pub struct PqCodebook {
    dim: usize,
    m: usize,
    /// Centroids per subspace (shared across subspaces), `1..=256`.
    ksub: usize,
    /// Subspace boundaries: subspace `s` covers dims
    /// `starts[s]..starts[s+1]`. Length `m + 1`.
    starts: Vec<u32>,
    /// Concatenated per-subspace centroid tables, subspace-major:
    /// subspace `s` holds `ksub * dsub_s` f32 at `cent_off[s]`.
    centroids: Vec<f32>,
    /// Offsets into `centroids`, length `m + 1`.
    cent_off: Vec<u32>,
    /// Max squared distance from any training-sample subvector to its
    /// nearest centroid, per subspace — the quantizer's error bound
    /// for vectors drawn from the training set.
    bound: Vec<f32>,
}

/// Subspace boundaries: the first `dim % m` subspaces take `dim/m + 1`
/// dimensions, the rest `dim/m`.
fn subspace_starts(dim: usize, m: usize) -> Vec<u32> {
    let (dsub, rem) = (dim / m, dim % m);
    let mut starts = Vec::with_capacity(m + 1);
    let mut at = 0u32;
    starts.push(at);
    for s in 0..m {
        at += (dsub + usize::from(s < rem)) as u32;
        starts.push(at);
    }
    starts
}

/// Nearest centroid for one subvector: strictly-less comparison keeps
/// the lowest index on ties, which makes assignment order-free.
fn nearest(cents: &[f32], dsub: usize, x: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, cent) in cents.chunks_exact(dsub).enumerate() {
        let d: f32 = cent.iter().zip(x).map(|(&a, &b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Lloyd's k-means over one subspace of the gathered sample. Serial
/// and seed-deterministic. Returns the centroid table and the max
/// squared assignment distance over the sample (the quantizer bound).
fn kmeans_subspace(
    sample: &[f32],
    sn: usize,
    dim: usize,
    span: std::ops::Range<usize>,
    ksub: usize,
    iters: usize,
    seed: u64,
) -> (Vec<f32>, f32) {
    let (lo, hi) = (span.start, span.end);
    let dsub = hi - lo;
    let sub = |p: usize| &sample[p * dim + lo..p * dim + hi];
    let init = sample_rows(sn, ksub, seed);
    let mut cents = Vec::with_capacity(ksub * dsub);
    for &p in &init {
        cents.extend_from_slice(sub(p as usize));
    }
    let mut assign = vec![0u32; sn];
    let mut err = vec![0f32; sn];
    for _ in 0..iters {
        for p in 0..sn {
            let (c, d) = nearest(&cents, dsub, sub(p));
            assign[p] = c as u32;
            err[p] = d;
        }
        let mut counts = vec![0u32; ksub];
        cents.fill(0.0);
        for (p, &a) in assign.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            for (acc, &v) in cents[c * dsub..(c + 1) * dsub].iter_mut().zip(sub(p)) {
                *acc += v;
            }
        }
        for c in 0..ksub {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f32;
                for v in &mut cents[c * dsub..(c + 1) * dsub] {
                    *v *= inv;
                }
            } else {
                // Reseed from the farthest point (strict `>` scan:
                // deterministic; zeroing its error hands the *next*
                // empty cluster the next-farthest point).
                let far = err
                    .iter()
                    .enumerate()
                    .fold((0usize, -1.0f32), |b, (p, &e)| if e > b.1 { (p, e) } else { b })
                    .0;
                cents[c * dsub..(c + 1) * dsub].copy_from_slice(sub(far));
                err[far] = 0.0;
            }
        }
    }
    let bound = (0..sn).map(|p| nearest(&cents, dsub, sub(p)).1).fold(0.0f32, f32::max);
    (cents, bound)
}

impl PqCodebook {
    /// Train codebooks on a deterministic sample of `store`.
    ///
    /// Panics if the store is empty or `m` is not in `1..=dim`.
    pub fn train<S: VectorStore + ?Sized>(store: &S, cfg: &PqConfig) -> PqCodebook {
        let (n, dim) = (store.len(), store.dim());
        assert!(n > 0, "cannot train a codebook on an empty store");
        assert!(cfg.m >= 1 && cfg.m <= dim, "subspace count {} out of range for dim {dim}", cfg.m);
        let rows = sample_rows(n, cfg.sample.max(1), derive_seed(cfg.seed, STAGE_SAMPLE));
        let sn = rows.len();
        let mut sample = vec![0f32; sn * dim];
        for (r, &i) in rows.iter().enumerate() {
            store.get_into(i as usize, &mut sample[r * dim..(r + 1) * dim]);
        }
        let ksub = sn.min(256);
        let starts = subspace_starts(dim, cfg.m);
        let mut centroids = Vec::new();
        let mut cent_off = vec![0u32];
        let mut bound = Vec::with_capacity(cfg.m);
        for s in 0..cfg.m {
            let (lo, hi) = (starts[s] as usize, starts[s + 1] as usize);
            let (cents, b) = kmeans_subspace(
                &sample,
                sn,
                dim,
                lo..hi,
                ksub,
                cfg.iters.max(1),
                derive_seed(cfg.seed, STAGE_KMEANS + s as u64),
            );
            centroids.extend_from_slice(&cents);
            cent_off.push(centroids.len() as u32);
            bound.push(b);
        }
        PqCodebook { dim, m: cfg.m, ksub, starts, centroids, cent_off, bound }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces == bytes per encoded vector.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per subspace.
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Dimension range `[lo, hi)` of subspace `s`.
    pub fn subspace(&self, s: usize) -> (usize, usize) {
        (self.starts[s] as usize, self.starts[s + 1] as usize)
    }

    /// Centroid table of subspace `s`: `ksub` rows of `dsub_s` f32.
    pub fn centroids(&self, s: usize) -> &[f32] {
        &self.centroids[self.cent_off[s] as usize..self.cent_off[s + 1] as usize]
    }

    /// Max squared distance from any training-sample subvector to its
    /// nearest centroid in subspace `s`. For vectors drawn from the
    /// training set, per-subspace squared reconstruction error is
    /// `<= quantizer_bound(s)`.
    pub fn quantizer_bound(&self, s: usize) -> f32 {
        self.bound[s]
    }

    /// Encode one row.
    pub fn encode_row(&self, row: &[f32], codes: &mut [u8]) {
        assert_eq!(row.len(), self.dim, "row length");
        assert_eq!(codes.len(), self.m, "code length");
        for (s, code) in codes.iter_mut().enumerate() {
            let (lo, hi) = self.subspace(s);
            let (c, _) = nearest(self.centroids(s), hi - lo, &row[lo..hi]);
            *code = c as u8;
        }
    }

    /// Decode codes into a vector: the chosen centroids, concatenated.
    pub fn decode_into(&self, codes: &[u8], out: &mut [f32]) {
        assert_eq!(codes.len(), self.m, "code length");
        assert_eq!(out.len(), self.dim, "output length");
        for (s, &code) in codes.iter().enumerate() {
            let (lo, hi) = self.subspace(s);
            let dsub = hi - lo;
            let c = code as usize;
            out[lo..hi].copy_from_slice(&self.centroids(s)[c * dsub..(c + 1) * dsub]);
        }
    }

    /// Serialize (self-describing blob; used by bundle format v3).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&(self.dim as u64).to_le_bytes())?;
        w.write_all(&(self.m as u32).to_le_bytes())?;
        w.write_all(&(self.ksub as u32).to_le_bytes())?;
        // Reserved flag byte of the blob layout; `read_from` accepts
        // only 0.
        w.write_all(&[0u8])?;
        for &v in &self.centroids {
            w.write_all(&v.to_le_bytes())?;
        }
        for &b in &self.bound {
            w.write_all(&b.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialize a blob written by [`PqCodebook::write_to`] for
    /// vectors of `dim` dimensions (the enclosing bundle's header
    /// value). Every table is sized from `dim`, so a blob claiming a
    /// different one is rejected before anything is allocated.
    pub fn read_from<R: Read>(r: &mut R, dim: usize) -> io::Result<PqCodebook> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut b8 = [0u8; 8];
        let mut b4 = [0u8; 4];
        let mut b1 = [0u8; 1];
        r.read_exact(&mut b8)?;
        if u64::from_le_bytes(b8) != dim as u64 {
            return Err(bad("pq codebook dim does not match the bundle dim"));
        }
        r.read_exact(&mut b4)?;
        let m = u32::from_le_bytes(b4) as usize;
        r.read_exact(&mut b4)?;
        let ksub = u32::from_le_bytes(b4) as usize;
        if dim == 0 || m == 0 || m > dim || ksub == 0 || ksub > 256 {
            return Err(bad("pq codebook header out of range"));
        }
        r.read_exact(&mut b1)?;
        if b1[0] != 0 {
            return Err(bad(
                "pq codebook has the rotation flag set; rotated codebooks are unsupported",
            ));
        }
        let starts = subspace_starts(dim, m);
        let mut cent_off = vec![0u32];
        for s in 0..m {
            let dsub = (starts[s + 1] - starts[s]) as usize;
            cent_off.push(cent_off[s] + (ksub * dsub) as u32);
        }
        let centroids = read_f32s(r, *cent_off.last().unwrap() as usize)?;
        let bound = read_f32s(r, m)?;
        Ok(PqCodebook { dim, m, ksub, starts, centroids, cent_off, bound })
    }
}

/// Read `len` little-endian f32s, growing the table as values arrive
/// so a corrupt header fails at end of input instead of allocating
/// what it claims.
fn read_f32s<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<f32>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut buf)?;
        out.push(f32::from_le_bytes(buf));
    }
    Ok(out)
}

/// An `N x m` matrix of one-byte codes over a shared codebook.
///
/// Implements [`VectorStore`] (rows decode on demand) so graph build,
/// relabeling, bundles, and serving all work unchanged, and exposes the
/// raw codes via [`VectorStore::flat_pq`] so the distance oracle can
/// score rows without decoding.
#[derive(Clone, Debug)]
pub struct PqStore {
    codebook: Arc<PqCodebook>,
    codes: Vec<u8>,
    n: usize,
}

impl PqStore {
    /// Encode every row of `store` against `codebook`.
    pub fn encode<S: VectorStore + ?Sized>(codebook: Arc<PqCodebook>, store: &S) -> PqStore {
        assert_eq!(store.dim(), codebook.dim(), "store/codebook dim mismatch");
        let (n, m, dim) = (store.len(), codebook.m(), codebook.dim());
        let mut codes = vec![0u8; n * m];
        let mut row = vec![0f32; dim];
        for i in 0..n {
            store.get_into(i, &mut row);
            codebook.encode_row(&row, &mut codes[i * m..(i + 1) * m]);
        }
        PqStore { codebook, codes, n }
    }

    /// Build a store from parts (bundle loading).
    ///
    /// Panics if `codes.len() != n * codebook.m()`.
    pub fn from_parts(codebook: Arc<PqCodebook>, codes: Vec<u8>, n: usize) -> PqStore {
        assert_eq!(codes.len(), n * codebook.m(), "code matrix shape");
        PqStore { codebook, codes, n }
    }

    /// The shared codebook.
    pub fn codebook(&self) -> &Arc<PqCodebook> {
        &self.codebook
    }

    /// The full code matrix, row-major `n x m`.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Codes of row `i`.
    pub fn row_codes(&self, i: usize) -> &[u8] {
        let m = self.codebook.m();
        &self.codes[i * m..(i + 1) * m]
    }
}

/// Train a codebook on `store` and encode it in one step.
pub fn build<S: VectorStore + ?Sized>(store: &S, cfg: &PqConfig) -> PqStore {
    let codebook = Arc::new(PqCodebook::train(store, cfg));
    PqStore::encode(codebook, store)
}

impl VectorStore for PqStore {
    fn len(&self) -> usize {
        self.n
    }
    fn dim(&self) -> usize {
        self.codebook.dim()
    }
    fn get_into(&self, i: usize, out: &mut [f32]) {
        self.codebook.decode_into(self.row_codes(i), out);
    }
    fn bytes_per_vector(&self) -> usize {
        self.codebook.m() // codebook amortizes to ~0 over N rows
    }
    fn flat_pq(&self) -> Option<PqView<'_>> {
        Some(PqView { codes: &self.codes, codebook: &self.codebook })
    }
}

impl PermutableStore for PqStore {
    fn permuted(&self, old_of_new: &[u32]) -> Self {
        assert_eq!(old_of_new.len(), self.n, "permutation/store size mismatch");
        let mut codes = Vec::with_capacity(self.codes.len());
        for &old in old_of_new {
            codes.extend_from_slice(self.row_codes(old as usize));
        }
        PqStore { codebook: Arc::clone(&self.codebook), codes, n: self.n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Dataset;
    use crate::synth::{Family, SynthSpec};
    use proptest::prelude::*;

    fn synth(n: usize, dim: usize, seed: u64) -> Dataset {
        let spec = SynthSpec { dim, n, queries: 0, family: Family::Gaussian, seed };
        spec.generate().0
    }

    #[test]
    fn uneven_dims_partition_exactly() {
        let starts = subspace_starts(7, 3);
        assert_eq!(starts, vec![0, 3, 5, 7]);
        let starts = subspace_starts(8, 4);
        assert_eq!(starts, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn round_trip_is_exact_when_every_point_is_a_centroid() {
        // ksub >= n and training on the full set: each point's nearest
        // centroid is (a duplicate of) itself, so decode(encode(x))
        // reproduces x exactly up to f32 mean-of-one arithmetic.
        let d = synth(40, 9, 3);
        let store = build(&d, &PqConfig { sample: 40, ..PqConfig::new(3) });
        let mut out = vec![0f32; 9];
        for i in 0..d.len() {
            store.get_into(i, &mut out);
            for (a, b) in out.iter().zip(d.row(i)) {
                assert!((a - b).abs() < 1e-5, "row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = synth(300, 12, 7);
        let cfg = PqConfig::new(4);
        let a = build(&d, &cfg);
        let b = build(&d, &cfg);
        assert_eq!(a.codes(), b.codes());
        assert_eq!(a.codebook().centroids(0), b.codebook().centroids(0));
    }

    #[test]
    fn codebook_round_trips_through_serialization() {
        let d = synth(120, 10, 11);
        let cfg = PqConfig { sample: 64, ..PqConfig::new(5) };
        let store = build(&d, &cfg);
        let mut blob = Vec::new();
        store.codebook().write_to(&mut blob).unwrap();
        let cb = PqCodebook::read_from(&mut blob.as_slice(), 10).unwrap();
        assert_eq!(cb.dim(), 10);
        assert_eq!(cb.m(), 5);
        assert_eq!(cb.ksub(), store.codebook().ksub());
        for s in 0..5 {
            assert_eq!(cb.centroids(s), store.codebook().centroids(s));
            assert_eq!(cb.quantizer_bound(s), store.codebook().quantizer_bound(s));
        }
        // Re-encoding under the deserialized codebook is bit-identical.
        let again = PqStore::encode(Arc::new(cb), &d);
        assert_eq!(again.codes(), store.codes());
    }

    #[test]
    fn read_from_rejects_a_set_rotation_flag_and_a_foreign_dim() {
        let d = synth(40, 6, 3);
        let mut blob = Vec::new();
        build(&d, &PqConfig::new(2)).codebook().write_to(&mut blob).unwrap();
        let invalid = |blob: &[u8], dim| {
            let err = PqCodebook::read_from(&mut &blob[..], dim).expect_err("must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        };
        invalid(&blob, 7);
        // dim u64 | m u32 | ksub u32 | flag u8
        assert_eq!(blob[16], 0, "the writer always emits flag 0");
        blob[16] = 1;
        invalid(&blob, 6);
    }

    #[test]
    fn permuted_store_decodes_moved_rows() {
        let d = synth(20, 6, 13);
        let store = build(&d, &PqConfig { sample: 20, ..PqConfig::new(2) });
        let old_of_new: Vec<u32> = (0..20).rev().collect();
        let p = store.permuted(&old_of_new);
        let (mut a, mut b) = (vec![0f32; 6], vec![0f32; 6]);
        for new in 0..20 {
            p.get_into(new, &mut a);
            store.get_into(19 - new, &mut b);
            assert_eq!(a, b, "row {new}");
        }
    }

    #[test]
    fn bytes_per_vector_is_m() {
        let d = synth(32, 8, 1);
        let store = build(&d, &PqConfig::new(4));
        assert_eq!(store.bytes_per_vector(), 4);
        assert_eq!(d.bytes_per_vector(), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn m_larger_than_dim_panics() {
        let d = synth(10, 4, 1);
        PqCodebook::train(&d, &PqConfig::new(5));
    }

    proptest! {
        /// The quantizer bound is real: for vectors from the training
        /// set, per-subspace squared reconstruction error never
        /// exceeds `quantizer_bound(s)`.
        #[test]
        fn reconstruction_error_within_per_subspace_bound(
            n in 2usize..40,
            dim in 1usize..12,
            m_frac in 0usize..4,
            seed in 0u64..1000,
        ) {
            let m = (m_frac % dim.max(1)) + 1;
            let d = synth(n, dim, seed);
            let cfg = PqConfig { m, sample: n, iters: 3, seed };
            let store = build(&d, &cfg);
            let cb = store.codebook();
            let mut rec = vec![0f32; dim];
            for i in 0..n {
                store.get_into(i, &mut rec);
                for s in 0..m {
                    let (lo, hi) = cb.subspace(s);
                    let err: f32 = rec[lo..hi]
                        .iter()
                        .zip(&d.row(i)[lo..hi])
                        .map(|(&a, &b)| (a - b) * (a - b))
                        .sum();
                    let bound = cb.quantizer_bound(s);
                    prop_assert!(
                        err <= bound * 1.0001 + 1e-6,
                        "row {i} subspace {s}: err {err} > bound {bound}"
                    );
                }
            }
        }
    }
}
