//! Distance kernels for the CAGRA reproduction.
//!
//! Every index in the workspace measures similarity through
//! [`Metric`], covering the paper's distance options: squared L2 (the
//! default for SIFT/GIST/DEEP), inner product, and cosine (angular
//! datasets such as GloVe). The arithmetic lives in [`kernels`]: a
//! SIMD engine (AVX2 on x86_64, NEON on aarch64, scalar everywhere)
//! selected once at startup through a function-pointer table — the CPU
//! analogue of the paper's team-based 128-bit loads — with every
//! backend bit-identical to the canonical scalar order, so recall
//! numbers do not depend on the host CPU.
//!
//! A [`DistanceOracle`] wraps a [`VectorStore`] and hands out
//! query-to-row distances. It resolves the store's native layout once
//! (f32 / binary16 / int8 flat matrices) so FP16 and Int8 rows widen
//! *inside* the SIMD loop instead of through a per-row `get_into`
//! copy, hoists per-query invariants into a [`PreparedQuery`], and
//! exposes the batched [`DistanceOracle::to_rows`] gang kernel that
//! the search hot loops use to score a parent's whole adjacency list
//! in one call.

// See the workspace soundness policy (DESIGN.md "Soundness & analysis"):
// unsafe ops inside `unsafe fn` need their own `unsafe {}` + SAFETY.
#![deny(unsafe_op_in_unsafe_fn)]

use dataset::VectorStore;
use serde::{Deserialize, Serialize};

pub mod adc;
pub mod kernels;

pub use adc::AdcTable;
pub use kernels::Kernels;

/// Distance (or similarity converted to a distance) between vectors.
///
/// All variants are *smaller-is-closer* so search code can be metric
/// agnostic: inner product is negated, cosine is `1 - cos`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Squared Euclidean distance. Monotone with L2, so top-k results
    /// are identical while avoiding the square root (as CUDA ANN
    /// kernels do).
    SquaredL2,
    /// Negated inner product.
    InnerProduct,
    /// Cosine distance `1 - cos(a, b)`.
    Cosine,
}

impl Metric {
    /// Distance between two raw slices.
    ///
    /// # Panics
    /// Panics (debug) if lengths differ.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let k = kernels::active();
        match self {
            Metric::SquaredL2 => (k.l2)(a, b),
            Metric::InnerProduct => -(k.dot)(a, b),
            Metric::Cosine => {
                let qnorm = (k.dot)(a, a).sqrt();
                cosine_from_parts(qnorm, (k.dot_norm)(a, b))
            }
        }
    }
}

/// `1 - cos` from the hoisted query norm and a fused `(a·b, b·b)`
/// pair; zero vectors are maximally far by convention. Public so the
/// two-phase rerank path can hoist the query norm once and reuse the
/// exact cosine epilogue the oracle uses.
#[inline]
pub fn cosine_from_parts(qnorm: f32, (ab, bb): (f32, f32)) -> f32 {
    let nb = bb.sqrt();
    if qnorm == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - ab / (qnorm * nb)
}

/// Squared L2 distance via the active SIMD backend.
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    (kernels::active().l2)(a, b)
}

/// Dot product via the active SIMD backend.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    (kernels::active().dot)(a, b)
}

/// Fused `(a · b, b · b)` via the active SIMD backend — the cosine
/// building block ([`cosine_from_parts`] turns it into a distance).
#[inline]
pub fn dot_norm(a: &[f32], b: &[f32]) -> (f32, f32) {
    (kernels::active().dot_norm)(a, b)
}

/// Cosine distance `1 - cos`; zero vectors are treated as maximally
/// far. One-shot form — search loops instead hoist the query norm via
/// [`DistanceOracle::prepare`] so `dot(a, a)` is not recomputed per
/// pair.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    Metric::Cosine.distance(a, b)
}

/// A query with its per-query invariants hoisted: for cosine, the
/// query L2 norm (previously recomputed from `dot(a, a)` on every
/// pair), and for PQ-backed stores the per-query ADC lookup table.
/// Borrowed by the batched oracle entry points.
pub struct PreparedQuery<'q> {
    query: &'q [f32],
    /// `‖q‖₂` under [`Metric::Cosine`]; 0.0 (unused) otherwise.
    norm: f32,
    /// The `m × 256` ADC table when the oracle's store is PQ-backed
    /// (built once here — the only per-query allocation on that path).
    adc: Option<AdcTable>,
}

impl<'q> PreparedQuery<'q> {
    /// The raw query slice.
    pub fn query(&self) -> &'q [f32] {
        self.query
    }

    /// The hoisted cosine query norm (0.0 for other metrics).
    pub fn norm(&self) -> f32 {
        self.norm
    }
}

/// The store's native row layout, resolved once per oracle so the hot
/// path dispatches on it without virtual calls or copies.
enum Rows<'a> {
    F32(&'a [f32]),
    F16(&'a [dataset::F16]),
    I8(&'a [i8], &'a [f32]),
    /// Product-quantized codes; scored via a per-query ADC table.
    Pq(dataset::PqView<'a>),
    /// No flat view available: widen per row through `get_into`.
    Opaque,
}

/// Query-to-dataset distance evaluator over any [`VectorStore`].
///
/// Captures the active [`Kernels`] table at construction, owns two
/// scratch rows (so even row-to-row distances on widening stores
/// allocate nothing per call), and counts every distance computed (the
/// paper's pruning analyses count these; `gpu-sim` also uses it for
/// cost). The scratch rows are sized on first use, and only the
/// widening paths use them, so constructing an oracle over an f32
/// store allocates nothing. Construct one per worker thread (it is
/// `!Sync` by design — the scratch is interior state).
pub struct DistanceOracle<'a, S: VectorStore + ?Sized> {
    store: &'a S,
    metric: Metric,
    rows: Rows<'a>,
    kern: &'static Kernels,
    dim: usize,
    scratch: std::cell::RefCell<Vec<f32>>,
    scratch2: std::cell::RefCell<Vec<f32>>,
    count: std::cell::Cell<u64>,
}

impl<'a, S: VectorStore + ?Sized> DistanceOracle<'a, S> {
    /// Create an oracle over `store` with the given metric, using the
    /// currently active kernel backend.
    pub fn new(store: &'a S, metric: Metric) -> Self {
        Self::with_kernels(store, metric, kernels::active())
    }

    /// Create an oracle pinned to a specific kernel backend (benches
    /// and parity tests compare backends side by side this way).
    pub fn with_kernels(store: &'a S, metric: Metric, kern: &'static Kernels) -> Self {
        let rows = if let Some(flat) = store.flat_f32() {
            Rows::F32(flat)
        } else if let Some(flat) = store.flat_f16() {
            Rows::F16(flat)
        } else if let Some((codes, scales)) = store.flat_i8() {
            Rows::I8(codes, scales)
        } else if let Some(view) = store.flat_pq() {
            Rows::Pq(view)
        } else {
            Rows::Opaque
        };
        DistanceOracle {
            store,
            metric,
            rows,
            kern,
            dim: store.dim(),
            scratch: std::cell::RefCell::new(Vec::new()),
            scratch2: std::cell::RefCell::new(Vec::new()),
            count: std::cell::Cell::new(0),
        }
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The underlying store.
    pub fn store(&self) -> &'a S {
        self.store
    }

    /// The kernel backend this oracle dispatches to.
    pub fn kernels(&self) -> &'static Kernels {
        self.kern
    }

    /// Hoist the per-query invariants once: the cosine query norm,
    /// and — on PQ-backed stores — the full `m × 256` ADC lookup
    /// table, so every subsequent row score is `m` table lookups. The
    /// result feeds [`Self::to_row_prepared`] and [`Self::to_rows`].
    #[inline]
    pub fn prepare<'q>(&self, query: &'q [f32]) -> PreparedQuery<'q> {
        let norm = match self.metric {
            Metric::Cosine => (self.kern.dot)(query, query).sqrt(),
            _ => 0.0,
        };
        let adc = match &self.rows {
            Rows::Pq(view) => Some(AdcTable::build(view, self.metric, query, self.kern)),
            _ => None,
        };
        PreparedQuery { query, norm, adc }
    }

    /// Distance between `query` and dataset row `i` (one-shot form;
    /// prefer [`Self::prepare`] + the prepared entry points in loops).
    #[inline]
    pub fn to_row(&self, query: &[f32], i: usize) -> f32 {
        let pq = self.prepare(query);
        self.to_row_prepared(&pq, i)
    }

    /// Distance between a prepared query and dataset row `i`.
    #[inline]
    pub fn to_row_prepared(&self, pq: &PreparedQuery<'_>, i: usize) -> f32 {
        self.count.set(self.count.get() + 1);
        self.row_distance(pq.query, pq.norm, pq.adc.as_ref(), i)
    }

    /// Batched gang kernel: distances from a prepared query to every
    /// row in `ids`, written to `out` in order. Metric and row-layout
    /// dispatch happen once per call, not once per row, and upcoming
    /// neighbor rows are prefetched while the current one computes —
    /// this is the CPU analogue of the paper scoring all `d` neighbors
    /// of a parent in one warp-wide pass.
    ///
    /// Equivalent to `to_row` per id, bit for bit.
    ///
    /// # Panics
    /// Panics if `ids.len() != out.len()`.
    pub fn to_rows(&self, pq: &PreparedQuery<'_>, ids: &[u32], out: &mut [f32]) {
        assert_eq!(ids.len(), out.len(), "to_rows: ids/out length mismatch");
        self.count.set(self.count.get() + ids.len() as u64);
        let k = self.kern;
        let q = pq.query;
        let dim = self.dim;
        match self.rows {
            Rows::F32(flat) => {
                // `kernels::MULTI` rows per kernel call; the remainder
                // goes one row at a time. Each row's bits are the
                // one-row kernel's either way.
                let row = |i: usize| &flat[i * dim..(i + 1) * dim];
                let pf = |i: usize| kernels::prefetch(flat[i * dim..].as_ptr());
                let qnorm = pq.norm;
                match self.metric {
                    Metric::SquaredL2 => {
                        gang4(ids, out, |g| (k.l2_x4)(q, g.map(row)), |i| (k.l2)(q, row(i)), pf)
                    }
                    Metric::InnerProduct => gang4(
                        ids,
                        out,
                        |g| (k.dot_x4)(q, g.map(row)).map(|d| -d),
                        |i| -(k.dot)(q, row(i)),
                        pf,
                    ),
                    Metric::Cosine => gang4(
                        ids,
                        out,
                        |g| (k.dot_norm_x4)(q, g.map(row)).map(|p| cosine_from_parts(qnorm, p)),
                        |i| cosine_from_parts(qnorm, (k.dot_norm)(q, row(i))),
                        pf,
                    ),
                }
            }
            Rows::F16(flat) => self.gang_metric(
                pq,
                ids,
                out,
                |i| (k.l2_f16)(q, &flat[i * dim..(i + 1) * dim]),
                |i| (k.dot_f16)(q, &flat[i * dim..(i + 1) * dim]),
                |i| (k.dot_norm_f16)(q, &flat[i * dim..(i + 1) * dim]),
                |i| kernels::prefetch(flat[i * dim..].as_ptr()),
            ),
            Rows::I8(codes, scales) => self.gang_metric(
                pq,
                ids,
                out,
                |i| (k.l2_i8)(q, &codes[i * dim..(i + 1) * dim], scales),
                |i| (k.dot_i8)(q, &codes[i * dim..(i + 1) * dim], scales),
                |i| (k.dot_norm_i8)(q, &codes[i * dim..(i + 1) * dim], scales),
                |i| kernels::prefetch(codes[i * dim..].as_ptr()),
            ),
            Rows::Pq(view) => {
                // Metric dispatch lives inside the table (entries were
                // built for this oracle's metric); the gang loop only
                // streams code rows through it with the usual two-ahead
                // prefetch.
                let t = pq
                    .adc
                    .as_ref()
                    .expect("PQ-backed oracle requires a query prepared on this oracle");
                let m = view.codebook.m();
                let codes = view.codes;
                let qnorm = pq.norm;
                gang(
                    ids,
                    out,
                    |i| t.score(&codes[i * m..(i + 1) * m], qnorm),
                    |i| kernels::prefetch(codes[i * m..].as_ptr()),
                );
            }
            Rows::Opaque => {
                for (o, &id) in out.iter_mut().zip(ids) {
                    let mut s = self.scratch_row(&self.scratch);
                    self.store.get_into(id as usize, &mut s);
                    *o = self.f32_pair_distance(q, pq.norm, &s);
                }
            }
        }
    }

    /// Shared gang loop: pick the per-row closure for this metric once,
    /// then stream the ids with a two-ahead row prefetch.
    #[allow(clippy::too_many_arguments)]
    fn gang_metric(
        &self,
        pq: &PreparedQuery<'_>,
        ids: &[u32],
        out: &mut [f32],
        l2: impl Fn(usize) -> f32,
        dotk: impl Fn(usize) -> f32,
        dot_norm: impl Fn(usize) -> (f32, f32),
        pf: impl Fn(usize),
    ) {
        match self.metric {
            Metric::SquaredL2 => gang(ids, out, l2, pf),
            Metric::InnerProduct => gang(ids, out, |i| -dotk(i), pf),
            Metric::Cosine => {
                let qnorm = pq.norm;
                gang(ids, out, |i| cosine_from_parts(qnorm, dot_norm(i)), pf)
            }
        }
    }

    /// Dispatch one query-to-row distance on the resolved row layout.
    /// `adc` must be `Some` when the layout is [`Rows::Pq`] (callers
    /// pass the prepared query's table; `between_rows` never routes
    /// PQ rows here).
    #[inline]
    fn row_distance(&self, q: &[f32], qnorm: f32, adc: Option<&AdcTable>, i: usize) -> f32 {
        let k = self.kern;
        let dim = self.dim;
        match self.rows {
            Rows::F32(flat) => {
                let r = &flat[i * dim..(i + 1) * dim];
                match self.metric {
                    Metric::SquaredL2 => (k.l2)(q, r),
                    Metric::InnerProduct => -(k.dot)(q, r),
                    Metric::Cosine => cosine_from_parts(qnorm, (k.dot_norm)(q, r)),
                }
            }
            Rows::F16(flat) => {
                let r = &flat[i * dim..(i + 1) * dim];
                match self.metric {
                    Metric::SquaredL2 => (k.l2_f16)(q, r),
                    Metric::InnerProduct => -(k.dot_f16)(q, r),
                    Metric::Cosine => cosine_from_parts(qnorm, (k.dot_norm_f16)(q, r)),
                }
            }
            Rows::I8(codes, scales) => {
                let r = &codes[i * dim..(i + 1) * dim];
                match self.metric {
                    Metric::SquaredL2 => (k.l2_i8)(q, r, scales),
                    Metric::InnerProduct => -(k.dot_i8)(q, r, scales),
                    Metric::Cosine => cosine_from_parts(qnorm, (k.dot_norm_i8)(q, r, scales)),
                }
            }
            Rows::Pq(view) => {
                let t = adc.expect("PQ-backed oracle requires a query prepared on this oracle");
                let m = view.codebook.m();
                t.score(&view.codes[i * m..(i + 1) * m], qnorm)
            }
            Rows::Opaque => {
                let mut s = self.scratch_row(&self.scratch);
                self.store.get_into(i, &mut s);
                self.f32_pair_distance(q, qnorm, &s)
            }
        }
    }

    /// Metric on two f32 slices with an already-hoisted query norm.
    #[inline]
    fn f32_pair_distance(&self, q: &[f32], qnorm: f32, r: &[f32]) -> f32 {
        let k = self.kern;
        match self.metric {
            Metric::SquaredL2 => (k.l2)(q, r),
            Metric::InnerProduct => -(k.dot)(q, r),
            Metric::Cosine => cosine_from_parts(qnorm, (k.dot_norm)(q, r)),
        }
    }

    /// Distance between dataset rows `i` and `j`.
    ///
    /// Widening stores pay one `get_into` for row `i` into a
    /// persistent scratch row — row `j` runs through the typed kernel
    /// directly — so no call allocates.
    #[inline]
    pub fn between_rows(&self, i: usize, j: usize) -> f32 {
        self.count.set(self.count.get() + 1);
        match self.rows {
            Rows::F32(flat) => {
                let dim = self.dim;
                let a = &flat[i * dim..(i + 1) * dim];
                let qnorm = self.hoist_norm(a);
                self.row_distance(a, qnorm, None, j)
            }
            Rows::F16(..) | Rows::I8(..) => {
                let mut a = self.scratch_row(&self.scratch);
                self.store.get_into(i, &mut a);
                let qnorm = self.hoist_norm(&a);
                self.row_distance(&a, qnorm, None, j)
            }
            // PQ rows decode through `get_into` for row-to-row work
            // (graph build); per-row ADC tables would cost more than
            // they save when the "query" changes every call.
            Rows::Pq(..) | Rows::Opaque => {
                let mut a = self.scratch_row(&self.scratch);
                let mut b = self.scratch_row(&self.scratch2);
                self.store.get_into(i, &mut a);
                self.store.get_into(j, &mut b);
                let qnorm = self.hoist_norm(&a);
                self.f32_pair_distance(&a, qnorm, &b)
            }
        }
    }

    /// Borrow one of the scratch rows, sized to `dim` on first use.
    fn scratch_row<'s>(
        &self,
        cell: &'s std::cell::RefCell<Vec<f32>>,
    ) -> std::cell::RefMut<'s, Vec<f32>> {
        let mut row = cell.borrow_mut();
        row.resize(self.dim, 0.0);
        row
    }

    /// Whether a distance from row `a` (as a query) to row `b` equals
    /// the distance from `b` to `a`, bit for bit — true for every row
    /// layout but PQ, whose query side is exact while its row side is
    /// quantized (see the [`kernels`] module docs). The exact k-NN scan
    /// scores each unordered pair once when this holds.
    pub fn symmetric(&self) -> bool {
        !matches!(self.rows, Rows::Pq(..))
    }

    #[inline]
    fn hoist_norm(&self, q: &[f32]) -> f32 {
        match self.metric {
            Metric::Cosine => (self.kern.dot)(q, q).sqrt(),
            _ => 0.0,
        }
    }

    /// How many distances have been computed through this oracle.
    pub fn computed(&self) -> u64 {
        self.count.get()
    }
}

/// Stream `ids` through a per-row distance closure with a two-ahead
/// prefetch: while row `j` computes, the cache line of row `j + 2`
/// starts moving.
#[inline(always)]
fn gang(ids: &[u32], out: &mut [f32], f: impl Fn(usize) -> f32, pf: impl Fn(usize)) {
    for (j, (o, &id)) in out.iter_mut().zip(ids).enumerate() {
        if let Some(&ahead) = ids.get(j + 2) {
            pf(ahead as usize);
        }
        *o = f(id as usize);
    }
}

/// [`gang`] for a multi-row kernel: `ids` go [`kernels::MULTI`] at a
/// time through `f4`, the next group's rows prefetched while the
/// current one computes, and the remainder through `f` one by one.
#[inline(always)]
fn gang4(
    ids: &[u32],
    out: &mut [f32],
    f4: impl Fn([usize; kernels::MULTI]) -> [f32; kernels::MULTI],
    f: impl Fn(usize) -> f32,
    pf: impl Fn(usize),
) {
    const M: usize = kernels::MULTI;
    let mut groups = ids.chunks_exact(M);
    let mut outs = out.chunks_exact_mut(M);
    for (j, (o, g)) in outs.by_ref().zip(groups.by_ref()).enumerate() {
        for &ahead in ids.iter().skip((j + 1) * M).take(M) {
            pf(ahead as usize);
        }
        o.copy_from_slice(&f4(std::array::from_fn(|t| g[t] as usize)));
    }
    gang(groups.remainder(), outs.into_remainder(), f, pf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::Dataset;

    #[test]
    fn squared_l2_matches_naive() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert_eq!(squared_l2(&a, &b), naive);
    }

    #[test]
    fn l2_of_identical_is_zero() {
        let a = [0.25f32; 131]; // non-multiple-of-8 length exercises the tail
        assert_eq!(squared_l2(&a, &a), 0.0);
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..17).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..17).map(|i| (i * 2) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    fn cosine_basics() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((cosine_distance(&a, &a)).abs() < 1e-6);
        assert!((cosine_distance(&a, &b) - 1.0).abs() < 1e-6);
        let c = [-1.0, 0.0];
        assert!((cosine_distance(&a, &c) - 2.0).abs() < 1e-6);
        // Zero vector convention.
        assert_eq!(cosine_distance(&a, &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn inner_product_is_negated() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        assert_eq!(Metric::InnerProduct.distance(&a, &b), -11.0);
    }

    #[test]
    fn oracle_counts_and_computes() {
        let d = Dataset::from_flat(vec![0.0, 0.0, 3.0, 4.0], 2);
        let o = DistanceOracle::new(&d, Metric::SquaredL2);
        assert_eq!(o.to_row(&[0.0, 0.0], 1), 25.0);
        assert_eq!(o.between_rows(0, 1), 25.0);
        assert_eq!(o.computed(), 2);
    }

    #[test]
    fn oracle_widens_f16_store() {
        let d = Dataset::from_flat(vec![0.0, 0.0, 3.0, 4.0], 2);
        let h = d.to_f16();
        let o = DistanceOracle::new(&h, Metric::SquaredL2);
        assert_eq!(o.to_row(&[0.0, 0.0], 1), 25.0);
        assert_eq!(o.between_rows(0, 1), 25.0);
    }

    #[test]
    fn oracle_dequantizes_i8_store() {
        let d = Dataset::from_flat(vec![0.0, 0.0, 3.0, 4.0], 2);
        let q = d.to_i8();
        let o = DistanceOracle::new(&q, Metric::SquaredL2);
        assert_eq!(o.to_row(&[0.0, 0.0], 1), 25.0);
        assert_eq!(o.between_rows(0, 1), 25.0);
    }

    #[test]
    fn to_rows_counts_batch_and_matches_to_row() {
        let d = Dataset::from_flat((0..24).map(|x| x as f32).collect(), 3);
        let o = DistanceOracle::new(&d, Metric::SquaredL2);
        let query = [1.0, 0.5, -2.0];
        let pq = o.prepare(&query);
        let ids = [7u32, 0, 3, 3, 5];
        let mut out = [0.0f32; 5];
        o.to_rows(&pq, &ids, &mut out);
        assert_eq!(o.computed(), 5);
        for (&id, &got) in ids.iter().zip(&out) {
            assert_eq!(got.to_bits(), o.to_row(&query, id as usize).to_bits());
        }
    }

    #[test]
    fn oracle_scores_pq_store_via_adc() {
        use dataset::synth::{Family, SynthSpec};
        let spec = SynthSpec { dim: 12, n: 50, queries: 0, family: Family::Gaussian, seed: 21 };
        let (d, _) = spec.generate();
        let store =
            dataset::pq::build(&d, &dataset::PqConfig { sample: 50, ..dataset::PqConfig::new(4) });
        for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            let o = DistanceOracle::new(&store, metric);
            let q = d.row(0);
            let pq = o.prepare(q);
            let ids: Vec<u32> = (0..50).collect();
            let mut out = vec![0.0f32; 50];
            o.to_rows(&pq, &ids, &mut out);
            // Gang path == per-row prepared path, bit for bit.
            for (&id, &got) in ids.iter().zip(&out) {
                assert_eq!(got.to_bits(), o.to_row_prepared(&pq, id as usize).to_bits());
            }
            // ADC scores track the decoded rows (approximate store,
            // exact scoring of it).
            let mut rec = vec![0.0f32; 12];
            for (i, &got) in out.iter().enumerate().take(store.len()) {
                store.get_into(i, &mut rec);
                let exact = metric.distance(q, &rec);
                assert!(
                    (got - exact).abs() <= 1e-3 * exact.abs().max(1.0),
                    "{metric:?} row {i}: {got} vs {exact}"
                );
            }
            // between_rows decodes (no prepared table needed).
            let _ = o.between_rows(0, 1);
        }
    }

    #[test]
    fn prepared_cosine_norm_is_hoisted() {
        let d = Dataset::from_flat(vec![1.0, 0.0, 0.0, 1.0, -3.0, 4.0], 2);
        let o = DistanceOracle::new(&d, Metric::Cosine);
        let query = [3.0, 4.0];
        let pq = o.prepare(&query);
        assert_eq!(pq.norm(), 5.0);
        for i in 0..3 {
            assert_eq!(
                o.to_row_prepared(&pq, i).to_bits(),
                cosine_distance(&query, d.row(i)).to_bits()
            );
        }
    }
}
