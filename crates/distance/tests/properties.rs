//! Metric axioms over arbitrary vectors.

use dataset::{Dataset, VectorStore};
use distance::kernels::{self, Kernels};
use distance::{cosine_distance, dot, squared_l2, DistanceOracle, Metric};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The scan-side symmetry contract on one store: for every pair of
/// rows, the distance from row `a` (widened, as a query) to row `b`
/// equals the distance from `b` to `a`, bit for bit.
fn assert_rows_symmetric<S: VectorStore + ?Sized>(
    store: &S,
    metric: Metric,
    table: &'static Kernels,
) -> Result<(), TestCaseError> {
    let o = DistanceOracle::with_kernels(store, metric, table);
    prop_assert!(o.symmetric());
    let dim = store.dim();
    let (mut a, mut b) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    for i in 0..store.len() {
        store.get_into(i, &mut a);
        let pa = o.prepare(&a);
        for j in 0..store.len() {
            store.get_into(j, &mut b);
            let pb = o.prepare(&b);
            let (mut ab, mut ba) = ([0.0f32], [0.0f32]);
            o.to_rows(&pa, &[j as u32], &mut ab);
            o.to_rows(&pb, &[i as u32], &mut ba);
            prop_assert_eq!(
                ab[0].to_bits(),
                ba[0].to_bits(),
                "{:?} {} rows {} and {}: {} vs {}",
                metric,
                table.name,
                i,
                j,
                ab[0],
                ba[0]
            );
        }
    }
    Ok(())
}

fn vecs(dim: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    let elem = -1000.0f32..1000.0f32;
    (proptest::collection::vec(elem.clone(), dim), proptest::collection::vec(elem, dim))
}

proptest! {
    #[test]
    fn l2_is_nonnegative_symmetric_and_zero_on_identity((a, b) in vecs(13)) {
        let ab = squared_l2(&a, &b);
        prop_assert!(ab >= 0.0);
        prop_assert_eq!(ab, squared_l2(&b, &a));
        prop_assert_eq!(squared_l2(&a, &a), 0.0);
    }

    #[test]
    fn l2_matches_naive((a, b) in vecs(31)) {
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let got = squared_l2(&a, &b);
        // Different summation orders: allow relative slack.
        let tol = 1e-4f32.max(naive.abs() * 1e-4);
        prop_assert!((got - naive).abs() <= tol, "{got} vs {naive}");
    }

    #[test]
    fn dot_is_bilinear_in_scaling((a, b) in vecs(16), s in -8.0f32..8.0) {
        let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
        let lhs = dot(&scaled, &b);
        let rhs = s * dot(&a, &b);
        // Error scales with the magnitude of the summed terms (which
        // may cancel), not with the result.
        let magnitude: f32 = a.iter().zip(&b).map(|(x, y)| (x * s * y).abs()).sum();
        let tol = 1e-2f32.max(magnitude * 1e-5);
        prop_assert!((lhs - rhs).abs() <= tol, "{lhs} vs {rhs} (tol {tol})");
    }

    #[test]
    fn cosine_is_bounded_and_scale_invariant((a, b) in vecs(8), s in 0.1f32..50.0) {
        let c = cosine_distance(&a, &b);
        prop_assert!((-1e-3..=2.0 + 1e-3).contains(&c), "cosine distance {c} out of [0,2]");
        let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
        let c2 = cosine_distance(&scaled, &b);
        prop_assert!((c - c2).abs() < 2e-2, "scale invariance violated: {c} vs {c2}");
    }

    #[test]
    fn metric_dispatch_agrees_with_free_functions((a, b) in vecs(12)) {
        prop_assert_eq!(Metric::SquaredL2.distance(&a, &b), squared_l2(&a, &b));
        prop_assert_eq!(Metric::InnerProduct.distance(&a, &b), -dot(&a, &b));
        prop_assert_eq!(Metric::Cosine.distance(&a, &b), cosine_distance(&a, &b));
    }

    #[test]
    fn l2_triangle_inequality_after_sqrt((a, b) in vecs(6), c in proptest::collection::vec(-1000.0f32..1000.0, 6)) {
        let ab = squared_l2(&a, &b).sqrt();
        let bc = squared_l2(&b, &c).sqrt();
        let ac = squared_l2(&a, &c).sqrt();
        prop_assert!(ac <= ab + bc + 1e-2, "triangle violated: {ac} > {ab} + {bc}");
    }

    /// `to_rows(prepare(a), [b])` equals `to_rows(prepare(b), [a])` bit
    /// for bit on f32, binary16 and int8 rows, for every metric and
    /// both backends, at dims below 8 and off multiples of 8. One row
    /// is all zeros, which cosine scores by its zero-norm convention.
    #[test]
    fn row_distances_are_bitwise_symmetric(
        dim in 1usize..40,
        flat in proptest::collection::vec(-100.0f32..100.0, 4 * 40),
    ) {
        let mut flat = flat[..4 * dim].to_vec();
        flat[3 * dim..].fill(0.0);
        let base = Dataset::from_flat(flat, dim);
        let (half, quant) = (base.to_f16(), base.to_i8());
        for metric in [Metric::SquaredL2, Metric::InnerProduct, Metric::Cosine] {
            for table in [kernels::scalar(), kernels::detected()] {
                assert_rows_symmetric(&base, metric, table)?;
                assert_rows_symmetric(&half, metric, table)?;
                assert_rows_symmetric(&quant, metric, table)?;
            }
        }
    }
}
