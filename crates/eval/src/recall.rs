//! Recall (Eq. 2 of the paper): `|ANNS ∩ NNS| / |NNS|`.

use knn::topk::Neighbor;

/// recall@k over a batch: the fraction of true top-k ids recovered.
/// Each result row is truncated/padded to `k`; ground-truth rows
/// shorter than `k` (dataset smaller than `k`) shrink the denominator.
pub fn recall_at_k(results: &[Vec<Neighbor>], gt: &[Vec<u32>], k: usize) -> f64 {
    assert_eq!(results.len(), gt.len(), "result and ground-truth batch sizes differ");
    let mut hit = 0usize;
    let mut total = 0usize;
    for (res, truth) in results.iter().zip(gt) {
        let truth = &truth[..truth.len().min(k)];
        total += truth.len();
        for t in truth {
            if res.iter().take(k).any(|n| n.id == *t) {
                hit += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(ids: &[u32]) -> Vec<Neighbor> {
        ids.iter().map(|&i| Neighbor::new(i, 0.0)).collect()
    }

    #[test]
    fn perfect_recall() {
        let res = vec![n(&[1, 2, 3])];
        let gt = vec![vec![3, 1, 2]];
        assert_eq!(recall_at_k(&res, &gt, 3), 1.0);
    }

    #[test]
    fn partial_recall() {
        let res = vec![n(&[1, 9, 8])];
        let gt = vec![vec![1, 2, 3]];
        assert!((recall_at_k(&res, &gt, 3) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn k_truncates_both_sides() {
        // Result has the right id but only beyond position k.
        let res = vec![n(&[9, 8, 1])];
        let gt = vec![vec![1]];
        assert_eq!(recall_at_k(&res, &gt, 2), 0.0);
        assert_eq!(recall_at_k(&res, &gt, 3), 1.0);
    }

    #[test]
    fn short_ground_truth_shrinks_denominator() {
        let res = vec![n(&[1, 2])];
        let gt = vec![vec![1]]; // dataset had only one point
        assert_eq!(recall_at_k(&res, &gt, 10), 1.0);
    }

    #[test]
    fn empty_batch_is_perfect() {
        assert_eq!(recall_at_k(&[], &[], 10), 1.0);
    }

    #[test]
    #[should_panic(expected = "batch sizes differ")]
    fn mismatched_batches_rejected() {
        recall_at_k(&[], &[vec![1]], 1);
    }
}
