//! Deterministic row sampling shared by the quantizer trainers.
//!
//! Both scalar (int8) and product quantization fit their parameters on
//! a subset of the dataset. That fit must be reproducible: the same
//! `(n, target, seed)` triple yields the same rows on every run, under
//! any `CAGRA_THREADS` setting, because sampling runs on a single
//! `StdRng` seeded here and never from ambient state. Stage seeds are
//! derived with the same golden-ratio stride the search path uses for
//! per-query seeds (`SearchParams::seed_for_query`), so every consumer
//! of a workload seed decorrelates its stream the same way.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The golden-ratio stride (2^64 / phi) used to derive decorrelated
/// per-stage seeds from one workload seed.
pub const GOLDEN_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Stage id for drawing the training-row sample. Shared by the PQ
/// k-means trainer and the int8 scale estimator so both quantizers
/// fit on the *same* rows for a given seed.
pub const STAGE_SAMPLE: u64 = 1;
/// First stage id of the per-subspace k-means streams (subspace `s`
/// uses `STAGE_KMEANS + s`).
pub const STAGE_KMEANS: u64 = 16;

/// Derive the seed for an enumerated training stage (subspace index,
/// quantizer pass, ...) from a base seed. Matches the per-query seed
/// derivation in `cagra::SearchParams` so seeds never collide across
/// layers that share one workload seed.
pub fn derive_seed(seed: u64, stage: u64) -> u64 {
    seed.wrapping_add(stage.wrapping_mul(GOLDEN_STRIDE))
}

/// Choose `min(target, n)` distinct row indices, returned ascending
/// (ascending order keeps the subsequent gather sequential on disk and
/// in cache). Partial Fisher–Yates over an index arena: O(n) memory,
/// O(target) RNG draws, fully deterministic for a given seed.
pub fn sample_rows(n: usize, target: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "store too large for u32 row ids");
    if target >= n {
        return (0..n as u32).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    for i in 0..target {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(target);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        assert_eq!(sample_rows(1000, 64, 42), sample_rows(1000, 64, 42));
        assert_ne!(sample_rows(1000, 64, 42), sample_rows(1000, 64, 43));
    }

    #[test]
    fn full_range_when_target_covers_n() {
        let all: Vec<u32> = (0..10).collect();
        assert_eq!(sample_rows(10, 10, 7), all);
        assert_eq!(sample_rows(10, 99, 7), all);
    }

    #[test]
    fn distinct_sorted_and_in_range() {
        let s = sample_rows(500, 100, 9);
        assert_eq!(s.len(), 100);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "ascending + distinct");
        assert!(s.iter().all(|&i| (i as usize) < 500));
    }

    #[test]
    fn stage_seeds_decorrelate() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        assert_ne!(a, b);
        assert_ne!(sample_rows(100, 10, a), sample_rows(100, 10, b));
    }
}
