//! Implementation choice rule (Fig. 7 of the paper).
//!
//! Multi-CTA is selected when the batch is too small to fill the GPU
//! with one CTA per query (`batch < b_T`) or when the internal top-M
//! list is large enough that single-CTA's top-M update dominates
//! (`itopk > M_T`). The paper recommends `M_T = 512` and `b_T = number
//! of SMs` empirically. The serving layer does not apply it: every
//! request runs multi-CTA.

use serde::{Deserialize, Serialize};

/// Which kernel mapping to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// One CTA per query — large batches.
    SingleCta,
    /// Many CTAs per query — small batches or large top-M.
    MultiCta,
}

/// Batch-size threshold `b_T` (Fig. 7): the GPU's SM count, 108 on
/// the paper's A100 (80 GB).
pub const BATCH_THRESHOLD: usize = 108;
/// Internal top-M threshold `M_T` (Fig. 7; the paper recommends 512).
pub const ITOPK_THRESHOLD: usize = 512;

/// Apply the Fig. 7 rule.
pub fn choose(batch_size: usize, itopk: usize) -> Mode {
    if batch_size < BATCH_THRESHOLD || itopk > ITOPK_THRESHOLD {
        Mode::MultiCta
    } else {
        Mode::SingleCta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_query_goes_multi() {
        assert_eq!(choose(1, 64), Mode::MultiCta);
    }

    #[test]
    fn large_batch_small_itopk_goes_single() {
        assert_eq!(choose(10_000, 64), Mode::SingleCta);
    }

    #[test]
    fn large_itopk_forces_multi_even_for_large_batches() {
        assert_eq!(choose(10_000, 1024), Mode::MultiCta);
    }

    #[test]
    fn boundary_conditions() {
        // batch == b_T is "not smaller" -> single.
        assert_eq!(choose(BATCH_THRESHOLD, 64), Mode::SingleCta);
        assert_eq!(choose(BATCH_THRESHOLD - 1, 64), Mode::MultiCta);
        // itopk == M_T is "not larger" -> single.
        assert_eq!(choose(10_000, ITOPK_THRESHOLD), Mode::SingleCta);
        assert_eq!(choose(10_000, ITOPK_THRESHOLD + 1), Mode::MultiCta);
    }
}
