//! Implementation choice rule (Fig. 7 of the paper).
//!
//! Multi-CTA is selected when the batch is too small to fill the GPU
//! with one CTA per query (`batch < b_T`) or when the internal top-M
//! list is large enough that single-CTA's top-M update dominates
//! (`itopk > M_T`). The paper recommends `M_T = 512` and `b_T = number
//! of SMs` empirically.

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

/// The search configuration a *realized* batch should run with: the
/// Fig. 7 mapping plus a batch-size-aware `num_cta`. This is the
/// serving layer's config-selection helper — an online batcher does
/// not know its batch size until the dispatch moment, so the plan is
/// a pure function of (realized batch size, per-request params).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPlan {
    /// Kernel mapping for this batch (Fig. 7 on the realized size).
    pub mode: Mode,
    /// Per-query CTA count to run with. Equal to the configured
    /// `num_cta` in single-CTA mode; in multi-CTA mode it is scaled so
    /// `batch_size x num_cta` stays near the device's CTA capacity
    /// ([`BATCH_THRESHOLD`], the SM count) instead of oversubscribing
    /// small batches and starving large ones — the per-request-shape
    /// tuning FusionGPU applies to `max_queries`/`itopk`.
    pub num_cta: usize,
}

/// Plan a realized batch: mapping via [`choose`], then the multi-CTA
/// worker count scaled to the batch (floor 1, capped at the
/// configured `params_num_cta` so a plan never exceeds what the
/// request validated for).
pub fn plan(batch_size: usize, itopk: usize, params_num_cta: usize) -> BatchPlan {
    let mode = choose(batch_size, itopk);
    let num_cta = match mode {
        Mode::SingleCta => params_num_cta,
        Mode::MultiCta => (BATCH_THRESHOLD / batch_size.max(1)).clamp(1, params_num_cta),
    };
    BatchPlan { mode, num_cta }
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
    fn plan_scales_multi_cta_workers_to_the_batch() {
        // A lone query gets the full configured worker count.
        assert_eq!(plan(1, 64, 16), BatchPlan { mode: Mode::MultiCta, num_cta: 16 });
        // Half the SM count queued: two CTAs each still fill the device.
        assert_eq!(plan(54, 64, 16), BatchPlan { mode: Mode::MultiCta, num_cta: 2 });
        // Near the crossover the scale bottoms out at one CTA.
        assert_eq!(plan(107, 64, 16), BatchPlan { mode: Mode::MultiCta, num_cta: 1 });
        // Past the crossover: single-CTA, num_cta passes through.
        assert_eq!(plan(200, 64, 16), BatchPlan { mode: Mode::SingleCta, num_cta: 16 });
        // Large itopk forces multi-CTA regardless of batch size.
        assert_eq!(plan(200, 1024, 16).mode, Mode::MultiCta);
        // The plan never exceeds the validated configuration.
        assert_eq!(plan(1, 64, 4).num_cta, 4);
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
