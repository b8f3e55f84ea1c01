//! Parameter types shared by construction and search.

use crate::error::SearchError;
use serde::{Deserialize, Serialize};

/// Which detourable-route criterion the edge reordering uses (Sec.
/// III-B2). The paper adopts rank-based; distance-based is kept as the
/// ablation baseline of Figs. 4 and 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReorderStrategy {
    /// Approximate edge weights by each neighbor's position in the
    /// distance-sorted list ("initial rank"). No distance computation.
    RankBased,
    /// Use true distances, recomputed on the fly — the paper's
    /// `N x d_init x (d_init - 1)` extra-computation variant.
    DistanceBased,
}

/// Search-time parameters: the paper's `M`, `p` and `I_max`, the
/// multi-CTA worker count, the rerank depth and the seed — what changes
/// a host result.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SearchParams {
    /// Internal top-M list length (`itopk`); must be >= k.
    pub itopk: usize,
    /// Number of parents expanded per iteration (`p`); the paper uses
    /// 1 for maximum single-CTA throughput.
    pub search_width: usize,
    /// Hard iteration cap (`I_max`).
    pub max_iterations: usize,
    /// Number of CTAs per query in multi-CTA mode.
    pub num_cta: usize,
    /// Two-phase rerank depth `r` (0 = off). When nonzero, graph
    /// traversal collects the top `max(k, r)` candidates under the
    /// store's (possibly approximate, e.g. PQ/ADC) distances, then the
    /// index re-scores them against its full-precision rerank source
    /// and returns the exact top `k`. Must be `>= k` when nonzero;
    /// capped by [`SearchParams::MAX_RERANK_DEPTH`]. Effective depth
    /// is additionally clamped to `itopk` (the traversal cannot
    /// surface more than `itopk` candidates).
    pub rerank_depth: usize,
    /// Seed for the random initial candidates.
    pub seed: u64,
}

impl SearchParams {
    /// Paper-flavored defaults for returning `k` results: `itopk = max(64, k)`,
    /// `p = 1`, auto iteration cap.
    pub fn for_k(k: usize) -> Self {
        let itopk = k.max(64);
        SearchParams {
            itopk,
            search_width: 1,
            max_iterations: 0, // 0 = auto (derived from itopk)
            num_cta: 16,
            rerank_depth: 0,
            seed: 0xcaa7,
        }
    }

    /// The effective iteration cap: explicit `max_iterations`, or the
    /// auto rule (search until every top-M entry has been a parent,
    /// bounded by a generous multiple of itopk) when 0.
    pub fn effective_max_iterations(&self, degree: usize) -> usize {
        if self.max_iterations > 0 {
            return self.max_iterations;
        }
        // Every iteration consumes up to `search_width` parents; the
        // top-M list has itopk entries, and entries churn as closer
        // nodes arrive. 2x headroom matches cuVS' auto rule in spirit.
        let per_iter = self.search_width.max(1);
        (2 * self.itopk).div_ceil(per_iter).max(degree.max(16))
    }

    /// Seed for query `qi` of a batch: a golden-ratio stride from the
    /// base seed decorrelates per-query random initialization while
    /// keeping batch results deterministic regardless of thread count
    /// or scheduling. Exposed so tests (and external callers) can
    /// reproduce exactly what a batch search runs per query.
    pub fn seed_for_query(&self, qi: usize) -> u64 {
        self.seed.wrapping_add((qi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Largest accepted `itopk` (bounds per-query scratch memory).
    pub const MAX_ITOPK: usize = 1 << 16;
    /// Largest accepted `search_width`.
    pub const MAX_SEARCH_WIDTH: usize = 1 << 10;
    /// Largest accepted `num_cta`.
    pub const MAX_NUM_CTA: usize = 1 << 12;
    /// Largest accepted explicit iteration bound.
    pub const MAX_ITERATION_BOUND: usize = 1 << 24;
    /// Largest accepted rerank depth (bounds the exact-rescore pass;
    /// same ceiling as `itopk`, which already clamps it in practice).
    pub const MAX_RERANK_DEPTH: usize = 1 << 16;

    /// Validate parameter consistency for a result size `k`: rejects
    /// `k == 0`, `k > itopk` and zero/absurd knob values. Dataset-shape
    /// checks (`k > n`, query dimension) live in the index `try_*`
    /// entry points, which know the dataset.
    pub fn validate(&self, k: usize) -> Result<(), SearchError> {
        if k == 0 {
            return Err(SearchError::ZeroK);
        }
        if self.itopk < k {
            return Err(SearchError::KExceedsItopk { k, itopk: self.itopk });
        }
        if self.itopk > Self::MAX_ITOPK {
            return Err(SearchError::ParamOutOfRange {
                what: "itopk",
                value: self.itopk,
                max: Self::MAX_ITOPK,
            });
        }
        if self.search_width == 0 {
            return Err(SearchError::ZeroSearchWidth);
        }
        if self.search_width > Self::MAX_SEARCH_WIDTH {
            return Err(SearchError::ParamOutOfRange {
                what: "search_width",
                value: self.search_width,
                max: Self::MAX_SEARCH_WIDTH,
            });
        }
        if self.num_cta == 0 {
            return Err(SearchError::ZeroNumCta);
        }
        if self.num_cta > Self::MAX_NUM_CTA {
            return Err(SearchError::ParamOutOfRange {
                what: "num_cta",
                value: self.num_cta,
                max: Self::MAX_NUM_CTA,
            });
        }
        if self.max_iterations > Self::MAX_ITERATION_BOUND {
            return Err(SearchError::ParamOutOfRange {
                what: "max_iterations",
                value: self.max_iterations,
                max: Self::MAX_ITERATION_BOUND,
            });
        }
        if self.rerank_depth != 0 && self.rerank_depth < k {
            return Err(SearchError::RerankDepthBelowK { depth: self.rerank_depth, k });
        }
        if self.rerank_depth > Self::MAX_RERANK_DEPTH {
            return Err(SearchError::ParamOutOfRange {
                what: "rerank_depth",
                value: self.rerank_depth,
                max: Self::MAX_RERANK_DEPTH,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let p = SearchParams::for_k(10);
        assert!(p.validate(10).is_ok());
        assert!(p.itopk >= 10);
    }

    #[test]
    fn itopk_below_k_rejected() {
        let mut p = SearchParams::for_k(10);
        p.itopk = 5;
        assert!(p.validate(10).is_err());
    }

    #[test]
    fn zero_k_and_zero_knobs_rejected() {
        let p = SearchParams::for_k(10);
        assert_eq!(p.validate(0), Err(SearchError::ZeroK));
        let mut p = SearchParams::for_k(1);
        p.search_width = 0;
        assert_eq!(p.validate(1), Err(SearchError::ZeroSearchWidth));
        let mut p = SearchParams::for_k(1);
        p.num_cta = 0;
        assert_eq!(p.validate(1), Err(SearchError::ZeroNumCta));
    }

    #[test]
    fn absurd_knob_values_capped() {
        let mut p = SearchParams::for_k(1);
        p.itopk = SearchParams::MAX_ITOPK + 1;
        assert!(matches!(p.validate(1), Err(SearchError::ParamOutOfRange { what: "itopk", .. })));
        let mut p = SearchParams::for_k(1);
        p.search_width = SearchParams::MAX_SEARCH_WIDTH + 1;
        assert!(matches!(
            p.validate(1),
            Err(SearchError::ParamOutOfRange { what: "search_width", .. })
        ));
        let mut p = SearchParams::for_k(1);
        p.num_cta = SearchParams::MAX_NUM_CTA + 1;
        assert!(matches!(p.validate(1), Err(SearchError::ParamOutOfRange { what: "num_cta", .. })));
        let mut p = SearchParams::for_k(1);
        p.max_iterations = SearchParams::MAX_ITERATION_BOUND + 1;
        assert!(matches!(
            p.validate(1),
            Err(SearchError::ParamOutOfRange { what: "max_iterations", .. })
        ));
    }

    #[test]
    fn rerank_depth_validation() {
        let mut p = SearchParams::for_k(10);
        p.rerank_depth = 0; // off — always fine
        assert!(p.validate(10).is_ok());
        p.rerank_depth = 10; // == k is the floor
        assert!(p.validate(10).is_ok());
        p.rerank_depth = 9;
        assert_eq!(p.validate(10), Err(SearchError::RerankDepthBelowK { depth: 9, k: 10 }));
        p.rerank_depth = SearchParams::MAX_RERANK_DEPTH + 1;
        assert!(matches!(
            p.validate(10),
            Err(SearchError::ParamOutOfRange { what: "rerank_depth", .. })
        ));
    }

    #[test]
    fn auto_iteration_cap_scales_with_itopk() {
        let mut p = SearchParams::for_k(10);
        p.itopk = 64;
        let small = p.effective_max_iterations(32);
        p.itopk = 512;
        assert!(p.effective_max_iterations(32) > small);
        p.max_iterations = 7;
        assert_eq!(p.effective_max_iterations(32), 7);
    }
}
