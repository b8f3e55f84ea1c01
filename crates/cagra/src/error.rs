//! Typed errors for the fallible public search API.
//!
//! Every user-input failure the search layer can detect is an explicit
//! [`SearchError`] variant: the `try_*` entry points return them, and
//! the legacy infallible wrappers panic with the same `Display` text
//! (so existing `should_panic` expectations — "dimension mismatch",
//! "size mismatch" — keep matching).

use crate::params::SearchParams;
use std::fmt;

/// Why a search (or index construction) request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchError {
    /// Query vector length differs from the index dimensionality.
    DimMismatch {
        /// Index (store) dimensionality.
        expected: usize,
        /// Offending query dimensionality.
        got: usize,
    },
    /// Store and graph disagree on the number of points.
    SizeMismatch {
        /// Vectors in the store.
        store: usize,
        /// Nodes in the graph.
        graph: usize,
    },
    /// `k == 0` — an empty result set is never meaningful.
    ZeroK,
    /// `k` exceeds the internal top-M list, so `k` results can never
    /// be produced.
    KExceedsItopk { k: usize, itopk: usize },
    /// `k` exceeds the dataset size (includes searching an empty index).
    KExceedsDataset { k: usize, n: usize },
    /// `search_width == 0` — no parents would ever be expanded.
    ZeroSearchWidth,
    /// `num_cta == 0` — no workers in multi-CTA mode.
    ZeroNumCta,
    /// `rerank_depth` is nonzero but below `k` — the exact-rescore
    /// pass could not produce `k` results.
    RerankDepthBelowK { depth: usize, k: usize },
    /// `rerank_depth > 0` but the index has no full-precision rerank
    /// source attached, so exact re-scoring is impossible.
    RerankWithoutSource,
    /// A parameter exceeds the sanity cap noted in `what` (guards
    /// against absurd allocations from untrusted configs).
    ParamOutOfRange {
        /// Which parameter, e.g. `"itopk"`.
        what: &'static str,
        /// The offending value.
        value: usize,
        /// Largest accepted value.
        max: usize,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SearchError::DimMismatch { expected, got } => {
                write!(f, "query dimension mismatch: index dim {expected}, query dim {got}")
            }
            SearchError::SizeMismatch { store, graph } => {
                write!(f, "graph/store size mismatch: {store} vectors vs {graph} nodes")
            }
            SearchError::ZeroK => write!(f, "k must be positive"),
            SearchError::KExceedsItopk { k, itopk } => {
                write!(f, "itopk ({itopk}) must be >= k ({k})")
            }
            SearchError::KExceedsDataset { k, n } => {
                write!(f, "k ({k}) exceeds dataset size ({n})")
            }
            SearchError::ZeroSearchWidth => write!(f, "search_width must be positive"),
            SearchError::ZeroNumCta => write!(f, "num_cta must be positive"),
            SearchError::RerankDepthBelowK { depth, k } => {
                write!(f, "rerank_depth ({depth}) must be >= k ({k}) when nonzero")
            }
            SearchError::RerankWithoutSource => {
                write!(f, "rerank_depth > 0 requires a full-precision rerank source on the index")
            }
            SearchError::ParamOutOfRange { what, value, max } => {
                write!(f, "{what} ({value}) exceeds the supported maximum ({max})")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// Validate `params` against a query of dimension `query_dim` on an
/// index of `n` points and dimension `index_dim`, returning `k`'s
/// feasibility too — the shared gate all `try_*` entry points run.
pub(crate) fn validate_request(
    params: &SearchParams,
    k: usize,
    n: usize,
    index_dim: usize,
    query_dim: usize,
) -> Result<(), SearchError> {
    if query_dim != index_dim {
        return Err(SearchError::DimMismatch { expected: index_dim, got: query_dim });
    }
    params.validate(k)?;
    if k > n {
        return Err(SearchError::KExceedsDataset { k, n });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_panic_substrings() {
        // Pre-existing `should_panic(expected = ...)` tests (here and
        // downstream) match on these fragments.
        assert!(SearchError::DimMismatch { expected: 8, got: 4 }
            .to_string()
            .contains("dimension mismatch"));
        assert!(SearchError::SizeMismatch { store: 1, graph: 2 }
            .to_string()
            .contains("size mismatch"));
    }

    #[test]
    fn validate_request_order_of_checks() {
        let p = SearchParams::for_k(10);
        // Dim mismatch wins over everything.
        assert_eq!(
            validate_request(&p, 10, 100, 8, 4),
            Err(SearchError::DimMismatch { expected: 8, got: 4 })
        );
        // Then parameter validity.
        assert_eq!(validate_request(&p, 0, 100, 8, 8), Err(SearchError::ZeroK));
        // Then dataset feasibility.
        assert_eq!(
            validate_request(&p, 10, 5, 8, 8),
            Err(SearchError::KExceedsDataset { k: 10, n: 5 })
        );
        assert_eq!(validate_request(&p, 10, 100, 8, 8), Ok(()));
    }
}
