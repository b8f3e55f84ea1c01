//! Pluggable search backends for [`crate::Service`].
//!
//! The service core (admission, queue, serve workers) is generic over
//! *what* answers a query. Two backends exist:
//!
//! * [`cagra::CagraIndex`] — the static index; `insert`/`delete` are
//!   refused with [`ServeError::Unsupported`].
//! * [`cagra::DynamicIndex`] — the epoch-swapped mutable wrapper.
//!   Admission validates `k` against the live snapshot of the moment.
//!
//! The hot-path contract differs deliberately: the static backend runs
//! the unchecked `search_mode_with` kernel (its validation cannot go
//! stale), while the dynamic backend routes through
//! [`cagra::DynamicIndex::search_clamped`] — between admission and
//! the search a delete can shrink the live set below a validated `k`,
//! and a clamped search degrades to fewer results instead of
//! panicking.

use crate::error::ServeError;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, DynamicIndex, SearchError, SearchParams, SearchScratch};
use dataset::VectorStore;
use knn::topk::Neighbor;

/// What the serving core needs from an index.
pub trait SearchBackend: Send + Sync + 'static {
    /// Vector dimensionality every request must match.
    fn dim(&self) -> usize;

    /// Full request validation (admission path, once per request).
    fn validate_shape(
        &self,
        query_dim: usize,
        k: usize,
        params: &SearchParams,
    ) -> Result<(), SearchError>;

    /// The mapping and CTAs per query that [`SearchBackend::search`]
    /// runs under `params` (and each response reports), whatever the load.
    fn mapping(&self, params: &SearchParams) -> (Mode, usize);

    /// Execute one already-validated search (dispatch hot path).
    fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        scratch: &mut SearchScratch,
    ) -> Vec<Neighbor>;

    /// Add a vector, returning its assigned external id.
    fn insert(&self, _vector: &[f32]) -> Result<u32, ServeError> {
        Err(ServeError::Unsupported("insert"))
    }

    /// Tombstone an id. `Ok(false)` means it was not live.
    fn delete(&self, _id: u32) -> Result<bool, ServeError> {
        Err(ServeError::Unsupported("delete"))
    }
}

impl<S: VectorStore + Send + 'static> SearchBackend for CagraIndex<S> {
    fn dim(&self) -> usize {
        self.store().dim()
    }

    fn validate_shape(
        &self,
        query_dim: usize,
        k: usize,
        params: &SearchParams,
    ) -> Result<(), SearchError> {
        CagraIndex::validate_shape(self, query_dim, k, params)
    }

    fn mapping(&self, params: &SearchParams) -> (Mode, usize) {
        (Mode::MultiCta, params.num_cta)
    }

    fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        scratch: &mut SearchScratch,
    ) -> Vec<Neighbor> {
        self.search_mode_with(query, k, params, self.mapping(params).0, scratch);
        // ALLOW(alloc): the response buffer is handed to the client
        // channel; ownership must leave the scratch.
        scratch.results().to_vec()
    }
}

impl SearchBackend for DynamicIndex {
    fn dim(&self) -> usize {
        DynamicIndex::dim(self)
    }

    fn validate_shape(
        &self,
        query_dim: usize,
        k: usize,
        _params: &SearchParams,
    ) -> Result<(), SearchError> {
        // The dynamic index owns its search parameters
        // (`DynamicParams::search`), so shape validation ignores the
        // service's.
        DynamicIndex::validate_shape(self, query_dim, k)
    }

    fn mapping(&self, _params: &SearchParams) -> (Mode, usize) {
        (DynamicIndex::MAIN_MODE, 1)
    }

    fn search(
        &self,
        query: &[f32],
        k: usize,
        _params: &SearchParams,
        scratch: &mut SearchScratch,
    ) -> Vec<Neighbor> {
        // Clamped: a delete racing between admission and the search can
        // shrink the live set below the validated `k`.
        self.search_clamped(query, k, scratch)
    }

    fn insert(&self, vector: &[f32]) -> Result<u32, ServeError> {
        DynamicIndex::insert(self, vector).map_err(ServeError::Invalid)
    }

    fn delete(&self, id: u32) -> Result<bool, ServeError> {
        Ok(DynamicIndex::delete(self, id))
    }
}
