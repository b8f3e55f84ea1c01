//! Pluggable search backends for [`crate::Service`].
//!
//! The service core (admission, shape cache, batching, dispatch) is
//! generic over *what* answers a query. Two backends exist:
//!
//! * [`cagra::CagraIndex`] — the static index. Its epoch is constant
//!   (`0`), so shape validation caches forever; `insert`/`delete` are
//!   refused with [`ServeError::Unsupported`].
//! * [`cagra::DynamicIndex`] — the epoch-swapped mutable wrapper.
//!   Every visible mutation (insert, delete, compaction swap) bumps
//!   [`SearchBackend::epoch`], which invalidates the service's shape
//!   cache so `k`-vs-live validation re-runs against the new snapshot.
//!
//! The hot-path contract differs deliberately: the static backend runs
//! the unchecked `search_mode_with` kernel (its validation cannot go
//! stale), while the dynamic backend routes through
//! [`cagra::DynamicIndex::search_clamped`] — between admission and
//! dispatch a delete can shrink the live set below a validated `k`,
//! and a clamped search degrades to fewer results instead of
//! panicking mid-batch.

use crate::error::ServeError;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, DynamicIndex, SearchError, SearchParams, SearchScratch};
use dataset::VectorStore;
use knn::topk::Neighbor;

/// What the serving core needs from an index.
pub trait SearchBackend: Send + Sync + 'static {
    /// Vector dimensionality every request must match.
    fn dim(&self) -> usize;

    /// Publication epoch of the searched structure. Static backends
    /// return a constant; mutable backends bump it on every visible
    /// change. The service keys its shape cache on this value.
    fn epoch(&self) -> u64;

    /// Full request validation (admission path; cached per epoch).
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

    fn epoch(&self) -> u64 {
        0
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

    fn epoch(&self) -> u64 {
        DynamicIndex::epoch(self)
    }

    fn validate_shape(
        &self,
        query_dim: usize,
        k: usize,
        _params: &SearchParams,
    ) -> Result<(), SearchError> {
        // The dynamic index owns its search parameters
        // (`DynamicParams::search`); the service's params only steer
        // batching, so shape validation ignores them.
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
        // Clamped: a delete racing between admission and dispatch can
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
