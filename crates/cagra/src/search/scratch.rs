//! Reusable per-worker search state.
//!
//! Every search needs the same working set: a visited set, one
//! search buffer per worker (top-M list + candidate list), a parent
//! list, a result list, and a trace. Allocating these per query is
//! invisible for a single search but dominates small-query batch
//! throughput — the GPU kernels never allocate per query (all state
//! lives in registers/shared memory sized at launch), and the CPU
//! batch path mirrors that: each worker thread owns one
//! [`SearchScratch`] and recycles it across every query it serves, so
//! steady-state batch search performs **zero heap allocations per
//! query** beyond the returned result vector itself.
//!
//! [`SearchScratch::begin`] re-shapes the scratch for the next search;
//! when the shape matches the previous query (the common case inside a
//! batch) no allocation occurs — the visited set forgets its
//! contents in O(1) (see [`super::dense`]), vectors are `clear()`ed,
//! and capacity is retained.

use super::buffer::SearchBuffer;
use super::dense::DenseVisited;
use super::trace::SearchTrace;
use knn::topk::Neighbor;

/// Reusable working state for one search worker thread.
///
/// Create once (cheap — everything starts empty), then pass to
/// [`crate::CagraIndex::search_mode_with`] for as many queries as
/// desired. After each call, [`SearchScratch::results`] and
/// [`SearchScratch::trace`] hold that query's output until the next
/// search overwrites them.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    /// The host's visited set: one stamp per graph row (4 B × n).
    pub(crate) dense: DenseVisited,
    /// One buffer per worker (single-CTA uses exactly one).
    pub(crate) buffers: Vec<SearchBuffer>,
    /// Per-worker liveness flags.
    pub(crate) active: Vec<bool>,
    /// The current worker's parent list (up to `search_width` ids).
    pub(crate) parents: Vec<u32>,
    /// Staging buffer for batch queries gathered out of a store.
    pub(crate) query: Vec<f32>,
    /// Fresh (first-visit) node ids gathered during one parent
    /// expansion, scored in a single `DistanceOracle::to_rows` call.
    pub(crate) gang_ids: Vec<u32>,
    /// Output of the batched distance call (parallel to `gang_ids`).
    pub(crate) gang_dists: Vec<f32>,
    /// Results of the most recent search, ascending by distance.
    pub(crate) results: Vec<Neighbor>,
    /// Rerank staging: one full-precision row gathered from the rerank
    /// source (used only when the source has no borrowable rows).
    pub(crate) rerank_row: Vec<f32>,
    /// Rerank staging: the approximate top-k ids before re-scoring
    /// (drives the `search.rerank_promoted` counter).
    pub(crate) rerank_ids: Vec<u32>,
    /// Trace of the most recent search.
    pub(crate) trace: SearchTrace,
    /// When false, per-iteration trace entries are not recorded (the
    /// untraced batch path — keeps the steady state allocation-free
    /// and skips bookkeeping the caller will drop anyway). Aggregate
    /// counters (`init_distances`) are maintained either way.
    pub(crate) record_trace: bool,
    /// Number of searches served (drives the `scratch_reused` flag).
    searches: u64,
}

impl SearchScratch {
    /// Fresh, empty scratch. No allocations happen until the first
    /// search shapes it.
    pub fn new() -> Self {
        SearchScratch { record_trace: true, ..Default::default() }
    }

    /// Enable or disable per-iteration trace recording (default on).
    pub fn set_record_trace(&mut self, record: bool) {
        self.record_trace = record;
    }

    /// Results of the most recent search.
    pub fn results(&self) -> &[Neighbor] {
        &self.results
    }

    /// Trace of the most recent search.
    pub fn trace(&self) -> &SearchTrace {
        &self.trace
    }

    /// True once the scratch has served more than one search — i.e.
    /// the most recent search ran on recycled state.
    pub fn reused(&self) -> bool {
        self.searches > 1
    }

    /// Re-shape for the next search: `workers` buffers of top-M length
    /// `m` and candidate capacity `width`. Reuses every allocation
    /// whose size already matches; in a fixed-shape batch this is
    /// allocation-free after the first query. Trace metadata fields are
    /// left for the search routine to fill; `scratch_reused` reports
    /// whether this scratch has served a previous search.
    pub(crate) fn begin(&mut self, workers: usize, m: usize, width: usize) {
        for buf in self.buffers.iter_mut().take(workers) {
            buf.reset(m, width);
        }
        while self.buffers.len() < workers {
            self.buffers.push(SearchBuffer::new(m, width));
        }
        self.buffers.truncate(workers);
        self.active.clear();
        self.active.resize(workers, true);
        self.parents.clear();
        self.gang_ids.clear();
        self.gang_dists.clear();
        self.results.clear();
        // A fresh trace that keeps the iterations vector's capacity.
        let mut iterations = std::mem::take(&mut self.trace.iterations);
        iterations.clear();
        let scratch_reused = self.searches > 0;
        self.trace = SearchTrace { iterations, scratch_reused, ..Default::default() };
        self.searches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_shapes_and_tracks_reuse() {
        let mut s = SearchScratch::new();
        assert!(!s.reused());
        s.begin(4, 32, 16);
        assert_eq!(s.buffers.len(), 4);
        assert_eq!(s.active, vec![true; 4]);
        assert!(!s.trace.scratch_reused, "first search is not a reuse");
        assert!(!s.reused());
        // Second search: fewer workers.
        s.begin(1, 64, 8);
        assert_eq!(s.buffers.len(), 1);
        assert!(s.trace.scratch_reused);
        assert!(s.reused());
    }

    #[test]
    fn begin_clears_previous_outputs() {
        let mut s = SearchScratch::new();
        s.begin(1, 16, 8);
        s.results.push(Neighbor::new(1, 0.5));
        s.trace.init_distances = 9;
        s.trace.iterations.push(Default::default());
        s.begin(1, 16, 8);
        assert!(s.results.is_empty());
        assert_eq!(s.trace.init_distances, 0);
        assert_eq!(s.trace.iteration_count(), 0);
    }
}
