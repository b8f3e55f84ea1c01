//! High-level index: build once, search many times.
//!
//! [`CagraIndex`] owns the dataset and graph and exposes the public
//! search API: one validated entry ([`CagraIndex::try_search_batch`]:
//! a batch of queries, the mapping either given or chosen per Fig. 7,
//! traces on request; thread-parallel over queries, the CPU analogue
//! of launching one CTA per query), one unchecked hot entry on caller
//! scratch ([`CagraIndex::search_mode_with`]) and three panicking
//! one-line conveniences over the validated entry. `gpu-sim` runs the
//! hot entry on its own visited tables through its hidden
//! [`CagraIndex::search_hooked`] form.

use super::kernel::{search_query, Hook};
use super::planner::{choose, Mode};
use super::scratch::SearchScratch;
use super::trace::SearchTrace;
use crate::build::{build_graph, BuildReport, GraphConfig};
use crate::error::{validate_request, SearchError};
use crate::params::SearchParams;
use dataset::{PermutableStore, VectorStore};
use distance::Metric;
use graph::relabel::{self, IdMap, RelabelStrategy};
use graph::FixedDegreeGraph;
use knn::parallel::{default_threads, parallel_map_with};
use knn::topk::Neighbor;

/// A built CAGRA index over an owned vector store.
pub struct CagraIndex<S> {
    store: S,
    graph: FixedDegreeGraph,
    metric: Metric,
    /// Present when the index was relabeled for memory locality: the
    /// graph and store rows live in a permuted internal numbering, and
    /// this map translates ids at the search boundary.
    id_map: Option<IdMap>,
    /// Full-precision rows for the two-phase exact rerank, in
    /// **original** id order (see [`CagraIndex::set_rerank_store`]).
    /// `None` until attached; required when `rerank_depth > 0`.
    rerank: Option<Box<dyn VectorStore + Send + Sync>>,
}

/// What [`CagraIndex::try_search_batch`] returns, one entry per query
/// in batch order.
#[derive(Clone, Debug, Default)]
pub struct SearchOutput {
    /// Top-k neighbors, ascending by distance.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per-query traces; empty unless the search was `traced`.
    pub traces: Vec<SearchTrace>,
}

/// A lone query viewed as a one-row batch.
struct OneQuery<'a>(&'a [f32]);

impl VectorStore for OneQuery<'_> {
    fn len(&self) -> usize {
        1
    }
    fn dim(&self) -> usize {
        self.0.len()
    }
    fn get_into(&self, _i: usize, out: &mut [f32]) {
        out.copy_from_slice(self.0);
    }
    fn bytes_per_vector(&self) -> usize {
        std::mem::size_of_val(self.0)
    }
}

impl<S: VectorStore> CagraIndex<S> {
    /// Build a new index (NN-Descent + CAGRA optimization).
    pub fn build(store: S, metric: Metric, config: &GraphConfig) -> (Self, BuildReport) {
        let (graph, report) = build_graph(&store, metric, config);
        (CagraIndex { store, graph, metric, id_map: None, rerank: None }, report)
    }

    /// Wrap an already-built graph (e.g. deserialized with
    /// `graph::io::read_fixed`), rejecting mismatched sizes.
    pub fn try_new(store: S, graph: FixedDegreeGraph, metric: Metric) -> Result<Self, SearchError> {
        if store.len() != graph.len() {
            return Err(SearchError::SizeMismatch { store: store.len(), graph: graph.len() });
        }
        Ok(CagraIndex { store, graph, metric, id_map: None, rerank: None })
    }

    /// Wrap an already-built graph (e.g. deserialized with
    /// `graph::io::read_fixed`).
    ///
    /// # Panics
    /// Panics if graph and store sizes disagree; [`CagraIndex::try_new`]
    /// is the non-panicking form.
    pub fn from_parts(store: S, graph: FixedDegreeGraph, metric: Metric) -> Self {
        Self::try_new(store, graph, metric).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Wrap an already-relabeled graph/store pair together with the
    /// [`IdMap`] that translates back to original ids (the bundle
    /// loader's entry point).
    ///
    /// # Panics
    /// Panics if graph, store, and map sizes disagree.
    pub fn from_parts_mapped(
        store: S,
        graph: FixedDegreeGraph,
        metric: Metric,
        id_map: Option<IdMap>,
    ) -> Self {
        let mut index = Self::from_parts(store, graph, metric);
        if let Some(m) = &id_map {
            assert_eq!(m.len(), index.graph.len(), "id map and graph sizes differ");
        }
        index.id_map = id_map;
        index
    }

    /// The proximity graph.
    pub fn graph(&self) -> &FixedDegreeGraph {
        &self.graph
    }

    /// The vector store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The locality id map, if the index has been relabeled.
    pub fn id_map(&self) -> Option<&IdMap> {
        self.id_map.as_ref()
    }

    /// The metric the index was built with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Attach a full-precision rerank source, enabling two-phase
    /// search (`SearchParams::rerank_depth > 0`): traversal under the
    /// store's — possibly approximate, e.g. PQ/ADC — distances, then
    /// an exact re-score of the top candidates against this source.
    ///
    /// Rows must be in **original** id order. Search results carry
    /// original ids (any locality relabel is undone at the output
    /// boundary), so the rerank pass reads `source` rows by result id
    /// directly — no permutation bookkeeping — and a later
    /// [`CagraIndex::relabel`] leaves the source untouched.
    ///
    /// # Panics
    /// Panics if the source's shape differs from the index.
    pub fn set_rerank_store(&mut self, source: Box<dyn VectorStore + Send + Sync>) {
        assert_eq!(source.len(), self.store.len(), "rerank source/store size mismatch");
        assert_eq!(source.dim(), self.store.dim(), "rerank source/store dimension mismatch");
        self.rerank = Some(source);
    }

    /// The attached full-precision rerank source, if any.
    pub fn rerank_store(&self) -> Option<&(dyn VectorStore + Send + Sync)> {
        self.rerank.as_deref()
    }

    /// Validate a request *shape* — `(k, query_dim, params)` against
    /// this index — without running a search. The serving layer calls
    /// this once per request at admission time and then runs the
    /// validation-free [`CagraIndex::search_mode_with`] on a serve
    /// worker, so a malformed request is rejected before it is queued.
    pub fn validate_shape(
        &self,
        query_dim: usize,
        k: usize,
        params: &SearchParams,
    ) -> Result<(), SearchError> {
        validate_request(params, k, self.store.len(), self.store.dim(), query_dim)?;
        if params.rerank_depth > 0 && self.rerank.is_none() {
            return Err(SearchError::RerankWithoutSource);
        }
        Ok(())
    }

    /// The one validated search entry: every query of `queries`,
    /// parallel over queries, with mapping `mode` — `None` picks it per
    /// Fig. 7 from the batch size and `itopk`. Every invalid input
    /// (dimension mismatch, `k == 0`, `k > itopk`, `k > n`, bad knob
    /// values, rerank without a source) comes back as a typed
    /// [`SearchError`]. Per-query traces are recorded and returned
    /// only when `traced`.
    ///
    /// Query `qi` runs with seed [`SearchParams::seed_for_query`]`(qi)`
    /// on a per-thread recycled [`SearchScratch`], so results are
    /// deterministic regardless of thread count and the steady state
    /// performs zero heap allocations per query beyond the returned
    /// vectors. A one-row batch runs inline on the calling thread.
    pub fn try_search_batch<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        params: &SearchParams,
        mode: Option<Mode>,
        traced: bool,
    ) -> Result<SearchOutput, SearchError> {
        self.validate_shape(queries.dim(), k, params)?;
        let mode = mode.unwrap_or_else(|| choose(queries.len(), params.itopk));
        let state = || {
            let mut scratch = SearchScratch::new();
            // Untraced: skip per-iteration records so the steady state
            // stays allocation-free.
            scratch.set_record_trace(traced);
            scratch
        };
        let run = |scratch: &mut SearchScratch, qi: usize| {
            // Stage the row in the scratch's recycled buffer, taken out
            // so the query and the scratch can be borrowed together.
            let mut q = std::mem::take(&mut scratch.query);
            q.resize(queries.dim(), 0.0);
            queries.get_into(qi, &mut q);
            let p = SearchParams { seed: params.seed_for_query(qi), ..*params };
            self.search_mode_with(&q, k, &p, mode, scratch);
            scratch.query = q;
            (scratch.results().to_vec(), traced.then(|| scratch.trace().clone()))
        };
        let rows = if queries.len() == 1 {
            vec![run(&mut state(), 0)]
        } else {
            obs::metrics().search_batches.inc();
            parallel_map_with(queries.len(), default_threads(), state, run)
        };
        let (neighbors, traces): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        Ok(SearchOutput { neighbors, traces: traces.into_iter().flatten().collect() })
    }

    /// [`CagraIndex::try_search_batch`] for the panicking conveniences
    /// below.
    fn must_search<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        params: &SearchParams,
        mode: Option<Mode>,
        traced: bool,
    ) -> SearchOutput {
        let out = self.try_search_batch(queries, k, params, mode, traced);
        // ALLOW(panic): documented contract of the panicking wrappers.
        out.unwrap_or_else(|e| panic!("{e}"))
    }

    /// Single-query search with automatic mapping choice (a lone query
    /// always dispatches to multi-CTA, as in the paper).
    ///
    /// # Panics
    /// Panics on invalid input, as do the conveniences below;
    /// [`CagraIndex::try_search_batch`] is the non-panicking form.
    pub fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Vec<Neighbor> {
        let mut out = self.must_search(&OneQuery(query), k, params, None, false);
        out.neighbors.pop().unwrap_or_default()
    }

    /// Single-query search with an explicit mapping; returns the trace
    /// too.
    pub fn search_mode(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        mode: Mode,
    ) -> (Vec<Neighbor>, SearchTrace) {
        let mut out = self.must_search(&OneQuery(query), k, params, Some(mode), true);
        (out.neighbors.pop().unwrap_or_default(), out.traces.pop().unwrap_or_default())
    }

    /// Batch search, mapping chosen per Fig. 7 from the batch size.
    pub fn search_batch<Q: VectorStore>(
        &self,
        queries: &Q,
        k: usize,
        params: &SearchParams,
    ) -> Vec<Vec<Neighbor>> {
        self.must_search(queries, k, params, None, false).neighbors
    }

    /// The unchecked hot entry: one query on caller-provided scratch.
    /// Results land in [`SearchScratch::results`], the trace in
    /// [`SearchScratch::trace`]. Reusing one scratch across queries
    /// performs zero heap allocations per query in steady state; the
    /// validated entry runs the same search on one scratch per worker
    /// thread, and the serving layer calls it directly after
    /// validating the shape once at admission.
    ///
    /// # Panics
    /// Panics on input [`CagraIndex::validate_shape`] would reject.
    pub fn search_mode_with(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        mode: Mode,
        scratch: &mut SearchScratch,
    ) {
        let mut dense = std::mem::take(&mut scratch.dense);
        self.search_hooked(query, k, params, mode, scratch, &mut dense);
        scratch.dense = dense;
    }

    /// [`CagraIndex::search_mode_with`] on `hook` in place of the
    /// scratch's own visited set.
    #[doc(hidden)]
    pub fn search_hooked<H: Hook>(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        mode: Mode,
        scratch: &mut SearchScratch,
        hook: &mut H,
    ) {
        let clock = obs::Stopwatch::start();
        // Two-phase: traverse for the top max(k, r) candidates under
        // the store's (possibly approximate) distances, then exactly
        // re-score them against the rerank source. On this unchecked
        // path, depth > 0 without a source degrades to single-phase —
        // the validated entry points reject that combination up front.
        let rerank = if params.rerank_depth > 0 { self.rerank.as_deref() } else { None };
        let k_eff = match rerank {
            Some(_) => params.rerank_depth.max(k).min(params.itopk).min(self.store.len()),
            None => k,
        };
        search_query(self, query, k_eff, params, mode, scratch, hook);
        if let Some(src) = rerank {
            self.rerank_results(query, k, src, scratch);
        }
        let m = obs::metrics();
        m.search_queries.inc();
        m.search_latency_ns.record(clock.elapsed_ns());
    }

    /// Phase two: exactly re-score the candidates in `scratch.results`
    /// against the full-precision source and keep the best `k`.
    /// Candidate ids are original ids — exactly the source's row order
    /// — so no id translation happens here. Uses the same kernel entry
    /// points as a plain f32 oracle, so the kept distances are
    /// bit-identical to what an uncompressed index would report.
    fn rerank_results(
        &self,
        query: &[f32],
        k: usize,
        src: &dyn VectorStore,
        scratch: &mut SearchScratch,
    ) {
        let clock = obs::Stopwatch::start();
        let depth = scratch.results.len();
        // Remember the approximate top-k, sorted, to count promotions.
        let mut approx = std::mem::take(&mut scratch.rerank_ids);
        approx.clear();
        approx.extend(scratch.results.iter().take(k).map(|n| n.id));
        approx.sort_unstable();
        let mut row = std::mem::take(&mut scratch.rerank_row);
        row.resize(src.dim(), 0.0);
        // Hoist the query norm once, as the oracle's prepare() does.
        let qnorm = match self.metric {
            Metric::Cosine => distance::dot(query, query).sqrt(),
            _ => 0.0,
        };
        for nb in scratch.results.iter_mut() {
            let r: &[f32] = match src.row_f32(nb.id as usize) {
                Some(r) => r,
                None => {
                    src.get_into(nb.id as usize, &mut row);
                    &row
                }
            };
            nb.dist = match self.metric {
                Metric::SquaredL2 => distance::squared_l2(query, r),
                Metric::InnerProduct => -distance::dot(query, r),
                Metric::Cosine => distance::cosine_from_parts(qnorm, distance::dot_norm(query, r)),
            };
        }
        scratch.results.sort_unstable_by(knn::topk::cmp_neighbor);
        scratch.results.truncate(k);
        let promoted =
            scratch.results.iter().filter(|n| approx.binary_search(&n.id).is_err()).count();
        scratch.rerank_row = row;
        scratch.rerank_ids = approx;
        let m = obs::metrics();
        m.search_rerank_queries.inc();
        m.search_rerank_promoted.add(promoted as u64);
        m.search_rerank_depth.record(depth as u64);
        m.search_rerank_latency_ns.record(clock.elapsed_ns());
    }
}

impl<S: VectorStore + PermutableStore> CagraIndex<S> {
    /// Build and then relabel for memory locality in one step,
    /// recording the relabel time in the report's stage breakdown.
    pub fn build_with_relabel(
        store: S,
        metric: Metric,
        config: &GraphConfig,
        strategy: RelabelStrategy,
    ) -> (Self, BuildReport) {
        let (mut index, mut report) = Self::build(store, metric, config);
        let t = std::time::Instant::now();
        index.relabel(strategy);
        report.stats.relabel = t.elapsed();
        report.opt_time += report.stats.relabel;
        (index, report)
    }

    /// Renumber the vertices with `strategy`, jointly permuting the
    /// adjacency rows and the vector-store rows and installing (or
    /// composing with) the [`IdMap`] so searches keep returning
    /// original ids — bit-identical results, different memory layout.
    ///
    /// `Identity` on a never-relabeled index is a no-op and leaves the
    /// index unmapped.
    pub fn relabel(&mut self, strategy: RelabelStrategy) {
        let perm = relabel::compute_fixed(&self.graph, strategy);
        if perm.is_identity() {
            // No layout change: keep any existing map (and its
            // strategy tag) untouched, so a persisted map's strategy
            // is never `Identity` — the bundle format relies on that.
            return;
        }
        self.graph = relabel::apply_to_fixed(&self.graph, &perm);
        self.store = self.store.permuted(perm.old_of_new_slice());
        // Compose: an existing map already translates original →
        // internal; the new permutation renumbers internal → internal.
        self.id_map = Some(match self.id_map.take() {
            Some(prev) => IdMap { perm: prev.perm.then(&perm), strategy },
            None => IdMap { perm, strategy },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::synth::{Family, SynthSpec};
    use knn::brute::ground_truth;

    fn build_index(n: usize) -> (CagraIndex<dataset::Dataset>, dataset::Dataset) {
        let spec = SynthSpec { dim: 8, n, queries: 50, family: Family::Gaussian, seed: 21 };
        let (base, queries) = spec.generate();
        let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
        (index, queries)
    }

    #[test]
    fn batch_search_reaches_high_recall() {
        let (index, queries) = build_index(2000);
        let got = index.search_batch(&queries, 10, &SearchParams::for_k(10));
        let gt = ground_truth(index.store(), Metric::SquaredL2, &queries, 10);
        let mut hits = 0usize;
        for (g, t) in got.iter().zip(&gt) {
            let ts: std::collections::HashSet<u32> = t.iter().copied().collect();
            hits += g.iter().filter(|n| ts.contains(&n.id)).count();
        }
        let recall = hits as f64 / (gt.len() * 10) as f64;
        assert!(recall > 0.9, "batch recall@10 = {recall}");
    }

    #[test]
    fn batch_results_stable_across_thread_counts() {
        let (index, queries) = build_index(800);
        let p = SearchParams::for_k(5);
        std::env::set_var("CAGRA_THREADS", "1");
        let a = index.search_batch(&queries, 5, &p);
        std::env::set_var("CAGRA_THREADS", "3");
        let b = index.search_batch(&queries, 5, &p);
        std::env::remove_var("CAGRA_THREADS");
        assert_eq!(a, b);
    }

    #[test]
    fn single_query_uses_multi_cta_mapping() {
        let (index, queries) = build_index(500);
        let p = SearchParams::for_k(5);
        let auto = index.search(queries.row(0), 5, &p);
        let (multi, _) = index.search_mode(queries.row(0), 5, &p, Mode::MultiCta);
        assert_eq!(auto, multi);
    }

    #[test]
    fn validate_shape_matches_try_search_acceptance() {
        let (index, queries) = build_index(300);
        let p = SearchParams::for_k(5);
        assert_eq!(index.validate_shape(queries.dim(), 5, &p), Ok(()));
        assert_eq!(index.validate_shape(queries.dim(), 0, &p), Err(SearchError::ZeroK));
        assert_eq!(
            index.validate_shape(3, 5, &p),
            Err(SearchError::DimMismatch { expected: 8, got: 3 })
        );
        assert_eq!(
            index.validate_shape(queries.dim(), 301, &p),
            Err(SearchError::KExceedsItopk { k: 301, itopk: p.itopk })
        );
    }

    #[test]
    fn from_parts_round_trip() {
        let (index, queries) = build_index(300);
        let mut buf = Vec::new();
        graph::io::write_fixed(&mut buf, index.graph()).unwrap();
        let g2 = graph::io::read_fixed(&buf[..]).unwrap();
        let store2 =
            dataset::Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim());
        let index2 = CagraIndex::from_parts(store2, g2, Metric::SquaredL2);
        let p = SearchParams::for_k(5);
        assert_eq!(index.search(queries.row(1), 5, &p), index2.search(queries.row(1), 5, &p));
    }

    fn clone_of(index: &CagraIndex<dataset::Dataset>) -> CagraIndex<dataset::Dataset> {
        let store =
            dataset::Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim());
        CagraIndex::from_parts(store, index.graph().clone(), index.metric())
    }

    #[test]
    fn relabel_preserves_batch_results_bit_exactly() {
        let (index, queries) = build_index(800);
        let p = SearchParams::for_k(5);
        let baseline = index.search_batch(&queries, 5, &p);
        for strategy in [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder] {
            let mut relabeled = clone_of(&index);
            relabeled.relabel(strategy);
            assert_eq!(relabeled.id_map().map(|m| m.strategy), Some(strategy));
            assert_eq!(
                relabeled.search_batch(&queries, 5, &p),
                baseline,
                "strategy {strategy:?} changed results"
            );
        }
    }

    #[test]
    fn identity_relabel_is_a_no_op() {
        let (index, _) = build_index(300);
        let mut idx = clone_of(&index);
        idx.relabel(RelabelStrategy::Identity);
        assert!(idx.id_map().is_none());
    }

    #[test]
    fn repeated_relabel_composes() {
        let (index, queries) = build_index(500);
        let p = SearchParams::for_k(5);
        let baseline = index.search_batch(&queries, 5, &p);
        let mut idx = clone_of(&index);
        idx.relabel(RelabelStrategy::Degree);
        idx.relabel(RelabelStrategy::Rcm);
        assert_eq!(idx.id_map().map(|m| m.strategy), Some(RelabelStrategy::Rcm));
        assert_eq!(idx.search_batch(&queries, 5, &p), baseline);
    }

    #[test]
    fn from_parts_mapped_round_trips_the_map() {
        let (index, queries) = build_index(400);
        let p = SearchParams::for_k(5);
        let baseline = index.search_batch(&queries, 5, &p);
        let mut relabeled = clone_of(&index);
        relabeled.relabel(RelabelStrategy::Rcm);
        let store2 = dataset::Dataset::from_flat(
            relabeled.store().as_flat().to_vec(),
            relabeled.store().dim(),
        );
        let rebuilt = CagraIndex::from_parts_mapped(
            store2,
            relabeled.graph().clone(),
            relabeled.metric(),
            relabeled.id_map().cloned(),
        );
        assert_eq!(rebuilt.search_batch(&queries, 5, &p), baseline);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_parts_checks_sizes() {
        let (index, _) = build_index(300);
        let store = dataset::Dataset::from_flat(vec![0.0; 8], 8);
        let g = index.graph().clone();
        CagraIndex::from_parts(store, g, Metric::SquaredL2);
    }

    #[test]
    fn rerank_without_source_rejected_and_accepted_with_one() {
        let (mut index, queries) = build_index(300);
        let mut p = SearchParams::for_k(5);
        p.rerank_depth = 20;
        let refused = index.try_search_batch(&queries, 5, &p, None, false);
        assert_eq!(refused.err(), Some(SearchError::RerankWithoutSource));
        assert_eq!(
            index.validate_shape(queries.dim(), 5, &p),
            Err(SearchError::RerankWithoutSource)
        );
        let copy =
            dataset::Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim());
        index.set_rerank_store(Box::new(copy));
        assert_eq!(index.validate_shape(queries.dim(), 5, &p), Ok(()));
        assert_eq!(index.search(queries.row(0), 5, &p).len(), 5);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn rerank_source_shape_checked() {
        let (mut index, _) = build_index(300);
        index.set_rerank_store(Box::new(dataset::Dataset::from_flat(vec![0.0; 8], 8)));
    }

    #[test]
    fn rerank_over_exact_store_returns_the_same_top_k() {
        // With an f32 store the traversal distances are already exact,
        // so phase two re-scores with bit-identical values and the
        // final top-k must match single-phase search exactly.
        let (mut index, queries) = build_index(800);
        let mut p = SearchParams::for_k(10);
        let baseline = index.search_batch(&queries, 10, &p);
        let copy =
            dataset::Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim());
        index.set_rerank_store(Box::new(copy));
        p.rerank_depth = 40;
        assert_eq!(index.search_batch(&queries, 10, &p), baseline);
    }

    #[test]
    fn pq_rerank_reports_exact_distances_and_lifts_recall() {
        use dataset::pq::{self, PqConfig};
        let spec = SynthSpec { dim: 16, n: 1500, queries: 40, family: Family::Gaussian, seed: 9 };
        let (base, queries) = spec.generate();
        let pq_store = pq::build(&base, &PqConfig::new(4));
        let (graph, _) = crate::build::build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
        let mut index = CagraIndex::from_parts(pq_store, graph, Metric::SquaredL2);
        let mut p = SearchParams::for_k(10);
        p.itopk = 128;
        let approx = index.search_batch(&queries, 10, &p);
        index.set_rerank_store(Box::new(dataset::Dataset::from_flat(
            base.as_flat().to_vec(),
            base.dim(),
        )));
        p.rerank_depth = 64;
        let reranked = index.search_batch(&queries, 10, &p);
        // Reranked distances are the true f32 distances of the ids.
        for (qi, hits) in reranked.iter().enumerate() {
            assert_eq!(hits.len(), 10);
            for nb in hits {
                let want = Metric::SquaredL2.distance(queries.row(qi), base.row(nb.id as usize));
                assert_eq!(nb.dist, want, "query {qi} id {}", nb.id);
            }
        }
        // Recall@10 with rerank must beat (or tie) raw PQ traversal.
        let gt = ground_truth(&base, Metric::SquaredL2, &queries, 10);
        let recall = |got: &[Vec<knn::topk::Neighbor>]| {
            let mut hits = 0usize;
            for (g, t) in got.iter().zip(&gt) {
                let ts: std::collections::HashSet<u32> = t.iter().copied().collect();
                hits += g.iter().filter(|n| ts.contains(&n.id)).count();
            }
            hits as f64 / (gt.len() * 10) as f64
        };
        let (r_pq, r_rr) = (recall(&approx), recall(&reranked));
        assert!(r_rr >= r_pq, "rerank lowered recall: {r_pq} -> {r_rr}");
        assert!(r_rr > 0.9, "reranked recall@10 = {r_rr}");
    }
}
