//! The global, statically-allocated metric registry.
//!
//! One typed struct rather than a name-keyed map: every metric is a
//! plain field, so a record is a direct atomic op with no lookup, no
//! locking, and no allocation — the registry is `const`-constructed
//! into a `static`. Names (as exported in snapshots) are dotted
//! `layer.metric`, e.g. `build.nn_join` or `search.latency_ns`.

use crate::hist::Histogram;
use crate::snapshot::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot, SpanSnapshot};
use crate::span::Span;
use crate::Counter;

/// Every metric the workspace records, grouped by layer.
#[derive(Debug, Default)]
pub struct Metrics {
    // --- build: per-stage construction spans (tentpole layer 1) ---
    /// NN-Descent random-graph initialization.
    pub build_nn_init: Span,
    /// NN-Descent neighbor sampling (phase 1 of each iteration).
    pub build_nn_sample: Span,
    /// NN-Descent reverse-edge scatter (phase 2).
    pub build_nn_scatter: Span,
    /// NN-Descent local join (phase 3).
    pub build_nn_join: Span,
    /// Rank-based reordering pass.
    pub build_reorder: Span,
    /// Reverse-edge derivation pass.
    pub build_reverse: Span,
    /// Forward/reverse merge pass.
    pub build_merge: Span,
    /// Whole-graph builds completed.
    pub build_graphs: Counter,
    /// NN-Descent iterations executed.
    pub build_nn_iterations: Counter,
    /// Distance computations during NN-Descent.
    pub build_nn_distances: Counter,
    /// Distance computations during graph optimization.
    pub build_opt_distances: Counter,

    // --- search: per-query aggregation (tentpole layer 2) ---
    /// Queries answered.
    pub search_queries: Counter,
    /// Batches answered.
    pub search_batches: Counter,
    /// Per-query wall latency (ns).
    pub search_latency_ns: Histogram,
    /// Traversal iterations per query.
    pub search_iterations: Histogram,
    /// Distance computations per query.
    pub search_distances: Histogram,
    /// Hash probe steps per query (summed over its iterations).
    /// Simulated searches only: the host's dense visited table has no
    /// probes.
    pub search_probe_len: Histogram,
    /// Visited-table occupancy per query, in tenths of a percent
    /// (0..=1000) so the log buckets resolve the low end. Simulated
    /// searches only: the dense table covers every row and never fills.
    pub search_hash_occupancy_permille: Histogram,
    /// Widest per-worker candidate segment of the query (the input
    /// length of the GPU's top-M sort, `parents × degree`; the largest
    /// over its iterations).
    pub search_sort_len: Histogram,
    /// Queries that ran the two-phase exact rerank pass.
    pub search_rerank_queries: Counter,
    /// Candidates the rerank promoted into the final top-k that the
    /// approximate traversal had ranked below k.
    pub search_rerank_promoted: Counter,
    /// Effective rerank depth per reranked query (candidates exactly
    /// re-scored).
    pub search_rerank_depth: Histogram,
    /// Wall time of the rerank pass per query (ns).
    pub search_rerank_latency_ns: Histogram,

    // --- serve: online query service (micro-batching front door) ---
    /// Requests admitted to the serving queue.
    pub serve_requests: Counter,
    /// Requests shed by admission control (typed `Overloaded`).
    pub serve_rejected: Counter,
    /// Requests rejected at admission for a malformed shape.
    pub serve_invalid: Counter,
    /// Micro-batches dispatched.
    pub serve_batches: Counter,
    /// Realized batch size per dispatch.
    pub serve_batch_size: Histogram,
    /// Queue depth observed at each admission.
    pub serve_queue_depth: Histogram,
    /// Time-in-queue per request (ns), admission to dispatch.
    pub serve_queue_wait_ns: Histogram,
    /// End-to-end latency per request (ns), admission to response send.
    pub serve_e2e_latency_ns: Histogram,

    // --- dyn: dynamic index (epoch-swapped mutable wrapper) ---
    /// Vectors inserted into the delta segment.
    pub dyn_inserts: Counter,
    /// Tombstones recorded (successful deletes).
    pub dyn_deletes: Counter,
    /// Snapshot publications (every insert/delete/compaction swap).
    pub dyn_epoch_swaps: Counter,
    /// Background/manual compactions completed.
    pub dyn_compactions: Counter,
    /// Delta-segment size observed at each insert.
    pub dyn_delta_size: Histogram,
    /// Tombstone ratio (deleted / total rows) at each delete, in
    /// permille so the log buckets resolve the low end.
    pub dyn_tombstone_permille: Histogram,
    /// Wall time of each compaction (ns), snapshot to publish.
    pub dyn_compaction_ns: Histogram,

    // --- sim: cost-model cycle attribution (tentpole layer 3) ---
    /// Simulated batches costed.
    pub sim_batches: Counter,
    /// Simulated cycles in the top-M sort phase.
    pub sim_cycles_sort: Counter,
    /// Simulated cycles in parent selection / fixed iteration overhead.
    pub sim_cycles_parent_select: Counter,
    /// Simulated cycles fetching neighbor lists (expansion).
    pub sim_cycles_expand: Counter,
    /// Simulated cycles computing distances.
    pub sim_cycles_distance: Counter,
    /// Simulated cycles probing/updating the visited hash.
    pub sim_cycles_hash: Counter,
    /// Simulated 128-bit transactions gathering init vector rows.
    pub sim_tx_init: Counter,
    /// Simulated 128-bit transactions gathering adjacency rows.
    pub sim_tx_expand: Counter,
    /// Simulated 128-bit transactions gathering scored vector rows.
    pub sim_tx_distance: Counter,
}

impl Metrics {
    const fn new() -> Self {
        Metrics {
            build_nn_init: Span::new(),
            build_nn_sample: Span::new(),
            build_nn_scatter: Span::new(),
            build_nn_join: Span::new(),
            build_reorder: Span::new(),
            build_reverse: Span::new(),
            build_merge: Span::new(),
            build_graphs: Counter::new(),
            build_nn_iterations: Counter::new(),
            build_nn_distances: Counter::new(),
            build_opt_distances: Counter::new(),
            search_queries: Counter::new(),
            search_batches: Counter::new(),
            serve_requests: Counter::new(),
            serve_rejected: Counter::new(),
            serve_invalid: Counter::new(),
            serve_batches: Counter::new(),
            serve_batch_size: Histogram::new(),
            serve_queue_depth: Histogram::new(),
            serve_queue_wait_ns: Histogram::new(),
            serve_e2e_latency_ns: Histogram::new(),
            dyn_inserts: Counter::new(),
            dyn_deletes: Counter::new(),
            dyn_epoch_swaps: Counter::new(),
            dyn_compactions: Counter::new(),
            dyn_delta_size: Histogram::new(),
            dyn_tombstone_permille: Histogram::new(),
            dyn_compaction_ns: Histogram::new(),
            search_latency_ns: Histogram::new(),
            search_iterations: Histogram::new(),
            search_distances: Histogram::new(),
            search_probe_len: Histogram::new(),
            search_hash_occupancy_permille: Histogram::new(),
            search_sort_len: Histogram::new(),
            search_rerank_queries: Counter::new(),
            search_rerank_promoted: Counter::new(),
            search_rerank_depth: Histogram::new(),
            search_rerank_latency_ns: Histogram::new(),
            sim_batches: Counter::new(),
            sim_cycles_sort: Counter::new(),
            sim_cycles_parent_select: Counter::new(),
            sim_cycles_expand: Counter::new(),
            sim_cycles_distance: Counter::new(),
            sim_cycles_hash: Counter::new(),
            sim_tx_init: Counter::new(),
            sim_tx_expand: Counter::new(),
            sim_tx_distance: Counter::new(),
        }
    }

    /// Every counter with its snapshot name, in export order.
    fn counters(&self) -> [(&'static str, &Counter); 24] {
        [
            ("build.graphs", &self.build_graphs),
            ("build.nn_iterations", &self.build_nn_iterations),
            ("build.nn_distances", &self.build_nn_distances),
            ("build.opt_distances", &self.build_opt_distances),
            ("search.queries", &self.search_queries),
            ("search.batches", &self.search_batches),
            ("search.rerank_queries", &self.search_rerank_queries),
            ("search.rerank_promoted", &self.search_rerank_promoted),
            ("serve.requests", &self.serve_requests),
            ("serve.rejected", &self.serve_rejected),
            ("serve.invalid", &self.serve_invalid),
            ("serve.batches", &self.serve_batches),
            ("dyn.inserts", &self.dyn_inserts),
            ("dyn.deletes", &self.dyn_deletes),
            ("dyn.epoch_swaps", &self.dyn_epoch_swaps),
            ("dyn.compactions", &self.dyn_compactions),
            ("sim.batches", &self.sim_batches),
            ("sim.cycles_sort", &self.sim_cycles_sort),
            ("sim.cycles_parent_select", &self.sim_cycles_parent_select),
            ("sim.cycles_expand", &self.sim_cycles_expand),
            ("sim.cycles_distance", &self.sim_cycles_distance),
            ("sim.tx_init", &self.sim_tx_init),
            ("sim.tx_expand", &self.sim_tx_expand),
            ("sim.tx_distance", &self.sim_tx_distance),
        ]
        // `sim.cycles_hash` appended below: arrays are fixed-size, and
        // keeping the list in one place beats a second table.
    }

    /// Every span with its snapshot name, in export order.
    fn spans(&self) -> [(&'static str, &Span); 7] {
        [
            ("build.nn_init", &self.build_nn_init),
            ("build.nn_sample", &self.build_nn_sample),
            ("build.nn_scatter", &self.build_nn_scatter),
            ("build.nn_join", &self.build_nn_join),
            ("build.reorder", &self.build_reorder),
            ("build.reverse", &self.build_reverse),
            ("build.merge", &self.build_merge),
        ]
    }

    /// Every histogram with its snapshot name, in export order.
    fn histograms(&self) -> [(&'static str, &Histogram); 15] {
        [
            ("search.latency_ns", &self.search_latency_ns),
            ("search.iterations", &self.search_iterations),
            ("search.distances", &self.search_distances),
            ("search.probe_len", &self.search_probe_len),
            ("search.hash_occupancy_permille", &self.search_hash_occupancy_permille),
            ("search.sort_len", &self.search_sort_len),
            ("search.rerank_depth", &self.search_rerank_depth),
            ("search.rerank_latency_ns", &self.search_rerank_latency_ns),
            ("serve.batch_size", &self.serve_batch_size),
            ("serve.queue_depth", &self.serve_queue_depth),
            ("serve.queue_wait_ns", &self.serve_queue_wait_ns),
            ("serve.e2e_latency_ns", &self.serve_e2e_latency_ns),
            ("dyn.delta_size", &self.dyn_delta_size),
            ("dyn.tombstone_permille", &self.dyn_tombstone_permille),
            ("dyn.compaction_ns", &self.dyn_compaction_ns),
        ]
    }

    /// Point-in-time copy of every metric. Metrics with zero count are
    /// kept (a zero is information: the stage never ran).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters()
            .iter()
            .map(|(name, c)| CounterSnapshot { name: (*name).to_string(), value: c.get() })
            .collect();
        counters.push(CounterSnapshot {
            name: "sim.cycles_hash".to_string(),
            value: self.sim_cycles_hash.get(),
        });
        let spans = self
            .spans()
            .iter()
            .map(|(name, s)| SpanSnapshot {
                name: (*name).to_string(),
                count: s.count(),
                total_ns: s.total_ns(),
                mean_ns: s.mean_ns(),
                max_ns: s.max_ns(),
            })
            .collect();
        let histograms = self
            .histograms()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: (*name).to_string(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                p50: h.quantile(0.5),
                p90: h.quantile(0.9),
                p99: h.quantile(0.99),
                max: h.max(),
            })
            .collect();
        MetricsSnapshot { counters, spans, histograms }
    }

    /// Zero every metric (test/bench isolation).
    pub fn reset(&self) {
        let mut counters: Vec<&Counter> = self.counters().iter().map(|(_, c)| *c).collect();
        counters.push(&self.sim_cycles_hash);
        for c in counters {
            c.reset();
        }
        for (_, s) in self.spans() {
            s.reset();
        }
        for (_, h) in self.histograms() {
            h.reset();
        }
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide registry all layers record into.
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// Zero every global metric.
pub fn reset() {
    METRICS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_every_field_and_reset_zeroes() {
        reset();
        let m = metrics();
        m.build_graphs.inc();
        m.search_latency_ns.record(1234);
        m.build_nn_join.record_ns(999);
        m.sim_cycles_hash.add(7);
        m.sim_tx_expand.add(3);
        m.serve_batch_size.record(4);
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 25);
        assert_eq!(snap.spans.len(), 7);
        assert_eq!(snap.histograms.len(), 15);
        let get = |n: &str| snap.counters.iter().find(|c| c.name == n).unwrap().value;
        assert_eq!(get("build.graphs"), 1);
        assert_eq!(get("sim.cycles_hash"), 7);
        assert_eq!(get("sim.tx_expand"), 3);
        let lat = snap.histograms.iter().find(|h| h.name == "search.latency_ns").unwrap();
        assert_eq!(lat.count, 1);
        assert_eq!(lat.max, 1234);
        let join = snap.spans.iter().find(|s| s.name == "build.nn_join").unwrap();
        assert_eq!(join.total_ns, 999);
        let bs = snap.histograms.iter().find(|h| h.name == "serve.batch_size").unwrap();
        assert_eq!((bs.count, bs.max), (1, 4));
        reset();
        let snap = m.snapshot();
        assert!(snap.counters.iter().all(|c| c.value == 0));
        assert!(snap.histograms.iter().all(|h| h.count == 0));
        assert!(snap.spans.iter().all(|s| s.count == 0));
    }
}
