//! Lightweight observability: counters, histograms, spans, snapshots.
//!
//! The paper's headline claims are throughput/latency *distributions*
//! (QPS at fixed recall, per-stage build cost, per-iteration traversal
//! statistics), so the repro needs always-on aggregation — not just
//! per-query traces. This crate provides the primitives and a global,
//! statically-allocated [`Metrics`] registry the other crates record
//! into:
//!
//! * [`Counter`] — a relaxed atomic u64.
//! * [`Histogram`] — log-bucketed (4 sub-buckets per power of two,
//!   ~12.5% value resolution) with p50/p90/p99/max readout.
//! * [`Span`] — cumulative wall-clock timing of a named stage, with a
//!   scoped-guard API ([`Span::start`]) and a closure API
//!   ([`Span::time`]).
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric,
//!   renderable as an aligned text table or machine-readable JSON
//!   (hand-rolled writer; the workspace has no serde runtime).
//!
//! # Cost
//!
//! There is one build: every record is a relaxed atomic op on a
//! statically allocated field, with no lookup, lock or allocation.
//! Recording never feeds back into any algorithm, so results are
//! identical to an uninstrumented run (`tests/search_golden.rs` pins
//! the search kernel bit for bit with recording on).

pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use hist::Histogram;
pub use registry::{metrics, reset, Metrics};
pub use snapshot::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot, SpanSnapshot};
pub use span::{Span, SpanGuard, Stopwatch};

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (const — usable in statics).
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        c.reset();
        assert_eq!(c.get(), 0);
        c.add(10);
        assert_eq!(c.get(), 10);
    }
}
