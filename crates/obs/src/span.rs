//! Scoped wall-clock timing of named stages.
//!
//! A [`Span`] accumulates total/max duration and an invocation count
//! for one stage (e.g. `build.reorder`). Timing starts with
//! [`Span::start`], whose guard records on drop, or the closure form
//! [`Span::time`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cumulative timing for one named stage.
#[derive(Debug, Default)]
pub struct Span {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Nanoseconds since `begin`, saturating at `u64::MAX`.
fn ns_since(begin: Instant) -> u64 {
    u64::try_from(begin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Span {
    /// An empty span (const — usable in statics).
    pub const fn new() -> Self {
        Span { count: AtomicU64::new(0), total_ns: AtomicU64::new(0), max_ns: AtomicU64::new(0) }
    }

    /// Begin timing; the returned guard records on drop.
    #[inline]
    pub fn start(&self) -> SpanGuard<'_> {
        SpanGuard { span: self, begin: Instant::now() }
    }

    /// Time a closure, returning its value.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = self.start();
        f()
    }

    /// Record an externally measured duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record an externally measured [`std::time::Duration`].
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded invocations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest single invocation in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per invocation (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns().checked_div(self.count()).unwrap_or(0)
    }

    /// Forget all recordings.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Records the elapsed time into its [`Span`] when dropped.
#[must_use = "the span records when this guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    span: &'a Span,
    begin: Instant,
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.span.record_ns(ns_since(self.begin));
    }
}

/// A standalone timer for feeding histograms (e.g. per-query latency):
/// starts at construction, reads out once.
#[derive(Debug)]
pub struct Stopwatch {
    begin: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch { begin: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        ns_since(self.begin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulates_guard_and_manual_records() {
        let s = Span::new();
        {
            let _t = s.start();
            std::hint::black_box(0u64);
        }
        s.record_ns(500);
        s.record_duration(std::time::Duration::from_nanos(700));
        assert_eq!(s.count(), 3);
        assert!(s.total_ns() >= 1200);
        assert!(s.max_ns() >= 700);
        assert!(s.mean_ns() > 0);
        s.reset();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn time_closure_returns_value() {
        let s = Span::new();
        let v = s.time(|| 41 + 1);
        assert_eq!(v, 42);
    }
}
