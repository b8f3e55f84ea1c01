//! The admission queue.
//!
//! `Batcher` is a bounded FIFO between many submitting clients and
//! the service's pool of serve workers:
//!
//! * **submit side** — bounded: a request that finds `queue_capacity`
//!   admitted requests that no worker has claimed yet is shed with a
//!   typed [`ServeError::Overloaded`] instead of being buffered, so
//!   queue wait (and therefore tail latency) stays bounded under
//!   overload.
//! * **worker side** — `Batcher::claim` pops the oldest request,
//!   blocking while the queue is empty.
//!
//! The queue is deliberately free of search logic — `crates/serve`'s
//! [`crate::Service`] owns the index and the worker threads — so the
//! admission policy is testable (and loom-modelable) in isolation.

use crate::error::ServeError;
use cagra::search::planner::Mode;
use knn::topk::Neighbor;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One admitted request, as a serve worker sees it.
#[derive(Clone, Debug)]
pub struct Job {
    /// The query vector (validated to the index dimension at
    /// admission).
    pub query: Vec<f32>,
    /// Results requested (validated against params/dataset at
    /// admission).
    pub k: usize,
    /// Admission timestamp — the anchor for time-in-queue and
    /// end-to-end latency.
    pub enqueued: Instant,
}

/// How a request was actually served (for clients, tests, and load
/// generators; the same numbers feed the obs histograms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Always 1: every request is searched alone. Kept only because
    /// the benchmark suite reads it; ROADMAP 7(9) removes it.
    pub batch_size: u32,
    /// Kernel mapping the request ran with, whatever the load: its
    /// backend's [`crate::SearchBackend::mapping`].
    pub mode: Mode,
    /// Per-query CTA count, from the same plan.
    pub num_cta: u32,
    /// Time from admission until a worker claimed the request, in
    /// nanoseconds.
    pub queue_ns: u64,
    /// Admission-to-response latency, in nanoseconds.
    pub e2e_ns: u64,
}

/// A served request: results plus how they were produced.
#[derive(Clone, Debug)]
pub struct Response {
    /// The `k` nearest neighbors, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Queue and plan metadata.
    pub meta: ResponseMeta,
}

/// Queue entry: the job plus its response channel.
pub(crate) struct Pending {
    pub(crate) job: Job,
    /// Dropping it unanswered reports [`ServeError::Disconnected`].
    pub(crate) tx: mpsc::Sender<Response>,
}

struct Inner {
    queue: VecDeque<Pending>,
    closed: bool,
}

/// Bounded multi-producer, multi-consumer FIFO of admitted requests.
pub(crate) struct Batcher {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    capacity: usize,
}

impl Batcher {
    pub(crate) fn new(capacity: usize) -> Self {
        Batcher {
            inner: Mutex::new(Inner { queue: VecDeque::with_capacity(capacity), closed: false }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Lock the queue, surviving a poisoned mutex (the queue state is
    /// only ever mutated under short straight-line sections).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admit `job` or shed it. On success returns the receiver a
    /// worker will answer on.
    pub(crate) fn submit(&self, job: Job) -> Result<mpsc::Receiver<Response>, ServeError> {
        // Created before taking the lock so the critical section stays
        // allocation-free; a shed request just throws the pair away,
        // which is cheaper than allocating while submitters contend.
        let (tx, rx) = mpsc::channel();
        let mut inner = self.lock();
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        let depth = inner.queue.len();
        if depth >= self.capacity {
            drop(inner);
            obs::metrics().serve_rejected.inc();
            return Err(ServeError::Overloaded { depth, capacity: self.capacity });
        }
        inner.queue.push_back(Pending { job, tx });
        drop(inner);
        let m = obs::metrics();
        m.serve_requests.inc();
        m.serve_queue_depth.record(depth as u64 + 1);
        self.nonempty.notify_one();
        Ok(rx)
    }

    /// Requests admitted but not yet claimed by a worker
    /// (admission-control observability).
    pub(crate) fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Stop admitting; wake every worker so they drain and exit.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Pop the oldest admitted request, blocking while the queue is
    /// empty. Returns `None` only when the queue is closed *and* empty,
    /// i.e. the worker should exit.
    pub(crate) fn claim(&self) -> Option<Pending> {
        let mut inner = self.lock();
        loop {
            if let Some(pending) = inner.queue.pop_front() {
                return Some(pending);
            }
            if inner.closed {
                return None;
            }
            inner = self.nonempty.wait(inner).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tag: f32) -> Job {
        Job { query: vec![tag], k: 1, enqueued: Instant::now() }
    }

    /// Claim one request; its tag.
    fn claim_tag(b: &Batcher) -> Option<f32> {
        b.claim().map(|p| p.job.query[0])
    }

    fn assert_overloaded(b: &Batcher, tag: f32, want: (usize, usize)) {
        match b.submit(job(tag)) {
            Err(ServeError::Overloaded { depth, capacity }) => assert_eq!((depth, capacity), want),
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn admission_counts_every_unclaimed_request_and_recovers_after_a_claim() {
        let b = Batcher::new(2);
        let _rx0 = b.submit(job(0.0)).unwrap();
        let _rx1 = b.submit(job(1.0)).unwrap();
        assert_eq!(b.depth(), 2);
        // Third arrival meets the shedding threshold.
        assert_overloaded(&b, 2.0, (2, 2));
        assert_eq!(b.depth(), 2, "a shed request must not occupy the queue");
        // A claim frees exactly one slot: the request it did not take
        // still counts against the capacity.
        assert_eq!(claim_tag(&b), Some(0.0));
        assert_eq!(b.depth(), 1);
        let _rx3 = b.submit(job(3.0)).unwrap();
        assert_overloaded(&b, 4.0, (2, 2));
        assert_eq!(claim_tag(&b), Some(1.0));
        assert_eq!(claim_tag(&b), Some(3.0));
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let b = Batcher::new(0);
        assert!(matches!(b.submit(job(0.0)), Err(ServeError::Overloaded { .. })));
    }

    #[test]
    fn claims_pop_one_request_at_a_time_in_fifo_order() {
        let b = Batcher::new(16);
        let _rxs: Vec<_> = (0..5).map(|i| b.submit(job(i as f32)).unwrap()).collect();
        for i in 0..5 {
            assert_eq!(claim_tag(&b), Some(i as f32));
            assert_eq!(b.depth(), 4 - i);
        }
    }

    #[test]
    fn close_drains_leftovers_then_signals_exit() {
        let b = Batcher::new(16);
        let _rx0 = b.submit(job(0.0)).unwrap();
        let _rx1 = b.submit(job(1.0)).unwrap();
        assert_eq!(claim_tag(&b), Some(0.0));
        b.close();
        assert!(matches!(b.submit(job(2.0)), Err(ServeError::ShuttingDown)));
        assert_eq!(claim_tag(&b), Some(1.0), "leftover must still be claimed");
        assert_eq!(claim_tag(&b), None, "drained close exits");
    }
}
