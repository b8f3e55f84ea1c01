//! The admission queue + micro-batching core.
//!
//! [`Batcher`] is the handshake between many submitting clients and
//! the service's pool of serve workers:
//!
//! * **submit side** — bounded: a request that finds `queue_capacity`
//!   entries already queued is shed with a typed
//!   [`ServeError::Overloaded`] instead of being buffered, so queue
//!   wait (and therefore tail latency) stays bounded under overload.
//! * **worker side** — [`Batcher::claim`] hands a worker the next
//!   request of the batch drained last; once it is used up, it waits
//!   for work, optionally holds a deadline-aware coalescing window
//!   (`max_wait`, anchored at the oldest request's arrival) open for
//!   co-arrivals, and drains whatever accumulated (up to `max_batch`)
//!   as the next batch, whose size every request of it reports.
//!
//! The batcher is deliberately free of search logic — `crates/serve`'s
//! [`crate::Service`] owns the index and the worker threads — so the
//! admission/batch policy is testable (and loom-modelable) in
//! isolation.

use crate::error::ServeError;
use cagra::search::planner::Mode;
use knn::topk::Neighbor;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One admitted request, as a serve worker sees it.
#[derive(Clone, Debug)]
pub struct Job {
    /// The query vector (validated to the index dimension at
    /// admission).
    pub query: Vec<f32>,
    /// Results requested (validated against params/dataset at
    /// admission).
    pub k: usize,
    /// Admission timestamp — the anchor for the coalescing deadline,
    /// time-in-queue, and end-to-end latency.
    pub enqueued: Instant,
}

/// How a request was actually served (for clients, tests, and load
/// generators; the same numbers feed the obs histograms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Realized size of the batch this request rode in.
    pub batch_size: u32,
    /// Kernel mapping the request ran with, whatever the batch size:
    /// its backend's [`crate::SearchBackend::mapping`].
    pub mode: Mode,
    /// Per-query CTA count, from the same plan.
    pub num_cta: u32,
    /// Time spent queued before its batch was drained, in nanoseconds.
    pub queue_ns: u64,
    /// Admission-to-response latency, in nanoseconds.
    pub e2e_ns: u64,
}

/// A served request: results plus how they were produced.
#[derive(Clone, Debug)]
pub struct Response {
    /// The `k` nearest neighbors, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Batch/queue metadata.
    pub meta: ResponseMeta,
}

/// Queue entry: the job plus its response channel.
struct Pending {
    job: Job,
    tx: mpsc::Sender<Response>,
}

/// One request handed to a worker by [`Batcher::claim`].
pub(crate) struct Claimed {
    pub(crate) job: Job,
    /// Dropping it unanswered reports [`ServeError::Disconnected`].
    pub(crate) tx: mpsc::Sender<Response>,
    /// Realized size of the batch the request was drained with.
    pub(crate) batch_size: usize,
    /// When that batch was drained (the end of the queue wait).
    pub(crate) dispatched: Instant,
}

struct Inner {
    queue: VecDeque<Pending>,
    /// The unclaimed rest of the batch drained last. A drain moves at
    /// most the queue, so it is sized once, to `capacity`.
    drained: VecDeque<Pending>,
    /// Realized size and drain instant of that batch.
    batch: (usize, Instant),
    closed: bool,
}

/// Bounded queue handing out micro-batches a request at a time.
pub(crate) struct Batcher {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    capacity: usize,
}

impl Batcher {
    pub(crate) fn new(capacity: usize) -> Self {
        Batcher {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                drained: VecDeque::with_capacity(capacity),
                batch: (0, Instant::now()),
                closed: false,
            }),
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

    /// Requests admitted but not yet drained (admission-control
    /// observability).
    pub(crate) fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Stop admitting; wake every worker so they drain and exit.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Hand the caller the next unclaimed request of the batch drained
    /// last. When that batch is used up, block until work exists,
    /// apply the batching policy and drain up to `max_batch` requests
    /// as the next batch. Returns `None` only when the queue is closed
    /// *and* fully drained, i.e. the worker should exit.
    pub(crate) fn claim(&self, max_batch: usize, max_wait: Duration) -> Option<Claimed> {
        let mut inner = self.lock();
        loop {
            if let Some(Pending { job, tx }) = inner.drained.pop_front() {
                let (batch_size, dispatched) = inner.batch;
                return Some(Claimed { job, tx, batch_size, dispatched });
            }
            // Deadline-aware coalescing. The window is anchored at the
            // *oldest* arrival: a backlog that built up while every
            // worker was busy has already aged past its window and
            // drains at once ("batch when loaded"), while a fresh
            // arrival into an idle service waits at most `max_wait`
            // ("dispatch immediately when idle" with the default zero
            // window). `None` means the queue is empty.
            let window = inner.queue.front().map(|p| {
                let deadline = p.job.enqueued + max_wait;
                deadline.checked_duration_since(Instant::now()).unwrap_or(Duration::ZERO)
            });
            match window {
                None if inner.closed => return None,
                None => {
                    inner =
                        self.nonempty.wait(inner).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                Some(remaining)
                    if !remaining.is_zero() && inner.queue.len() < max_batch && !inner.closed =>
                {
                    // Re-evaluated from the top on every wake: another
                    // worker may have drained the queue meanwhile.
                    inner = self
                        .nonempty
                        .wait_timeout(inner, remaining)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0;
                }
                Some(_) => {
                    // Drain the next batch. `drained` is empty and has
                    // room for the whole queue, so this never allocates.
                    let n = inner.queue.len().min(max_batch);
                    let Inner { queue, drained, .. } = &mut *inner;
                    drained.extend(queue.drain(..n));
                    inner.batch = (n, Instant::now());
                    let m = obs::metrics();
                    m.serve_batches.inc();
                    m.serve_batch_size.record(n as u64);
                    for p in &inner.drained {
                        let wait = inner.batch.1.duration_since(p.job.enqueued);
                        m.serve_queue_wait_ns.record(wait.as_nanos() as u64);
                    }
                    if n > 1 {
                        // Idle workers share the rest of the batch.
                        self.nonempty.notify_all();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn job(tag: f32) -> Job {
        Job { query: vec![tag], k: 1, enqueued: Instant::now() }
    }

    /// Claim one request with no window; `(tag, batch_size)`.
    fn claim_now(b: &Batcher, max_batch: usize) -> Option<(f32, usize)> {
        b.claim(max_batch, Duration::ZERO).map(|c| (c.job.query[0], c.batch_size))
    }

    #[test]
    fn admission_sheds_at_capacity_and_recovers_after_drain() {
        let b = Batcher::new(2);
        let _rx0 = b.submit(job(0.0)).unwrap();
        let _rx1 = b.submit(job(1.0)).unwrap();
        assert_eq!(b.depth(), 2);
        // Third arrival meets the shedding threshold.
        match b.submit(job(2.0)) {
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert_eq!((depth, capacity), (2, 2));
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(b.depth(), 2, "a shed request must not occupy the queue");
        // One claim drains the whole batch; admission recovers at once
        // even though the second request is not claimed yet.
        assert_eq!(claim_now(&b, 8), Some((0.0, 2)));
        assert_eq!(b.depth(), 0);
        assert!(b.submit(job(3.0)).is_ok());
        assert_eq!(b.depth(), 1);
        // The drained batch is used up before the next one is drained.
        assert_eq!(claim_now(&b, 8), Some((1.0, 2)));
        assert_eq!(claim_now(&b, 8), Some((3.0, 1)));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let b = Batcher::new(0);
        assert!(matches!(b.submit(job(0.0)), Err(ServeError::Overloaded { .. })));
    }

    #[test]
    fn claim_respects_max_batch_and_fifo_order() {
        let b = Batcher::new(16);
        let _rxs: Vec<_> = (0..5).map(|i| b.submit(job(i as f32)).unwrap()).collect();
        let claims: Vec<_> = (0..5).map_while(|_| claim_now(&b, 3)).collect();
        assert_eq!(claims, vec![(0.0, 3), (1.0, 3), (2.0, 3), (3.0, 2), (4.0, 2)]);
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn a_batch_shares_one_drain_instant() {
        let b = Batcher::new(16);
        let _rxs: Vec<_> = (0..3).map(|i| b.submit(job(i as f32)).unwrap()).collect();
        let claims: Vec<Claimed> = (0..3).map_while(|_| b.claim(8, Duration::ZERO)).collect();
        assert_eq!(claims.len(), 3);
        assert!(claims.iter().all(|c| c.dispatched == claims[0].dispatched && c.batch_size == 3));
        assert!(claims.iter().all(|c| c.job.enqueued <= c.dispatched));
    }

    #[test]
    fn close_drains_leftovers_then_signals_exit() {
        let b = Batcher::new(16);
        let _rx0 = b.submit(job(0.0)).unwrap();
        let _rx1 = b.submit(job(1.0)).unwrap();
        assert_eq!(claim_now(&b, 8), Some((0.0, 2)));
        b.close();
        assert!(matches!(b.submit(job(2.0)), Err(ServeError::ShuttingDown)));
        assert_eq!(claim_now(&b, 8), Some((1.0, 2)), "leftover must still be claimed");
        assert_eq!(claim_now(&b, 8), None, "drained close exits");
    }

    #[test]
    fn coalescing_window_holds_for_co_arrivals() {
        let b = Arc::new(Batcher::new(16));
        let _rx0 = b.submit(job(0.0)).unwrap();
        let late = Arc::clone(&b);
        let feeder = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            late.submit(job(1.0)).map(|_| ())
        });
        // A generous window: the late submitter lands inside it.
        let first = b.claim(8, Duration::from_millis(500)).unwrap();
        feeder.join().unwrap().unwrap();
        assert!(
            first.batch_size == 2 || b.depth() == 1,
            "late arrival either joined the batch or is still queued"
        );
        // Either way the late request is claimed next, reporting the
        // batch it rode in.
        assert_eq!(claim_now(&b, 8), Some((1.0, first.batch_size)));
        // With max_batch already satisfied the window closes early.
        let _rx2 = b.submit(job(2.0)).unwrap();
        let t0 = Instant::now();
        assert_eq!(b.claim(1, Duration::from_secs(5)).map(|c| c.batch_size), Some(1));
        assert!(t0.elapsed() < Duration::from_secs(1), "full batch must not wait the window");
    }
}
