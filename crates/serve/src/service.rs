//! The long-lived query service: admission → bounded FIFO → serve
//! workers claiming one request at a time → per-request responses.

use crate::backend::SearchBackend;
use crate::batcher::{Batcher, Job, Pending, Response, ResponseMeta};
use crate::config::ServeConfig;
use crate::error::ServeError;
use cagra::{SearchParams, SearchScratch};
use knn::parallel::default_threads;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// The pending answer to one admitted request.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Response>,
}

impl ResponseHandle {
    /// Block until a worker answers.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }
}

/// A running serving instance over one search backend (a static
/// [`cagra::CagraIndex`] or a mutable [`cagra::DynamicIndex`]).
/// Submissions are thread-safe; [`ServeConfig::worker_threads`]
/// long-lived serve workers claim and search them. Dropping the service
/// shuts it down (drains the queue, answers what was admitted, joins
/// the workers).
pub struct Service<B: SearchBackend> {
    backend: Arc<B>,
    batcher: Arc<Batcher>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
}

impl<B: SearchBackend> Service<B> {
    /// Validate `config`, take ownership of `backend`, and start the
    /// serve workers. If the OS refuses one, those already started are
    /// stopped and joined before [`ServeError::SpawnFailed`] returns.
    pub fn start(backend: B, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let backend = Arc::new(backend);
        let batcher = Arc::new(Batcher::new(config.queue_capacity));
        let count =
            if config.worker_threads == 0 { default_threads() } else { config.worker_threads };
        let mut service = Service { backend, batcher, config, workers: Vec::with_capacity(count) };
        for i in 0..count {
            let backend = Arc::clone(&service.backend);
            let batcher = Arc::clone(&service.batcher);
            let worker = std::thread::Builder::new()
                .name(format!("cagra-serve-{i}"))
                .spawn(move || worker_loop(&*backend, &batcher, &config.params));
            // On failure, dropping `service` closes the batcher and
            // joins the workers started so far.
            service.workers.push(worker.map_err(|_| ServeError::SpawnFailed)?);
        }
        Ok(service)
    }

    /// The backend being served.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The policy this service runs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Admitted requests that no worker has claimed yet.
    pub fn queue_depth(&self) -> usize {
        self.batcher.depth()
    }

    /// Validate the request shape, then admit. Returns the handle the
    /// response arrives on, or a typed rejection ([`ServeError::Invalid`]
    /// for malformed shapes, [`ServeError::Overloaded`] when shed).
    ///
    /// Validation runs on every submit, against the backend as it is
    /// now; it is O(1) on both backends (a few compares on a static
    /// index, one snapshot load on a dynamic one).
    pub fn submit(&self, query: &[f32], k: usize) -> Result<ResponseHandle, ServeError> {
        if let Err(e) = self.backend.validate_shape(query.len(), k, &self.config.params) {
            obs::metrics().serve_invalid.inc();
            return Err(ServeError::Invalid(e));
        }
        // ALLOW(alloc): admission copies the query exactly once — the
        // queued job must own its vector to outlive the caller.
        let job = Job { query: query.to_vec(), k, enqueued: Instant::now() };
        self.batcher.submit(job).map(|rx| ResponseHandle { rx })
    }

    /// Submit and wait — the closed-loop client call.
    pub fn search_blocking(&self, query: &[f32], k: usize) -> Result<Response, ServeError> {
        self.submit(query, k)?.wait()
    }

    /// Add a vector through the backend (mutable backends only).
    /// Mutations bypass the queue: the backend serializes writers
    /// itself.
    pub fn insert(&self, vector: &[f32]) -> Result<u32, ServeError> {
        self.backend.insert(vector)
    }

    /// Tombstone an id through the backend (mutable backends only).
    /// `Ok(false)` means the id was not live.
    pub fn delete(&self, id: u32) -> Result<bool, ServeError> {
        self.backend.delete(id)
    }

    /// Stop admitting, drain the queue (every admitted request is
    /// still answered), and join the workers. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.batcher.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<B: SearchBackend> Drop for Service<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A fresh scratch for the serve path, which records no trace.
fn untraced_scratch() -> SearchScratch {
    let mut scratch = SearchScratch::new();
    scratch.set_record_trace(false);
    scratch
}

/// One serve worker: claim a request, search it on this worker's
/// scratch, answer. Runs until the queue is closed and drained.
///
/// Every request runs the backend's plan for the service's parameters
/// ([`SearchBackend::mapping`]: multi-CTA with `num_cta` on a static
/// index), so its answer depends on the request alone, never on how
/// busy the service is. The worker owns one [`SearchScratch`] for the
/// life of the service, so the search working set (the visited table:
/// 4 bytes per indexed vector) is shaped once rather than allocated and
/// page-faulted per request. A panicking search answers nothing — its
/// caller sees [`ServeError::Disconnected`] — and the worker carries on
/// with a fresh scratch in place of the one the panic left behind.
fn worker_loop<B: SearchBackend>(backend: &B, batcher: &Batcher, params: &SearchParams) {
    let mut scratch = untraced_scratch();
    let (mode, num_cta) = backend.mapping(params);
    while let Some(Pending { job, tx }) = batcher.claim() {
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        obs::metrics().serve_queue_wait_ns.record(queue_ns);
        // No validation here: every job passed shape validation at
        // admission, so the hot path goes straight to the kernels.
        // (A mutable backend's search is clamped, so even a shape
        // staled by a concurrent delete degrades instead of failing.)
        let searched = catch_unwind(AssertUnwindSafe(|| {
            backend.search(&job.query, job.k, params, &mut scratch)
        }));
        let Ok(neighbors) = searched else {
            drop(tx);
            scratch = untraced_scratch();
            continue;
        };
        let e2e_ns = job.enqueued.elapsed().as_nanos() as u64;
        obs::metrics().serve_e2e_latency_ns.record(e2e_ns);
        let meta = ResponseMeta { batch_size: 1, mode, num_cta: num_cta as u32, queue_ns, e2e_ns };
        // A gone client (dropped handle / closed socket) is not an
        // error for the service.
        let _ = tx.send(Response { neighbors, meta });
    }
}
