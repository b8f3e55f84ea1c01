//! The long-lived query service: admission → micro-batch → parallel
//! search → per-request responses.

use crate::backend::SearchBackend;
use crate::batcher::{Batcher, Job, Response, ResponseMeta};
use crate::config::ServeConfig;
use crate::error::ServeError;
use cagra::search::planner;
use cagra::SearchScratch;
use knn::parallel::{default_threads, parallel_map_lent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The pending answer to one admitted request.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Response>,
}

impl ResponseHandle {
    /// Block until the dispatcher answers.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }
}

/// Cache of request shapes that already passed
/// [`SearchBackend::validate_shape`], keyed on the backend's
/// publication epoch. With per-service [`cagra::SearchParams`], a
/// shape is fully determined by `(epoch, k)`, so repeat traffic skips
/// parameter validation entirely — validation runs once per shape per
/// epoch at admission, never per batch dispatch.
///
/// The epoch key is what keeps the cache honest against mutable
/// backends: a [`cagra::DynamicIndex`] bumps its epoch on every
/// insert, delete, and compaction swap, and `k <= live` can go stale
/// across any of those. A validated shape from epoch `e` is worthless
/// at epoch `e+1`, so the first request after a swap clears the cache
/// and revalidates. Static backends report a constant epoch and cache
/// forever, exactly as before.
struct ShapeCache {
    /// `(epoch the cached shapes were validated against, valid ks)`.
    ks: Mutex<(u64, Vec<usize>)>,
    misses: AtomicU64,
}

impl ShapeCache {
    fn new() -> Self {
        ShapeCache { ks: Mutex::new((0, Vec::new())), misses: AtomicU64::new(0) }
    }

    fn contains(&self, epoch: u64, k: usize) -> bool {
        let mut g = self.ks.lock().unwrap_or_else(|p| p.into_inner());
        if g.0 != epoch {
            g.0 = epoch;
            g.1.clear();
            return false;
        }
        g.1.contains(&k)
    }

    fn insert(&self, epoch: u64, k: usize) {
        let mut g = self.ks.lock().unwrap_or_else(|p| p.into_inner());
        if g.0 != epoch {
            // A mutation landed between validation and this insert;
            // drop the stale generation rather than poison the new one.
            g.0 = epoch;
            g.1.clear();
        }
        if !g.1.contains(&k) {
            g.1.push(k);
        }
    }
}

/// A running serving instance over one search backend (a static
/// [`cagra::CagraIndex`] or a mutable [`cagra::DynamicIndex`]).
/// Submissions are thread-safe; one background dispatcher thread owns
/// batching and search execution. Dropping the service shuts it down
/// (drains the queue, answers what was admitted, joins the
/// dispatcher).
pub struct Service<B: SearchBackend> {
    backend: Arc<B>,
    batcher: Arc<Batcher>,
    config: ServeConfig,
    shapes: ShapeCache,
    dispatcher: Option<JoinHandle<()>>,
}

impl<B: SearchBackend> Service<B> {
    /// Validate `config`, take ownership of `backend`, and start the
    /// dispatcher thread.
    pub fn start(backend: B, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let backend = Arc::new(backend);
        let batcher = Arc::new(Batcher::new(config.queue_capacity));
        let dispatcher = {
            let backend = Arc::clone(&backend);
            let batcher = Arc::clone(&batcher);
            std::thread::Builder::new()
                .name("cagra-serve-dispatch".into())
                .spawn(move || dispatch_loop(&*backend, &batcher, &config))
                .map_err(|_| ServeError::SpawnFailed)?
        };
        Ok(Service {
            backend,
            batcher,
            config,
            shapes: ShapeCache::new(),
            dispatcher: Some(dispatcher),
        })
    }

    /// The backend being served.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The policy this service runs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.batcher.depth()
    }

    /// How many times admission had to run full shape validation
    /// (cache misses). Repeat traffic of one shape against one epoch
    /// costs exactly one.
    pub fn shape_cache_misses(&self) -> u64 {
        self.shapes.misses.load(Ordering::Relaxed)
    }

    /// Validate-or-reuse the request shape, then admit. Returns the
    /// handle the response arrives on, or a typed rejection
    /// ([`ServeError::Invalid`] for malformed shapes,
    /// [`ServeError::Overloaded`] when shed).
    pub fn submit(&self, query: &[f32], k: usize) -> Result<ResponseHandle, ServeError> {
        let epoch = self.backend.epoch();
        if !(self.shapes.contains(epoch, k) && query.len() == self.backend.dim()) {
            self.shapes.misses.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = self.backend.validate_shape(query.len(), k, &self.config.params) {
                obs::metrics().serve_invalid.inc();
                return Err(ServeError::Invalid(e));
            }
            self.shapes.insert(epoch, k);
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
    /// Mutations bypass the batcher: the backend serializes writers
    /// itself, and the resulting epoch bump invalidates the shape
    /// cache on the next submit.
    pub fn insert(&self, vector: &[f32]) -> Result<u32, ServeError> {
        self.backend.insert(vector)
    }

    /// Tombstone an id through the backend (mutable backends only).
    /// `Ok(false)` means the id was not live.
    pub fn delete(&self, id: u32) -> Result<bool, ServeError> {
        self.backend.delete(id)
    }

    /// Stop admitting, drain the queue (every admitted request is
    /// still answered), and join the dispatcher. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.batcher.close();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl<B: SearchBackend> Drop for Service<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher: pop a micro-batch, plan the search configuration
/// from the realized batch size, fan the batch out over worker
/// threads, answer every request. Runs until the batcher is closed
/// and drained.
///
/// The dispatcher owns one [`SearchScratch`] per worker slot for the
/// life of the service and lends them to each batch, so the search
/// working set (up to a 2 MiB visited table in the multi-CTA plan) is
/// shaped once rather than allocated and page-faulted per request.
fn dispatch_loop<B: SearchBackend>(backend: &B, batcher: &Batcher, config: &ServeConfig) {
    let worker_cap =
        if config.worker_threads == 0 { default_threads() } else { config.worker_threads };
    let untraced = |_| {
        let mut scratch = SearchScratch::new();
        scratch.set_record_trace(false);
        scratch
    };
    // ALLOW(alloc): one-time setup before the loop; each scratch is
    // recycled by every batch its worker slot serves.
    let mut scratches: Vec<SearchScratch> = (0..worker_cap).map(untraced).collect();
    // ALLOW(alloc): one-time setup before the loop; both buffers are
    // drained and reused across every batch, never reallocated.
    let mut jobs: Vec<Job> = Vec::with_capacity(config.max_batch);
    // ALLOW(alloc): same one-time reused buffer as `jobs` above.
    let mut txs: Vec<mpsc::Sender<Response>> = Vec::with_capacity(config.max_batch);
    while batcher.pop_batch(config.max_batch, config.max_wait, &mut jobs, &mut txs) {
        let dispatched = Instant::now();
        let plan = planner::plan(jobs.len(), config.params.itopk, config.params.num_cta);
        let mut params = config.params;
        params.num_cta = plan.num_cta;
        let m = obs::metrics();
        m.serve_batches.inc();
        m.serve_batch_size.record(jobs.len() as u64);
        for job in &jobs {
            m.serve_queue_wait_ns.record(dispatched.duration_since(job.enqueued).as_nanos() as u64);
        }
        // No validation here: every job passed shape validation at
        // admission, so the hot path goes straight to the kernels.
        // (A mutable backend's search is clamped, so even a shape
        // staled by a concurrent delete degrades instead of failing.)
        let jobs_ref = &jobs;
        // `min(batch, worker_cap)` workers; a batch of one runs here.
        let results = parallel_map_lent(jobs_ref.len(), &mut scratches, |scratch, i| {
            // ALLOW(panic): `parallel_map_lent` hands out `i` in
            // `0..jobs_ref.len()` by contract.
            let job = &jobs_ref[i];
            backend.search(&job.query, job.k, &params, plan.mode, scratch)
        });
        let batch_size = jobs.len() as u32;
        for ((job, tx), neighbors) in jobs.drain(..).zip(txs.drain(..)).zip(results) {
            let queue_ns = dispatched.duration_since(job.enqueued).as_nanos() as u64;
            let e2e_ns = job.enqueued.elapsed().as_nanos() as u64;
            m.serve_e2e_latency_ns.record(e2e_ns);
            // A gone client (dropped handle / closed socket) is not an
            // error for the service.
            let _ = tx.send(Response {
                neighbors,
                meta: ResponseMeta {
                    batch_size,
                    mode: plan.mode,
                    num_cta: plan.num_cta as u32,
                    queue_ns,
                    e2e_ns,
                },
            });
        }
    }
}
