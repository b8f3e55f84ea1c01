//! End-to-end serving semantics:
//!
//! * **Parity** — results served through the service are
//!   bit-identical to direct multi-CTA `search_mode` calls under the
//!   service's parameters, no matter how much was queued: each of 48
//!   requests queued behind a held worker gets the bits it gets alone.
//! * **Exactly-once** — N concurrent client threads each get exactly
//!   one response per request.
//! * **Admission control** — typed `Overloaded` rejection, accurate
//!   queue-depth reporting, recovery after a claim (the queue-level
//!   legs live in `batcher.rs`; here the service-level surface).
//! * **Queue wait** — `queue_ns` runs until a worker claims the
//!   request, so it covers the wait for a free worker.
//! * **Validation** — a malformed request is rejected with the
//!   underlying `SearchError` without poisoning the queue.
//! * **TCP** — the same contract holds across the wire protocol.
//! * **Worker pool** — each serve worker's `SearchScratch` outlives
//!   every request; a scratch recycled across bursts of every size and
//!   from `k` to `k`, with rerank, serves the same bits as a fresh one.
//!   Lone requests and queued ones search on different workers at
//!   once, and a panicking search answers its own caller with
//!   `Disconnected` without stranding later requests.

use cagra::search::planner::Mode;
use cagra::{CagraIndex, GraphConfig, SearchError, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use knn::topk::Neighbor;
use serve::{Client, Response, SearchBackend, ServeConfig, ServeError, Service, TcpServer};
use std::collections::{BTreeMap, HashSet};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

const K: usize = 10;

fn build_index() -> (CagraIndex<Dataset>, Dataset) {
    let spec = SynthSpec { dim: 12, n: 900, queries: 64, family: Family::Gaussian, seed: 42 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    (index, queries)
}

/// Recompute the reference result for one served response: same
/// query, same params, multi-CTA — the one plan the service runs, which
/// the response must report. The service guarantees results depend
/// only on these — never on what else was queued.
fn reference(
    index: &CagraIndex<Dataset>,
    params: &SearchParams,
    query: &[f32],
    resp: &Response,
) -> Vec<Neighbor> {
    assert_eq!((resp.meta.mode, resp.meta.num_cta as usize), (Mode::MultiCta, params.num_cta));
    index.search_mode(query, K, params, Mode::MultiCta).0
}

fn assert_bit_identical(served: &[Neighbor], fresh: &[Neighbor], label: &str) {
    assert_eq!(served.len(), fresh.len(), "{label}: result count");
    for (rank, (s, f)) in served.iter().zip(fresh).enumerate() {
        assert_eq!(s.id, f.id, "{label}: rank {rank} id");
        assert_eq!(s.dist.to_bits(), f.dist.to_bits(), "{label}: rank {rank} distance bits");
    }
}

#[test]
fn concurrent_clients_get_exactly_one_bit_identical_response_each() {
    let (index, queries) = build_index();
    let params = SearchParams::for_k(K);
    let config = ServeConfig::new(params);
    let service = Arc::new(Service::start(index, config).expect("start service"));

    const CLIENTS: usize = 8;
    let per_client = queries.len() / CLIENTS;
    let responses: Vec<(usize, Response)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = Arc::clone(&service);
                let queries = &queries;
                s.spawn(move || {
                    let mut got = Vec::with_capacity(per_client);
                    for qi in (c * per_client)..((c + 1) * per_client) {
                        let resp =
                            service.search_blocking(queries.row(qi), K).expect("request served");
                        got.push((qi, resp));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    // Exactly one response per request, covering every query index.
    assert_eq!(responses.len(), CLIENTS * per_client);
    let mut seen: Vec<usize> = responses.iter().map(|(qi, _)| *qi).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..CLIENTS * per_client).collect::<Vec<_>>());

    // Bit-identical to a direct multi-CTA search, whatever else was
    // queued.
    for (qi, resp) in &responses {
        assert_eq!(resp.meta.batch_size, 1);
        assert!(resp.meta.queue_ns <= resp.meta.e2e_ns, "queue time exceeds end-to-end");
        let fresh = reference(service.backend(), &params, queries.row(*qi), resp);
        assert_bit_identical(&resp.neighbors, &fresh, &format!("query {qi}"));
    }
}

/// An answer does not depend on how busy the service is: 48 requests
/// queued behind a held worker each get the bits the same query gets
/// served alone — and gets from a direct multi-CTA search under the
/// service's parameters.
#[test]
fn requests_queued_behind_a_held_worker_get_the_bits_they_get_alone() {
    const QUEUED: usize = 48;
    let (index, queries) = build_index();
    let copy = CagraIndex::from_parts(
        Dataset::from_flat(index.store().as_flat().to_vec(), index.store().dim()),
        index.graph().clone(),
        index.metric(),
    );
    let params = SearchParams::for_k(K);
    let mut config = ServeConfig::new(params);
    config.worker_threads = 1;
    let alone = Service::start(copy, config).expect("start service");
    let busy = Service::start(Probe::new(index, 2), config).expect("start service");

    let held = busy.submit(queries.row(QUEUED), K).expect("admitted");
    assert_eq!(busy.backend().wait_entered(1), 1, "the held request never reached its search");
    let handles: Vec<_> =
        (0..QUEUED).map(|qi| busy.submit(queries.row(qi), K).expect("admitted")).collect();
    assert_eq!(busy.queue_depth(), QUEUED);
    busy.backend().release();
    held.wait().expect("served");
    for (qi, handle) in handles.into_iter().enumerate() {
        let queued = handle.wait().expect("served");
        let lone = alone.search_blocking(queries.row(qi), K).expect("served");
        for meta in [queued.meta, lone.meta] {
            assert_eq!(meta.batch_size, 1);
            assert_eq!((meta.mode, meta.num_cta as usize), (Mode::MultiCta, params.num_cta));
        }
        let label = format!("query {qi}: queued behind {qi} others vs alone");
        assert_bit_identical(&queued.neighbors, &lone.neighbors, &label);
        let mut fresh = SearchScratch::new();
        let ix = &busy.backend().index;
        ix.search_mode_with(queries.row(qi), K, &params, Mode::MultiCta, &mut fresh);
        assert_bit_identical(&queued.neighbors, fresh.results(), &format!("query {qi}"));
    }
}

/// Queue wait ends when a worker claims the request, not earlier: with
/// one worker, B queued behind A waits out all of A's search.
#[test]
fn queue_wait_runs_until_a_worker_claims_the_request() {
    let (service, queries) = probe_service(|ix| Probe { slow_k: SLOW_K, ..Probe::new(ix, 2) }, 1);
    let held = service.submit(queries.row(0), K).expect("admitted");
    assert_eq!(service.backend().wait_entered(1), 1, "the held request never reached its search");
    let a = service.submit(queries.row(1), SLOW_K).expect("admitted");
    let b = service.submit(queries.row(2), K).expect("admitted");
    service.backend().release();
    held.wait().expect("served");
    let (a, b) = (a.wait().expect("served"), b.wait().expect("served"));
    // A's search: from its claim to its answer.
    let a_search = a.meta.e2e_ns - a.meta.queue_ns;
    assert!(a_search >= SLOW.as_nanos() as u64, "A's search took {a_search} ns");
    assert!(
        b.meta.queue_ns > a_search,
        "B waited {} ns in the queue, less than A's {a_search} ns search",
        b.meta.queue_ns
    );
}

/// A service whose one worker is held inside a search (a rendezvous
/// of two that only [`Probe::release`] fills) in front of a one-deep
/// queue, with one request searching and one queued: the next submit
/// meets a full queue.
fn full_service() -> (Service<Probe>, Dataset, Vec<serve::ResponseHandle>) {
    let (index, queries) = build_index();
    let mut config = ServeConfig::new(SearchParams::for_k(K));
    config.worker_threads = 1;
    config.queue_capacity = 1;
    let service = Service::start(Probe::new(index, 2), config).expect("start service");
    let held = service.submit(queries.row(0), K).expect("admitted");
    assert_eq!(service.backend().wait_entered(1), 1, "request 1 never reached its search");
    let queued = service.submit(queries.row(1), K).expect("admitted into the free slot");
    (service, queries, vec![held, queued])
}

#[test]
fn overload_is_typed_and_the_service_reports_queue_depth() {
    let (service, queries, admitted) = full_service();
    assert_eq!(service.queue_depth(), 1);
    match service.submit(queries.row(2), K) {
        Err(ServeError::Overloaded { depth, capacity }) => {
            assert_eq!((depth, capacity), (1, 1));
        }
        other => panic!("expected Overloaded, got {:?}", other.err()),
    }
    assert_eq!(service.queue_depth(), 1, "a shed request must not occupy the queue");
    // Recovery: the admitted requests are answered and the
    // freed slot admits again.
    service.backend().release();
    for handle in admitted {
        assert_eq!(handle.wait().expect("served").neighbors.len(), K);
    }
    assert_eq!(service.search_blocking(queries.row(2), K).expect("served").neighbors.len(), K);
}

#[test]
fn malformed_requests_are_rejected_without_poisoning_the_batcher() {
    let (index, queries) = build_index();
    let params = SearchParams::for_k(K);
    let service = Service::start(index, ServeConfig::new(params)).expect("start service");

    // Wrong dimension, k = 0, k > itopk: all typed, none admitted.
    match service.submit(&[1.0, 2.0], K) {
        Err(ServeError::Invalid(SearchError::DimMismatch { expected, got })) => {
            assert_eq!((expected, got), (12, 2));
        }
        other => panic!("expected DimMismatch, got {:?}", other.err()),
    }
    assert!(matches!(
        service.submit(queries.row(0), 0),
        Err(ServeError::Invalid(SearchError::ZeroK))
    ));
    assert!(matches!(
        service.submit(queries.row(0), params.itopk + 1),
        Err(ServeError::Invalid(SearchError::KExceedsItopk { .. }))
    ));
    assert_eq!(service.queue_depth(), 0, "rejected requests must never enter the queue");

    // The queue is not poisoned: valid traffic is still served
    // correctly after the rejections.
    let resp = service.search_blocking(queries.row(0), K).expect("service still healthy");
    let fresh = reference(service.backend(), &params, queries.row(0), &resp);
    assert_bit_identical(&resp.neighbors, &fresh, "post-rejection request");
}

#[test]
fn dropped_response_handles_do_not_wedge_the_workers() {
    let (index, queries) = build_index();
    let service = Service::start(index, ServeConfig::new(SearchParams::for_k(K))).unwrap();
    drop(service.submit(queries.row(0), K).expect("admitted"));
    // The workers must shrug off the gone client and keep serving.
    let resp = service.search_blocking(queries.row(1), K).expect("served");
    assert_eq!(resp.neighbors.len(), K);
}

#[test]
fn tcp_round_trip_matches_in_process_results() {
    let (index, queries) = build_index();
    let params = SearchParams::for_k(K);
    let service = Arc::new(Service::start(index, ServeConfig::new(params)).unwrap());
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Several connections in parallel, each a sequential client.
    let responses: Vec<(usize, Response)> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let queries = &queries;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (0..8)
                        .map(|i| {
                            let qi = c * 8 + i;
                            (qi, client.search(queries.row(qi), K).expect("served over TCP"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("tcp client thread")).collect()
    });
    assert_eq!(responses.len(), 32);
    for (qi, resp) in &responses {
        let fresh = reference(service.backend(), &params, queries.row(*qi), resp);
        assert_bit_identical(&resp.neighbors, &fresh, &format!("tcp query {qi}"));
    }

    // Typed rejections survive the wire: wrong dim and k = 0 come back
    // as Invalid, and the connection stays usable afterwards.
    let mut client = Client::connect(addr).expect("connect");
    let err = client.search(&[0.0; 3], K).expect_err("wrong dim must be rejected");
    match &err {
        serve::ClientError::Rejected { status, message } => {
            assert_eq!(*status, serve::proto::Status::Invalid);
            assert!(message.contains("dimension"), "unhelpful reject message: {message}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(!err.is_overloaded());
    let err = client.search(queries.row(0), 0).expect_err("k = 0 must be rejected");
    assert!(matches!(
        err,
        serve::ClientError::Rejected { status: serve::proto::Status::Invalid, .. }
    ));
    let resp = client.search(queries.row(0), K).expect("connection survives rejections");
    assert_eq!(resp.neighbors.len(), K);
}

/// A sequential client must not pay a Nagle / delayed-ACK stall per
/// request: without `TCP_NODELAY` on the accepted socket and with the
/// frame prefix written separately, each round trip took ~44 ms on
/// loopback (200 of them ≈ 8.8 s).
#[test]
fn sequential_tcp_round_trips_are_not_held_by_nagle() {
    let spec = SynthSpec { dim: 12, n: 300, queries: 8, family: Family::Gaussian, seed: 7 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let service =
        Arc::new(Service::start(index, ServeConfig::new(SearchParams::for_k(K))).unwrap());
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let t0 = std::time::Instant::now();
    for i in 0..200 {
        let resp = client.search(queries.row(i % queries.len()), K).expect("served over TCP");
        assert_eq!(resp.neighbors.len(), K);
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(4), "200 sequential round trips took {took:?}");
}

#[test]
fn tcp_overload_maps_to_the_overloaded_status() {
    let (service, _queries, admitted) = full_service();
    let service = Arc::new(service);
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client.search(&[0.0; 12], K).expect_err("a full queue sheds the request");
    assert!(err.is_overloaded(), "expected Overloaded over the wire, got {err:?}");
    service.backend().release();
    for handle in admitted {
        handle.wait().expect("served");
    }
}

#[test]
fn pq_backed_service_serves_two_phase_exact_distances() {
    // A compressed (PQ) index served with rerank enabled must return
    // exact full-precision distances — the serving layer's hot path
    // runs phase two transparently via `search_mode_with`.
    let spec = SynthSpec { dim: 12, n: 900, queries: 16, family: Family::Gaussian, seed: 42 };
    let (base, queries) = spec.generate();
    let pq_store = dataset::pq::build(&base, &dataset::pq::PqConfig::new(4));
    let (graph, _) = cagra::build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
    let index = CagraIndex::from_parts(pq_store, graph, Metric::SquaredL2);

    // Without a rerank source, a rerank-enabled config is rejected at
    // admission with the typed error.
    let mut params = SearchParams::for_k(K);
    params.itopk = 128;
    params.rerank_depth = 64;
    let service = Service::start(index, ServeConfig::new(params)).expect("start service");
    match service.submit(queries.row(0), K) {
        Err(ServeError::Invalid(SearchError::RerankWithoutSource)) => {}
        Err(other) => panic!("expected RerankWithoutSource, got {other:?}"),
        Ok(_) => panic!("expected RerankWithoutSource, got an admitted request"),
    }
    drop(service);

    // Rebuild with the source attached: served distances are exact.
    let pq_store = dataset::pq::build(&base, &dataset::pq::PqConfig::new(4));
    let (graph, _) = cagra::build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
    let mut index = CagraIndex::from_parts(pq_store, graph, Metric::SquaredL2);
    index.set_rerank_store(Box::new(Dataset::from_flat(base.as_flat().to_vec(), base.dim())));
    let service = Service::start(index, ServeConfig::new(params)).expect("start service");
    for qi in 0..queries.len() {
        let resp = service.search_blocking(queries.row(qi), K).expect("served");
        assert_eq!(resp.neighbors.len(), K);
        for n in &resp.neighbors {
            let want = Metric::SquaredL2.distance(queries.row(qi), base.row(n.id as usize));
            assert_eq!(n.dist.to_bits(), want.to_bits(), "query {qi} id {}", n.id);
        }
    }
}

/// The case a recycled scratch could get wrong: one service, one pair
/// of long-lived scratches, and traffic in bursts whose sizes keep
/// changing — lone requests, bursts past the Fig. 7 crossover
/// (`planner::BATCH_THRESHOLD`, where the paper's rule would switch to
/// single-CTA), small bursts in between — with `k = 10` beside `k = 1`
/// and every request followed by the exact rerank pass. Each response
/// must report the one multi-CTA plan and equal `search_mode_with` on a
/// fresh scratch under it, bit for bit.
#[test]
fn a_recycled_scratch_serves_every_shape_bit_identically() {
    const FULL: usize = 112;
    let spec = SynthSpec { dim: 12, n: 900, queries: FULL, family: Family::Gaussian, seed: 42 };
    let (base, queries) = spec.generate();
    let pq_store = dataset::pq::build(&base, &dataset::pq::PqConfig::new(4));
    let (graph, _) = cagra::build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
    let mut index = CagraIndex::from_parts(pq_store, graph, Metric::SquaredL2);
    index.set_rerank_store(Box::new(Dataset::from_flat(base.as_flat().to_vec(), base.dim())));

    let mut params = SearchParams::for_k(K);
    params.itopk = 128;
    params.rerank_depth = 64;
    let mut config = ServeConfig::new(params);
    config.worker_threads = 2;
    let service = Service::start(index, config).expect("start service");

    for (wave, &size) in [1, FULL, 1, 7, FULL, 2].iter().enumerate() {
        let ks: Vec<usize> = (0..size).map(|i| if (wave + i) % 3 == 0 { 1 } else { K }).collect();
        let handles: Vec<_> = ks
            .iter()
            .enumerate()
            .map(|(qi, &k)| service.submit(queries.row(qi), k).expect("admitted"))
            .collect();
        for (qi, (handle, &k)) in handles.into_iter().zip(&ks).enumerate() {
            let resp = handle.wait().expect("served");
            assert_eq!((resp.meta.mode, resp.meta.num_cta as usize), (Mode::MultiCta, 16));
            let mut fresh = SearchScratch::new();
            service.backend().search_mode_with(
                queries.row(qi),
                k,
                &params,
                Mode::MultiCta,
                &mut fresh,
            );
            assert_eq!(resp.neighbors.len(), k);
            let label = format!("wave {wave} query {qi} k {k}");
            assert_bit_identical(&resp.neighbors, fresh.results(), &label);
        }
    }
}

/// How long a rendezvous search waits for company before giving up.
const RENDEZVOUS: Duration = Duration::from_secs(5);

/// The `k` whose searches a [`Probe`] built with `slow_k: SLOW_K`
/// stretches by [`SLOW`].
const SLOW_K: usize = K - 1;
const SLOW: Duration = Duration::from_millis(100);

#[derive(Default)]
struct ProbeState {
    /// Searches currently inside `search`.
    in_flight: usize,
    /// Most searches seen inside `search` at once since the last
    /// `take`.
    peak: usize,
    /// Per finished search: the thread that ran it, the scratch it was
    /// given, and whether that scratch had served before.
    seen: Vec<(thread::ThreadId, usize, bool)>,
}

/// A backend whose searches meet: each one waits (up to
/// [`RENDEZVOUS`]) until `meet` searches have been in flight at once,
/// so a test can tell a pool that runs requests side by side from one
/// that runs them in turn. It also panics on `k == panic_k` and sleeps
/// [`SLOW`] on `k == slow_k` (0, the default, never reaches a search:
/// admission refuses `k = 0`).
struct Probe {
    index: CagraIndex<Dataset>,
    meet: usize,
    panic_k: usize,
    slow_k: usize,
    state: Mutex<ProbeState>,
    changed: Condvar,
}

impl Probe {
    fn new(index: CagraIndex<Dataset>, meet: usize) -> Self {
        Probe {
            index,
            meet,
            panic_k: 0,
            slow_k: 0,
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    /// Block until `n` searches have entered (or the rendezvous time
    /// runs out); returns how many had.
    fn wait_entered(&self, n: usize) -> usize {
        let state = self.state.lock().unwrap();
        let (state, _) =
            self.changed.wait_timeout_while(state, RENDEZVOUS, |s| s.in_flight < n).unwrap();
        state.in_flight
    }

    /// Let every waiting search go on, as if the rendezvous had filled.
    fn release(&self) {
        self.state.lock().unwrap().peak = self.meet;
        self.changed.notify_all();
    }

    /// The finished searches and the peak concurrency since the last
    /// call.
    fn take(&self) -> (Vec<(thread::ThreadId, usize, bool)>, usize) {
        let mut state = self.state.lock().unwrap();
        (std::mem::take(&mut state.seen), std::mem::take(&mut state.peak))
    }
}

impl SearchBackend for Probe {
    fn dim(&self) -> usize {
        SearchBackend::dim(&self.index)
    }

    fn validate_shape(&self, dim: usize, k: usize, p: &SearchParams) -> Result<(), SearchError> {
        self.index.validate_shape(dim, k, p)
    }

    fn mapping(&self, params: &SearchParams) -> (Mode, usize) {
        SearchBackend::mapping(&self.index, params)
    }

    fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        scratch: &mut SearchScratch,
    ) -> Vec<Neighbor> {
        assert_ne!(k, self.panic_k, "probe: the flagged request panics its search");
        {
            let mut state = self.state.lock().unwrap();
            state.in_flight += 1;
            state.peak = state.peak.max(state.in_flight);
            self.changed.notify_all();
            let _ = self.changed.wait_timeout_while(state, RENDEZVOUS, |s| s.peak < self.meet);
        }
        if k == self.slow_k {
            thread::sleep(SLOW);
        }
        let neighbors = SearchBackend::search(&self.index, query, k, params, scratch);
        let lent = scratch as *const SearchScratch as usize;
        let mut state = self.state.lock().unwrap();
        state.in_flight -= 1;
        state.seen.push((thread::current().id(), lent, scratch.reused()));
        neighbors
    }
}

/// A service of `workers` serve workers over `probe`'s backend.
fn probe_service(
    probe: impl FnOnce(CagraIndex<Dataset>) -> Probe,
    workers: usize,
) -> (Service<Probe>, Dataset) {
    let (index, queries) = build_index();
    let mut config = ServeConfig::new(SearchParams::for_k(K));
    config.worker_threads = workers;
    (Service::start(probe(index), config).expect("start service"), queries)
}

#[test]
fn a_lone_request_starts_while_another_is_still_searching() {
    let (service, queries) = probe_service(|ix| Probe::new(ix, 2), 2);
    let first = service.submit(queries.row(0), K).expect("admitted");
    assert_eq!(service.backend().wait_entered(1), 1, "request 1 never reached its search");
    let second = service.submit(queries.row(1), K).expect("admitted");
    for (qi, handle) in [first, second].into_iter().enumerate() {
        let resp = handle.wait().expect("served");
        assert_eq!(resp.meta.batch_size, 1, "request {qi} searched alone");
    }
    let (seen, peak) = service.backend().take();
    assert_eq!(seen.len(), 2);
    assert_eq!(peak, 2, "request 2 must search while request 1 is still in its search");
}

#[test]
fn queued_requests_are_shared_by_the_free_workers_on_stable_recycled_scratches() {
    const WAVE: usize = 4;
    let (service, queries) = probe_service(|ix| Probe::new(ix, 2), 2);
    // thread -> the one scratch it searches on, across every wave.
    let mut owner: BTreeMap<usize, thread::ThreadId> = BTreeMap::new();
    for wave in 0..3 {
        let handles: Vec<_> =
            (0..WAVE).map(|qi| service.submit(queries.row(qi), K).expect("admitted")).collect();
        for handle in handles {
            assert_eq!(handle.wait().expect("served").meta.batch_size, 1);
        }
        let (seen, peak) = service.backend().take();
        assert_eq!(seen.len(), WAVE);
        assert_eq!(peak, 2, "wave {wave}: two searches of one wave in flight at once");
        for &(thread, scratch, reused) in &seen {
            assert_eq!(
                *owner.entry(scratch).or_insert(thread),
                thread,
                "wave {wave}: shared scratch"
            );
            assert!(reused || wave == 0, "wave {wave}: a fresh scratch, not a recycled one");
        }
    }
    let threads: HashSet<_> = owner.values().collect();
    assert_eq!(owner.len(), 2, "one scratch per worker across waves: {owner:?}");
    assert_eq!(threads.len(), 2, "one worker per scratch across waves: {owner:?}");
}

#[test]
fn a_panicking_search_answers_disconnected_and_the_worker_keeps_serving() {
    let (service, queries) = probe_service(|ix| Probe { panic_k: 3, ..Probe::new(ix, 1) }, 1);
    let service = Arc::new(service);

    let (tx, rx) = mpsc::channel();
    let helper = {
        let service = Arc::clone(&service);
        thread::spawn(move || {
            let flagged = service.search_blocking(queries.row(0), 3).map(|_| ());
            let _ = tx.send(flagged);
            let next = service.search_blocking(queries.row(1), K).map(|r| r.neighbors.len());
            let _ = tx.send(next.map(|_| ()));
        })
    };
    let flagged = rx.recv_timeout(RENDEZVOUS).expect("the flagged request was never answered");
    assert_eq!(flagged, Err(ServeError::Disconnected));
    let next = rx.recv_timeout(RENDEZVOUS).expect("a request after the panic was stranded");
    assert_eq!(next, Ok(()));
    helper.join().expect("helper thread");
}
