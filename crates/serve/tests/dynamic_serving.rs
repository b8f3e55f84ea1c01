//! Serving a mutable backend (ISSUE 10):
//!
//! * **Shape-cache staleness** — the regression this PR fixes: a `k`
//!   validated against one epoch must be revalidated after any
//!   mutation, because a delete can shrink the live set below it. The
//!   cache is keyed on the backend epoch, so the first submit after a
//!   swap takes a miss and the stale shape is refused with the typed
//!   `SearchError` instead of silently served.
//! * **Mutations over TCP** — `OP_INSERT`/`OP_DELETE` round-trip
//!   through the wire protocol: inserts surface in subsequent
//!   searches, deletes disappear immediately, acks carry the id /
//!   found flag.
//! * **Static backends refuse mutations** — a `CagraIndex` service
//!   answers `Status::Unsupported` rather than panicking or lying.

use cagra::{CagraIndex, DynamicIndex, DynamicParams, GraphConfig, SearchError, SearchParams};
use dataset::synth::{Family, SynthSpec};
use dataset::Dataset;
use distance::Metric;
use serve::proto::Status;
use serve::tcp::ClientError;
use serve::{Client, ServeConfig, ServeError, Service, TcpServer};
use std::sync::Arc;

const DIM: usize = 8;

fn dynamic_index(n: usize) -> DynamicIndex {
    let mut params = DynamicParams::new(8);
    params.auto_compact = false;
    let ix = DynamicIndex::new(DIM, Metric::SquaredL2, params);
    let spec = SynthSpec { dim: DIM, n, queries: 0, family: Family::Gaussian, seed: 7 };
    let (pool, _) = spec.generate();
    for i in 0..n {
        ix.insert(pool.row(i)).expect("seed insert");
    }
    ix
}

#[test]
fn stale_shape_cache_is_invalidated_by_the_epoch_bump() {
    let ix = dynamic_index(20);
    let service =
        Service::start(ix, ServeConfig::new(SearchParams::for_k(10))).expect("start service");
    let q = [0.25f32; DIM];

    // k = 10 against 20 live rows: valid, and the shape caches — the
    // second request must not revalidate.
    let first = service.search_blocking(&q, 10).expect("first search");
    assert_eq!(first.neighbors.len(), 10);
    // The dynamic backend reports its own plan, not the service's
    // `num_cta`.
    assert_eq!((first.meta.mode, first.meta.num_cta), (DynamicIndex::MAIN_MODE, 1));
    let misses = service.shape_cache_misses();
    service.search_blocking(&q, 10).expect("cached-shape search");
    assert_eq!(service.shape_cache_misses(), misses, "same epoch + shape must not revalidate");

    // Delete 16 of the 20 rows: live drops to 4 < k and the epoch
    // advances past the cached generation.
    for id in 0..16u32 {
        assert_eq!(service.delete(id), Ok(true), "delete({id})");
    }
    // The cached k = 10 is now a lie. An epoch-blind cache would admit
    // it straight to the hot path; the epoch key forces revalidation,
    // which refuses it with the exact underlying error.
    assert_eq!(
        service.search_blocking(&q, 10).unwrap_err(),
        ServeError::Invalid(SearchError::KExceedsDataset { k: 10, n: 4 }),
        "stale shape must be re-refused after the swap"
    );
    assert!(service.shape_cache_misses() > misses, "the stale shape must cost a miss");

    // A shape that fits the shrunken live set validates and serves.
    assert_eq!(service.search_blocking(&q, 4).expect("post-swap search").neighbors.len(), 4);
}

#[test]
fn mutations_round_trip_over_tcp_and_searches_see_them_immediately() {
    let ix = dynamic_index(40);
    let service = Arc::new(
        Service::start(ix, ServeConfig::new(SearchParams::for_k(5))).expect("start service"),
    );
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Insert a far-out probe vector; its own query must return it at
    // rank 0 (distance exactly 0).
    let probe = [100.0f32; DIM];
    let id = client.insert(&probe).expect("insert over tcp");
    assert_eq!(id, 40, "external ids are monotonic from the seed count");
    let resp = client.search(&probe, 5).expect("search finds the insert");
    assert_eq!(resp.neighbors[0].id, id);
    assert_eq!(resp.neighbors[0].dist, 0.0);

    // Delete it: the ack reports it was live, a re-delete reports it
    // was not, and searches stop returning it immediately.
    assert!(client.delete(id).expect("delete over tcp"));
    assert!(!client.delete(id).expect("idempotent re-delete"));
    let resp = client.search(&probe, 5).expect("search after delete");
    assert!(resp.neighbors.iter().all(|nb| nb.id != id), "tombstoned id resurfaced");
}

#[test]
fn static_backends_refuse_mutations_with_a_typed_status() {
    let spec = SynthSpec { dim: DIM, n: 300, queries: 0, family: Family::Gaussian, seed: 9 };
    let (base, _) = spec.generate();
    let (index, _) = CagraIndex::<Dataset>::build(base, Metric::SquaredL2, &GraphConfig::new(8));
    let service = Arc::new(
        Service::start(index, ServeConfig::new(SearchParams::for_k(5))).expect("start service"),
    );
    assert_eq!(service.insert(&[0.0; DIM]), Err(ServeError::Unsupported("insert")));
    assert_eq!(service.delete(3), Err(ServeError::Unsupported("delete")));

    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.insert(&[0.0; DIM]) {
        Err(ClientError::Rejected { status: Status::Unsupported, message }) => {
            assert!(message.contains("insert"), "message should name the op: {message}");
        }
        other => panic!("expected Unsupported rejection, got {other:?}"),
    }
    // The connection survives a refused mutation: a search on the same
    // stream still works.
    let q = [0.1f32; DIM];
    assert_eq!(client.search(&q, 5).expect("search after refusal").neighbors.len(), 5);
}
