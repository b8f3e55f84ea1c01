//! Tier-1 smoke of `serve`: two serve workers search two lone requests
//! side by side, and every served result equals a multi-CTA
//! `search_mode` under the service's parameters, bit for bit. The full
//! acceptance suite is `serve/tests/serving.rs`; this is the slice of
//! it that the root package's `cargo test -q` runs.

use cagra::{SearchError, SearchScratch};
use cagra_repro::prelude::*;
use serve::{Response, SearchBackend, ServeConfig, Service};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

const K: usize = 10;

/// How long a search waits for a second one to join it.
const MEET: Duration = Duration::from_secs(5);

/// The static index, with searches that wait (up to [`MEET`]) until
/// two of them have been in flight at once.
struct Pair {
    index: CagraIndex<Dataset>,
    /// (searches in flight, most in flight at once).
    flight: Mutex<(usize, usize)>,
    changed: Condvar,
}

impl SearchBackend for Pair {
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
        {
            let mut flight = self.flight.lock().unwrap();
            flight.0 += 1;
            flight.1 = flight.1.max(flight.0);
            self.changed.notify_all();
            let _ = self.changed.wait_timeout_while(flight, MEET, |f| f.1 < 2);
        }
        let neighbors = SearchBackend::search(&self.index, query, k, params, scratch);
        self.flight.lock().unwrap().0 -= 1;
        neighbors
    }
}

/// `resp` must report the service's one plan — multi-CTA with its
/// `num_cta` — and give that search's neighbours, bit for bit.
fn assert_served_as_planned(index: &CagraIndex<Dataset>, query: &[f32], resp: &Response) {
    let params = SearchParams::for_k(K);
    assert_eq!((resp.meta.mode, resp.meta.num_cta as usize), (Mode::MultiCta, params.num_cta));
    let (fresh, _) = index.search_mode(query, K, &params, Mode::MultiCta);
    let bits = |r: &[Neighbor]| r.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(&resp.neighbors), bits(&fresh), "served {:?}", resp.meta);
}

#[test]
fn two_workers_search_two_lone_requests_at_once_and_serve_the_planned_bits() {
    let spec = SynthSpec { dim: 8, n: 300, queries: 2, family: Family::Gaussian, seed: 5 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let mut config = ServeConfig::new(SearchParams::for_k(K));
    // Set explicitly, so the check holds under CAGRA_THREADS=1 too.
    config.worker_threads = 2;
    let pair = Pair { index, flight: Mutex::new((0, 0)), changed: Condvar::new() };
    let service = Service::start(pair, config).expect("start service");
    let pair = service.backend();

    let first = service.submit(queries.row(0), K).expect("admitted");
    {
        // Request 2 is submitted only once request 1 is in its search.
        let flight = pair.flight.lock().unwrap();
        let (flight, _) = pair.changed.wait_timeout_while(flight, MEET, |f| f.0 < 1).unwrap();
        assert_eq!(flight.0, 1, "request 1 never reached its search");
    }
    let second = service.submit(queries.row(1), K).expect("admitted");
    let responses = [first.wait().expect("served"), second.wait().expect("served")];
    assert_eq!(pair.flight.lock().unwrap().1, 2, "the two requests searched in turn");
    for (qi, resp) in responses.iter().enumerate() {
        assert_eq!(resp.meta.batch_size, 1);
        assert_served_as_planned(&pair.index, queries.row(qi), resp);
    }
}
