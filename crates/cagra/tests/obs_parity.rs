//! Instrumentation must be observation-only: search results are
//! bit-identical whether metrics recording is on or off, and the
//! recording path actually populates the registry when the `obs`
//! feature is compiled in.
//!
//! Kept as a single test: the recording kill-switch is process-global,
//! so splitting this into parallel tests would race on it.

use cagra::build::GraphConfig;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, SearchParams};
use dataset::synth::{Family, SynthSpec};
use dataset::VectorStore;
use distance::Metric;

#[test]
fn recording_does_not_perturb_results() {
    let spec = SynthSpec { dim: 8, n: 600, queries: 25, family: Family::Gaussian, seed: 77 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let params = SearchParams::for_k(10);

    obs::reset();
    obs::set_recording(true);
    let recorded: Vec<_> = [Mode::SingleCta, Mode::MultiCta]
        .into_iter()
        .map(|m| index.try_search_batch(&queries, 10, &params, Some(m), false).unwrap().neighbors)
        .collect();
    let snap_on = obs::metrics().snapshot();

    obs::set_recording(false);
    let silent: Vec<_> = [Mode::SingleCta, Mode::MultiCta]
        .into_iter()
        .map(|m| index.try_search_batch(&queries, 10, &params, Some(m), false).unwrap().neighbors)
        .collect();
    obs::set_recording(true);

    assert_eq!(recorded, silent, "metrics recording changed search results");

    if obs::compiled_in() {
        let queries_count =
            snap_on.counters.iter().find(|c| c.name == "search.queries").map(|c| c.value).unwrap();
        assert!(queries_count >= 2 * queries.len() as u64, "recording pass saw {queries_count}");
        let iters = snap_on.histograms.iter().find(|h| h.name == "search.iterations").unwrap();
        assert!(iters.count > 0, "iteration histogram empty with obs enabled");
    } else {
        assert!(snap_on.counters.iter().all(|c| c.value == 0), "metrics nonzero with obs off");
    }
}
