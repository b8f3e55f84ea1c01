//! Online (single-query) serving — the latency-sensitive regime of
//! the paper's Fig. 14, where the multi-CTA mapping keeps a GPU busy
//! with one query.
//!
//! Demonstrates the Fig. 7 implementation-choice rule (a GPU
//! occupancy rule, so `gpu-sim`'s device model answers it), per-query
//! latency percentiles on the host, and the simulated-A100 latency
//! derived from the recorded kernel trace.
//!
//! ```text
//! cargo run --release --example online_serving
//! ```

use cagra_repro::cagra::SearchScratch;
use cagra_repro::prelude::*;
use gpu_sim::{search_with, simulate_batch, DeviceSpec, SimTable, SimTrace};

/// Threads per distance computation in the GPU model (a `gpu-sim`
/// input; results do not depend on it).
const TEAM_SIZE: usize = 8;

fn main() {
    let spec = SynthSpec { dim: 96, n: 50_000, queries: 200, family: Family::Gaussian, seed: 3 };
    let (base, queries) = spec.generate();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(32));

    let params = SearchParams::for_k(10);

    // The paper's dispatch rule on the A100: batch 1 -> multi-CTA; a
    // 10k batch with small itopk -> single-CTA.
    let device = DeviceSpec::a100();
    let (one, many) = (device.mapping(1, params.itopk), device.mapping(10_000, params.itopk));
    assert_eq!((one, many), (Mode::MultiCta, Mode::SingleCta));
    println!("dispatch: batch=1 -> {one:?}, batch=10k -> {many:?}");

    // Serve queries one at a time and collect latencies. The simulated
    // latency prices a second run of each query on the GPU's visited
    // table (multi-CTA: the standard one), which returns the same ids.
    let mut host_lat_us: Vec<f64> = Vec::with_capacity(queries.len());
    let mut sim_lat_us: Vec<f64> = Vec::with_capacity(queries.len());
    let mut simulated = SearchScratch::new();
    let mut table = SimTable::new(HashPolicy::Standard, false);
    for qi in 0..queries.len() {
        let t0 = std::time::Instant::now();
        let (results, _) = index.search_mode(queries.row(qi), 10, &params, Mode::MultiCta);
        host_lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(results.len(), 10);
        let q = queries.row(qi);
        search_with(&index, q, 10, &params, Mode::MultiCta, &mut table, &mut simulated);
        assert_eq!(simulated.results(), &results[..]);
        let trace = SimTrace { host: simulated.trace().clone(), sim: table.record().clone() };
        let sim = simulate_batch(&device, &[trace], 96, 4, TEAM_SIZE, Mode::MultiCta);
        sim_lat_us.push(sim.seconds * 1e6);
    }

    let pct = |v: &mut Vec<f64>, p: f64| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[((v.len() - 1) as f64 * p) as usize]
    };
    println!(
        "host CPU latency: p50 = {:.0} us, p99 = {:.0} us",
        pct(&mut host_lat_us.clone(), 0.5),
        pct(&mut host_lat_us.clone(), 0.99)
    );
    println!(
        "simulated A100 latency (multi-CTA, {} workers): p50 = {:.1} us, p99 = {:.1} us",
        params.num_cta,
        pct(&mut sim_lat_us.clone(), 0.5),
        pct(&mut sim_lat_us.clone(), 0.99)
    );
}
