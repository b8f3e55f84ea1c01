//! `build_deep`: construction and the two search mappings, nothing
//! else. DEEP-like Gaussian d = 96, squared L2, n = 8 000, degree 32,
//! `CAGRA_THREADS = 2`.
//!
//! * Phase A (0.33 of the run): back-to-back `CagraIndex::build` of the
//!   same rows — bit-identical work per block — gives
//!   `build_vec_per_s`. `knn::nn_descent` and `cagra::optimize` do all
//!   of it.
//! * Phase B (0.17): `search_batch` over the 1 000 queries, repeatedly
//!   (single-CTA plan on 2 threads, the paper's Fig. 13 shape), gives
//!   `qps`; one batch is one fixed-work block.
//! * Phase C (0.40, the largest share because a p99 needs blocks of
//!   1 000 reads): one thread calling `search` a query at a time
//!   (multi-CTA plan, Fig. 14), gives `p50_ms` and `p99_ms`.
//!
//! `serve`, `dynamic` (outside the write rounds), PQ and `index_io`
//! are idle: a change to them must show no movement here.

use super::{common_layers, make_data, repeat_setup, HostRef, DEEP_DIM};
use crate::common::{
    build_layers, bytes_per_vector, graph_layers, timed_build, Built, Ctx, E2e, Layers, Outcome,
    Phase, ReadLog, Tally, WriteRounds, K,
};
use crate::{probes, stats};
use cagra::SearchParams;
use dataset::synth::Family;
use distance::Metric;

const DEGREE: usize = 32;
/// `for_k(10)` keeps 64 candidates, which gives recall 0.88 here; 128
/// clears the 0.90 floor with room for other seeds.
const ITOPK: usize = 128;
const SETUP_REPEATS: usize = 5;

pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.pick(8000, 1200);
    let nq = ctx.pick(1000, 100);
    let metric = Metric::SquaredL2;
    let mut buf = ctx.tracer.buf();
    let mut host = HostRef::new(ctx);

    // Set-up is data and ground truth only: the build is the measured
    // phase. The brute-force pass also warms the distance kernels.
    let (data, setup_secs) = repeat_setup(ctx.pick(SETUP_REPEATS, 1), || {
        make_data(ctx, DEEP_DIM, n, nq, Family::Gaussian, metric)
    });
    let params = SearchParams { itopk: ITOPK, ..SearchParams::for_k(K) };
    let mut rounds = WriteRounds::new(ctx, &data.base, metric, DEGREE);
    let measured_from = ctx.now_ns();
    host.tick();
    rounds.round(ctx, &mut buf);

    // Phase A.
    let deadline = ctx.deadline(0.33);
    let mut builds: Vec<Built> = Vec::new();
    let mut build_tally = Tally::default();
    // Another build starts only if one as long as the last still fits,
    // so the phase keeps to its share of the run.
    let fits = |builds: &[Built]| {
        builds.last().is_none_or(|b| ctx.now_ns() + (b.wall_s * 1e9) as u64 <= deadline)
    };
    while builds.len() < ctx.pick(2, 1) || fits(&builds) {
        let built = timed_build(ctx, &mut buf, data.base.clone(), metric, DEGREE);
        let g = built.index.graph();
        let first = builds.first().unwrap_or(&built);
        build_tally.count(
            g.len() == n
                && g.degree() == DEGREE
                && g.as_flat() == first.index.graph().as_flat()
                && built.report.nn_distance_computations == first.report.nn_distance_computations,
        );
        builds.push(built);
    }
    let index = &builds.last().expect("phase A built").index;
    host.tick();
    rounds.round(ctx, &mut buf);

    // Phase B.
    let deadline = ctx.deadline(0.17);
    let mut batch_log = ReadLog::default();
    let mut batch_qps = Vec::new();
    while batch_qps.is_empty() || ctx.now_ns() < deadline {
        let t0 = ctx.now_ns();
        let results = index.search_batch(&data.queries, K, &params);
        let t1 = ctx.now_ns();
        buf.span(0, 0, "cagra.search.batch", t0, t1);
        batch_qps.push(nq as f64 / ((t1 - t0) as f64 / 1e9));
        for (res, truth) in results.iter().zip(&data.truth) {
            batch_log.record(t0, t1, res, n as u32, truth);
        }
    }
    host.tick();
    rounds.round(ctx, &mut buf);

    // Phase C.
    let deadline = ctx.deadline(0.40);
    let mut single_log = ReadLog::default();
    let mut sent = 0usize;
    while ctx.now_ns() < deadline {
        let qi = sent % nq;
        sent += 1;
        let t0 = ctx.now_ns();
        let res = index.search(data.queries.row(qi), K, &params);
        let t1 = ctx.now_ns();
        buf.span(0, sent as u64, "cagra.search", t0, t1);
        single_log.record(t0, t1, &res, n as u32, &data.truth[qi]);
    }
    host.tick();
    rounds.round(ctx, &mut buf);
    let measured_s = (ctx.now_ns() - measured_from) as f64 / 1e9;

    let build_rates: Vec<f64> = builds.iter().map(|b| n as f64 / b.wall_s).collect();
    let e2e = E2e {
        setup_s: stats::median(&setup_secs),
        build_vec_per_s: stats::median(&build_rates),
        qps: stats::median(&batch_qps),
        p50_ms: single_log.p50_ms(),
        p99_ms: single_log.p99_ms(),
        recall_at_10: (batch_log.hits + single_log.hits) as f64
            / (batch_log.wanted + single_log.wanted).max(1) as f64,
        bytes_per_vector: bytes_per_vector(index),
        write_p50_ms: rounds.write_p50_ms(),
    };
    let samples = [
        setup_secs.len(),
        builds.len(),
        batch_qps.len(),
        single_log.reads.len(),
        single_log.reads.len(),
        (batch_log.wanted + single_log.wanted) as usize / K,
        0,
        rounds.insert_us.len(),
    ];
    let phases = vec![
        Phase { name: "A.build", tally: build_tally, samples: builds.len() },
        Phase { name: "B.search_batch", tally: batch_log.tally, samples: batch_qps.len() },
        single_log.phase("C.search"),
        rounds.phase(),
    ];

    ctx.tracer.absorb(buf);
    let mut layers = Layers::new();
    if ctx.tracer.enabled() {
        data.fill_layers(&mut layers);
        let reports: Vec<_> = builds.iter().map(|b| b.report).collect();
        build_layers(&mut layers, &reports);
        graph_layers(&mut layers, index.graph());
        rounds.fill_layers(&mut layers);
        layers.set("loadgen.p999_ms", stats::percentile(&single_log.latencies_ms(), 99.9));
        probes::search(&mut layers, index, &data.queries, &params);
        common_layers(ctx, &mut layers, &host, measured_s);
    }
    Outcome { e2e, samples, phases, layers }
}
