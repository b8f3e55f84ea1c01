//! Layer probes of the traced run: fixed micro-workloads that call one
//! layer's public functions directly, after the measured phases, so a
//! change in an end-to-end number can be laid beside the cost of the
//! layer that should have caused it.

use crate::common::{Ctx, Layers, K};
use crate::workloads::{DEEP_DIM, GLOVE_DIM};
use cagra::search::planner::Mode;
use cagra::{CagraIndex, SearchParams, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, PqCodebook, PqConfig, PqStore, VectorStore};
use distance::{DistanceOracle, Metric};
use serve::{proto, Response, ResponseMeta};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rows each distance probe scores per pass.
const PROBE_ROWS: usize = 4096;
const PROBE_PASSES: usize = 16;
const PROBE_SEED: u64 = 0x70_726f_6265;

/// Nanoseconds per row of `DistanceOracle::to_rows` over all probe
/// rows of `store`, and microseconds per `prepare` of the query.
fn to_rows_probe<S: VectorStore>(store: &S, metric: Metric, query: &[f32]) -> (f64, f64) {
    let oracle = DistanceOracle::new(store, metric);
    let ids: Vec<u32> = (0..store.len() as u32).collect();
    let mut out = vec![0.0f32; ids.len()];
    let t = Instant::now();
    for _ in 0..PROBE_PASSES {
        black_box(oracle.prepare(black_box(query)));
    }
    let prepare_us = t.elapsed().as_secs_f64() * 1e6 / PROBE_PASSES as f64;
    let prepared = oracle.prepare(query);
    oracle.to_rows(&prepared, &ids, &mut out); // warm the rows
    let t = Instant::now();
    for _ in 0..PROBE_PASSES {
        oracle.to_rows(&prepared, black_box(&ids), &mut out);
        black_box(&mut out);
    }
    (t.elapsed().as_secs_f64() * 1e9 / (PROBE_PASSES * ids.len()) as f64, prepare_us)
}

/// `distance.*`: the three kernels the workloads lean on, each over
/// the same 4 096 fixed rows (seed-independent, so the cells compare
/// across runs of any seed).
pub fn distance(layers: &mut Layers) {
    let rows = |dim, family| {
        SynthSpec { dim, n: PROBE_ROWS, queries: 1, family, seed: PROBE_SEED }.generate()
    };
    let (deep, deep_q) = rows(DEEP_DIM, Family::Gaussian);
    layers.set("distance.l2_ns_per_row", to_rows_probe(&deep, Metric::SquaredL2, deep_q.row(0)).0);
    let (glove, glove_q) = rows(GLOVE_DIM, crate::workloads::GLOVE_FAMILY);
    layers
        .set("distance.cosine_ns_per_row", to_rows_probe(&glove, Metric::Cosine, glove_q.row(0)).0);
    // ADC speed does not depend on how well the codebook fits, so one
    // Lloyd iteration is enough for the probe.
    let cfg = PqConfig { iters: 1, ..PqConfig::new(crate::workloads::serve_open_pq::PQ_M) };
    let pq = PqStore::encode(Arc::new(PqCodebook::train(&deep, &cfg)), &deep);
    let (adc_ns, lut_us) = to_rows_probe(&pq, Metric::SquaredL2, deep_q.row(0));
    layers.set("distance.adc_ns_per_row", adc_ns);
    layers.set("distance.adc_lut_us", lut_us);
}

/// `proto.*`: 10 000 encode + decode round trips of a d = 200 request
/// and a k = 10 response.
pub fn proto(layers: &mut Layers) {
    const ROUNDS: usize = 10_000;
    let query: Vec<f32> = (0..GLOVE_DIM).map(|i| i as f32 * 0.25).collect();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let bytes = proto::encode_request(black_box(&query), K);
        black_box(proto::decode_request(&bytes).expect("own request decodes"));
    }
    layers.set("proto.request_codec_ns", t.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64);
    let response = Response {
        neighbors: (0..K as u32).map(|i| knn::Neighbor::new(i, i as f32)).collect(),
        meta: ResponseMeta {
            batch_size: 1,
            mode: Mode::MultiCta,
            num_cta: 16,
            queue_ns: 1,
            e2e_ns: 2,
        },
    };
    layers.set("proto.response_bytes", proto::encode_ok(&response).len() as f64);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let bytes = proto::encode_ok(black_box(&response));
        black_box(proto::decode_response(&bytes).expect("own response decodes"));
    }
    layers.set("proto.response_codec_ns", t.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64);
}

/// Queries each search probe runs.
const PROBE_QUERIES: usize = 200;

/// Microseconds per query of `mode` over the probe queries on reused
/// scratch, plus the mean trace counts
/// `(iterations, distances, init distances)`.
fn search_pass<S: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Dataset,
    params: &SearchParams,
    mode: Mode,
) -> (f64, [f64; 3]) {
    let n = queries.len().min(PROBE_QUERIES);
    let mut scratch = SearchScratch::new();
    let mut counts = [0u64; 3];
    let t = Instant::now();
    for qi in 0..n {
        index.search_mode_with(queries.row(qi), K, params, mode, &mut scratch);
        let trace = scratch.trace();
        counts[0] += trace.iteration_count() as u64;
        counts[1] += trace.total_distances();
        counts[2] += trace.init_distances;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    (us, counts.map(|c| c as f64 / n as f64))
}

/// Microseconds per query the exact second phase adds: each probe
/// query is searched with and without it, back to back, so a slow
/// second of the host lands on both sides of the difference.
fn rerank_us<S: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Dataset,
    params: &SearchParams,
) -> f64 {
    let traversal_only = SearchParams { rerank_depth: 0, ..*params };
    let n = queries.len().min(PROBE_QUERIES);
    let mut scratch = SearchScratch::new();
    let (mut with, mut without) = (0.0, 0.0);
    for qi in 0..n {
        let t = Instant::now();
        index.search_mode_with(queries.row(qi), K, params, Mode::SingleCta, &mut scratch);
        with += t.elapsed().as_secs_f64();
        let t = Instant::now();
        index.search_mode_with(queries.row(qi), K, &traversal_only, Mode::SingleCta, &mut scratch);
        without += t.elapsed().as_secs_f64();
    }
    (with - without).max(0.0) * 1e6 / n as f64
}

/// `search.*`: both mappings called directly on the workload's own
/// index with its own parameters; the counts repeat exactly for a
/// seed.
pub fn search<S: VectorStore>(
    layers: &mut Layers,
    index: &CagraIndex<S>,
    queries: &Dataset,
    params: &SearchParams,
) {
    let (single_us, counts) = search_pass(index, queries, params, Mode::SingleCta);
    let (multi_us, _) = search_pass(index, queries, params, Mode::MultiCta);
    layers.set("search.single_cta_us_per_query", single_us);
    layers.set("search.multi_cta_us_per_query", multi_us);
    layers.set("search.iterations_per_query", counts[0]);
    layers.set("search.distances_per_query", counts[1]);
    layers.set("search.init_distances_per_query", counts[2]);
    if params.rerank_depth > 0 {
        layers.set("search.rerank_us_per_query", rerank_us(index, queries, params));
    }
}

/// `trace.*`: span count, and the share of the measured time spent
/// recording them (spans × the measured cost of recording one).
pub fn trace_overhead(ctx: &Ctx, layers: &mut Layers, spans: usize, measured_s: f64) {
    const CALIBRATION: usize = 200_000;
    let mut buf = ctx.tracer.buf();
    let t = Instant::now();
    for i in 0..CALIBRATION as u64 {
        let now = ctx.now_ns();
        black_box(buf.span(0, i, "trace.calibration", now, now));
    }
    let per_span_s = t.elapsed().as_secs_f64() / CALIBRATION as f64;
    layers.set("trace.spans", spans as f64);
    layers.set("trace.overhead_share", spans as f64 * per_span_s / measured_s);
}
