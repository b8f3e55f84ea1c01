//! `serve_tcp_glove`: the whole request path over loopback TCP.
//! GloVe-like clustered d = 200, cosine, n = 2 000, degree 64;
//! `Service<CagraIndex<Dataset>>` with the default `ServeConfig`,
//! `TcpServer` on `127.0.0.1:0`, and 2 `serve::Client` connections in
//! closed loop. Latency is the client's round trip.
//!
//! What runs per request: `serve::proto` framing, the `serve::tcp`
//! handler, admission and planning in `serve::service`, a multi-CTA
//! search with the cosine kernel, and the encode. `knn` is set-up only
//! (n = 2 000 is the size at which a clustered d = 200 build still
//! fits a repeated set-up: it takes 0.2 s, and 5.6 s at n = 4 000);
//! `dynamic` outside the write rounds and PQ are idle. The working set
//! (1.6 MB of rows, 0.5 MB of graph) fits the 4 MiB L2.
//!
//! The run is three closed-loop segments with a write round before,
//! between and after them; the clients idle during a round, so the
//! busy threads stay at two.

use super::{
    common_layers, make_data, repeat_setup, request_spans, Data, HostRef, ServeLog, GLOVE_DIM,
    GLOVE_FAMILY,
};
use crate::common::{
    build_layers, bytes_per_vector, graph_layers, timed_build, Ctx, E2e, Layers, Outcome, ReadLog,
    WriteRounds, K,
};
use crate::trace::SpanBuf;
use crate::{probes, stats};
use cagra::{BuildReport, CagraIndex, SearchParams};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use serve::{Client, ServeConfig, Service, TcpServer};
use std::sync::Arc;

const DEGREE: usize = 64;
const CLIENTS: usize = 2;
const SEGMENTS: usize = 3;
/// Share of the run the segments take; the four write rounds of
/// d = 200 inserts take the rest.
const SEGMENTS_SHARE: f64 = 0.89;
/// Completions per throughput block.
const QPS_BLOCK: usize = 100;
/// Five, not three: `build_vec_per_s` is the median of these 0.16 s
/// builds.
const SETUP_REPEATS: usize = 5;
const WARMUP_ROUND_TRIPS: usize = 2;

/// A served index with its clients connected. Field order is drop
/// order: the clients hang up first, which lets the handler threads
/// end, before the listener and then the service stop.
struct Served {
    clients: Vec<Client>,
    _server: TcpServer,
    service: Arc<Service<CagraIndex<Dataset>>>,
    data: Data,
    build_wall_s: f64,
    report: BuildReport,
    connect_us: Vec<f64>,
}

fn set_up(ctx: &Ctx, buf: &mut SpanBuf, n: usize, nq: usize) -> Served {
    let metric = Metric::Cosine;
    let data = make_data(ctx, GLOVE_DIM, n, nq, GLOVE_FAMILY, metric);
    let built = timed_build(ctx, buf, data.base.clone(), metric, DEGREE);
    let config = ServeConfig::new(SearchParams::for_k(K));
    let service =
        Arc::new(Service::start(built.index, config).expect("default ServeConfig is valid"));
    let server =
        TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind a loopback port");
    let mut connect_us = Vec::new();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| {
            let t0 = ctx.now_ns();
            let client = Client::connect(server.local_addr()).expect("connect to own server");
            connect_us.push((ctx.now_ns() - t0) as f64 / 1e3);
            client
        })
        .collect();
    for client in &mut clients {
        for qi in 0..WARMUP_ROUND_TRIPS {
            client.search(data.queries.row(qi), K).expect("warm-up round trip");
        }
    }
    Served {
        clients,
        _server: server,
        service,
        data,
        build_wall_s: built.wall_s,
        report: built.report,
        connect_us,
    }
}

/// One connection's closed loop until `deadline`: query `next`, then
/// every `CLIENTS`-th after it. A transport error ends the loop, since
/// the connection cannot be trusted afterwards.
fn client_loop(
    ctx: &Ctx,
    client: &mut Client,
    lane: usize,
    next: &mut usize,
    deadline: u64,
    data: &Data,
) -> (ReadLog, ServeLog, Vec<f64>, SpanBuf) {
    let mut buf = ctx.tracer.buf();
    let (mut log, mut serve_log, mut overhead_us) =
        (ReadLog::default(), ServeLog::default(), Vec::new());
    let id_limit = data.base.len() as u32;
    while ctx.now_ns() < deadline {
        let qi = *next % data.queries.len();
        *next += CLIENTS;
        let t0 = ctx.now_ns();
        let answer = client.search(data.queries.row(qi), K);
        let t1 = ctx.now_ns();
        let Ok(response) = answer else {
            log.fail();
            break;
        };
        log.record(t0, t1, &response.neighbors, id_limit, &data.truth[qi]);
        if buf.enabled() {
            let request = ((lane as u64) << 32) | *next as u64;
            let round_trip = buf.span(0, request, "serve.tcp.round_trip", t0, t1);
            request_spans(&mut buf, round_trip, request, t0, &response.meta);
            serve_log.record(&response.meta);
            overhead_us.push((t1 - t0).saturating_sub(response.meta.e2e_ns) as f64 / 1e3);
        }
    }
    (log, serve_log, overhead_us, buf)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.pick(2000, 600);
    let nq = ctx.pick(1000, 100);
    let mut buf = ctx.tracer.buf();
    let mut host = HostRef::new(ctx);
    let mut reports = Vec::new();
    let mut build_rates = Vec::new();
    let (mut served, setup_secs) = repeat_setup(ctx.pick(SETUP_REPEATS, 1), || {
        let served = set_up(ctx, &mut buf, n, nq);
        reports.push(served.report);
        build_rates.push(n as f64 / served.build_wall_s);
        served
    });
    let data = &served.data;
    let mut rounds = WriteRounds::new(ctx, &data.base, Metric::Cosine, DEGREE);
    let measured_from = ctx.now_ns();

    let mut log = ReadLog::default();
    let mut serve_log = ServeLog::default();
    let mut overhead_us = Vec::new();
    let mut qps_blocks = Vec::new();
    let mut next: Vec<usize> = (0..CLIENTS).collect();
    let mut loaded_ns = 0;
    for _ in 0..SEGMENTS {
        host.tick();
        rounds.round(ctx, &mut buf);
        let from = ctx.now_ns();
        let deadline = ctx.deadline(SEGMENTS_SHARE / SEGMENTS as f64);
        let mut segment = ReadLog::default();
        std::thread::scope(|s| {
            let lanes: Vec<_> = served
                .clients
                .iter_mut()
                .zip(next.iter_mut())
                .enumerate()
                .map(|(lane, (client, next))| {
                    s.spawn(move || client_loop(ctx, client, lane, next, deadline, data))
                })
                .collect();
            for lane in lanes {
                let (lane_log, lane_serve, lane_overhead, lane_buf) =
                    lane.join().expect("a client thread does not panic");
                segment.merge(lane_log);
                serve_log.merge(lane_serve);
                overhead_us.extend(lane_overhead);
                ctx.tracer.absorb(lane_buf);
            }
        });
        loaded_ns += ctx.now_ns() - from;
        // Blocks never span the idle gap between two segments.
        qps_blocks.extend(segment.qps_blocks(QPS_BLOCK));
        log.merge(segment);
    }
    host.tick();
    rounds.round(ctx, &mut buf);
    let measured_s = (ctx.now_ns() - measured_from) as f64 / 1e9;

    let index = served.service.backend();
    let e2e = E2e {
        setup_s: stats::median(&setup_secs),
        build_vec_per_s: stats::median(&build_rates),
        qps: stats::median_or_zero(&qps_blocks),
        p50_ms: log.p50_ms(),
        p99_ms: log.p99_ms(),
        recall_at_10: log.recall(),
        bytes_per_vector: bytes_per_vector(index),
        write_p50_ms: rounds.write_p50_ms(),
    };
    let reads = log.reads.len();
    let samples = [
        setup_secs.len(),
        build_rates.len(),
        qps_blocks.len(),
        reads,
        reads,
        reads,
        0,
        rounds.insert_us.len(),
    ];
    let phases = vec![log.phase("tcp.closed_loop"), rounds.phase()];

    ctx.tracer.absorb(buf);
    let mut layers = Layers::new();
    if ctx.tracer.enabled() {
        data.fill_layers(&mut layers);
        build_layers(&mut layers, &reports);
        graph_layers(&mut layers, index.graph());
        rounds.fill_layers(&mut layers);
        serve_log.fill_layers(&mut layers, 0, loaded_ns as f64 / 1e9);
        layers.set("tcp.overhead_us_p50", stats::percentile(&overhead_us, 50.0));
        layers.set("tcp.overhead_us_p99", stats::percentile(&overhead_us, 99.0));
        layers.set("tcp.connect_us", stats::median(&served.connect_us));
        layers.set("loadgen.p999_ms", stats::percentile(&log.latencies_ms(), 99.9));
        probes::search(&mut layers, index, &data.queries, &served.service.config().params);
        common_layers(ctx, &mut layers, &host, measured_s);
    }
    Outcome { e2e, samples, phases, layers }
}
