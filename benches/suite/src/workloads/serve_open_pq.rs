//! `serve_open_pq`: compressed storage behind the service, under
//! arrivals that do not wait. DEEP-like d = 96, squared L2,
//! n = 12 000, degree 32; f32 build → `PqStore::encode` (m = 24) →
//! `write_index_pq` → `read_index_pq` (rerank tail memory-mapped);
//! in-process `Service<CagraIndex<PqStore>>`, `itopk = 128`,
//! `rerank_depth = 64`.
//!
//! * Phase A: one generator thread submits on a seeded Poisson
//!   schedule at three fixed rates (`R_LO`, `R_MID`, `R_HI`: 150, 300
//!   and 450 requests/s, which is 0.23, 0.46 and 0.69 of the seed
//!   commit's closed-loop capacity of 654 q/s). A request's latency
//!   runs from the instant it was *due*: lateness at submit plus
//!   `ResponseMeta::e2e_ns`. `p50_ms` is the median of the long `R_LO`
//!   leg. Higher up a single server multiplies the host's noise — at
//!   0.6 of capacity a 10 % slower second becomes a 36 % longer wait,
//!   and p50 was 2.5 ms in one run and 4.4 ms in the next — and the
//!   open-loop p99 does at any rate (7.2–15.3 ms over six seeds at
//!   200/s, 5.1–8.3 ms at 120/s), so the three tails are per-layer
//!   cells (`loadgen.p99_ms_lo`, `_mid`, `_hi`, `loadgen.slo_qps`).
//! * Phase B: 2 in-process closed-loop clients give `qps`, and
//!   `p99_ms` (3.5–3.8 ms, quartiles of ten seeds). Its first second is a
//!   warm-up that is checked but not timed: phase A leaves the cores
//!   mostly idle, and the first block after it was the slowest of the
//!   phase in most runs (490 q/s against 650).
//!
//! The same search and service layers as `serve_tcp_glove`, used
//! differently: ADC lookups and an exact rerank instead of f32
//! distances, and open-loop arrivals, so queue wait and batches > 1
//! exist and the planner's mode mix matters. `serve::tcp` and `proto`
//! are idle and `knn` is set-up only. This is the one workload whose
//! working set (4.6 MB f32 tail + 1.5 MB graph + 0.3 MB codes) exceeds
//! the 4 MiB L2; none can exceed the shared L3 inside the time cap.

use super::{
    common_layers, make_data, repeat_setup, request_spans, Data, HostRef, ServeLog, DEEP_DIM,
};
use crate::common::{
    build_layers, bytes_per_vector, graph_layers, timed_build, Ctx, E2e, Layers, Outcome, Phase,
    ReadLog, WriteRounds, K,
};
use crate::sched::poisson_schedule;
use crate::trace::SpanBuf;
use crate::{probes, stats};
use cagra::{index_io, BuildReport, CagraIndex, SearchParams};
use dataset::synth::Family;
use dataset::{PqCodebook, PqConfig, PqStore, VectorStore};
use distance::Metric;
use serve::{ResponseHandle, ServeConfig, Service};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const DEGREE: usize = 32;
pub const PQ_M: usize = 24;
const ITOPK: usize = 128;
const RERANK_DEPTH: usize = 64;
const SETUP_REPEATS: usize = 1;
const WARMUP_QUERIES: usize = 100;
const CLIENTS: usize = 2;
/// Completions per throughput block of phase B.
const QPS_BLOCK: usize = 200;

/// Offered rates in requests per second and each leg's share of the
/// run; phase B takes `CLOSED_SHARE`.
const R_LO: f64 = 150.0;
const R_MID: f64 = 300.0;
const R_HI: f64 = 450.0;
const LEGS: [(f64, f64); 3] = [(R_LO, 0.36), (R_MID, 0.08), (R_HI, 0.08)];
/// The closed loop gets the largest share: its p99 needs blocks of
/// 1 000, and the median of three or four of them spread 16–25 % over
/// ten runs.
const CLOSED_SHARE: f64 = 0.35;
const CLOSED_WARMUP_SHARE: f64 = 0.035;
/// The latency limit on p99 that `loadgen.slo_qps` applies.
const SLO_P99_MS: f64 = 20.0;
/// Every `RERANK_SAMPLE`-th answer has its distances recomputed.
const RERANK_SAMPLE: u64 = 100;

/// The bundle's directory, removed when the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover bundle is in an ignored directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up times and sizes the `dataset.pq_*` and `index_io.*` cells
/// report.
#[derive(Clone, Copy, Default)]
struct PqCosts {
    train_s: f64,
    encode_s: f64,
    write_s: f64,
    read_s: f64,
    bundle_bytes: u64,
}

struct Served {
    service: Service<CagraIndex<PqStore>>,
    data: Data,
    build_wall_s: f64,
    report: BuildReport,
    costs: PqCosts,
}

fn set_up(ctx: &Ctx, buf: &mut SpanBuf, n: usize, nq: usize, bundle: &Path) -> Served {
    let metric = Metric::SquaredL2;
    let data = make_data(ctx, DEEP_DIM, n, nq, Family::Gaussian, metric);
    let built = timed_build(ctx, buf, data.base.clone(), metric, DEGREE);
    let mut costs = PqCosts::default();
    let mut timed = |name: &'static str, secs: &mut f64, t0: u64| {
        let t1 = ctx.now_ns();
        buf.span(0, 0, name, t0, t1);
        *secs = (t1 - t0) as f64 / 1e9;
    };

    let t0 = ctx.now_ns();
    let codebook = PqCodebook::train(&data.base, &PqConfig::new(PQ_M));
    timed("dataset.pq.train", &mut costs.train_s, t0);
    let t0 = ctx.now_ns();
    let store = PqStore::encode(Arc::new(codebook), &data.base);
    timed("dataset.pq.encode", &mut costs.encode_s, t0);
    let compressed = CagraIndex::from_parts(store, built.index.graph().clone(), metric);

    let t0 = ctx.now_ns();
    let mut file = std::io::BufWriter::new(std::fs::File::create(bundle).expect("create bundle"));
    index_io::write_index_pq(&mut file, &compressed, &data.base).expect("write bundle");
    file.flush().expect("flush bundle");
    drop(file);
    timed("cagra.index_io.write", &mut costs.write_s, t0);
    costs.bundle_bytes = std::fs::metadata(bundle).expect("bundle exists").len();
    let t0 = ctx.now_ns();
    let index = index_io::read_index_pq(bundle).expect("read own bundle");
    timed("cagra.index_io.read", &mut costs.read_s, t0);

    let params =
        SearchParams { itopk: ITOPK, rerank_depth: RERANK_DEPTH, ..SearchParams::for_k(K) };
    let service = Service::start(index, ServeConfig::new(params)).expect("valid ServeConfig");
    for qi in 0..WARMUP_QUERIES.min(nq) {
        service.search_blocking(data.queries.row(qi), K).expect("warm-up query");
    }
    Served { service, data, build_wall_s: built.wall_s, report: built.report, costs }
}

/// What one open-loop leg measured.
struct Leg {
    rate: f64,
    log: ReadLog,
    late_ms: Vec<f64>,
    serve_log: ServeLog,
    rejected: u64,
    wall_s: f64,
    /// Requests still queued when the last one had been sent.
    backlog: usize,
}

/// A submitted request on its way to the collector.
struct InFlight {
    qi: usize,
    request: u64,
    due_ns: u64,
    late_ns: u64,
    handle: ResponseHandle,
}

/// Rerank distances are the exact metric of the original rows, bit
/// for bit.
fn rerank_is_exact(data: &Data, qi: usize, neighbors: &[knn::Neighbor]) -> bool {
    let q = data.queries.row(qi);
    neighbors.iter().all(|nb| {
        (nb.id as usize) < data.base.len()
            && distance::squared_l2(q, data.base.row(nb.id as usize)).to_bits() == nb.dist.to_bits()
    })
}

fn open_leg(ctx: &Ctx, served: &Served, rate: f64, share: f64, leg: u64) -> Leg {
    let data = &served.data;
    let seconds = ctx.seconds * share;
    let due = poisson_schedule(ctx.seed.wrapping_mul(31).wrapping_add(leg), rate, seconds);
    let id_limit = data.base.len() as u32;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut late_ms = Vec::with_capacity(due.len());
    let mut rejected = 0;
    let origin = ctx.now_ns();
    let (log, serve_log, backlog) = std::thread::scope(|s| {
        // The collector waits for answers in submission order, which
        // is the order the dispatcher serves them in.
        let collector = s.spawn(move || {
            let mut buf = ctx.tracer.buf();
            let (mut log, mut serve_log) = (ReadLog::default(), ServeLog::default());
            for flight in rx {
                let Ok(response) = flight.handle.wait() else {
                    log.fail();
                    continue;
                };
                let sent_ns = flight.due_ns + flight.late_ns;
                let done_ns = sent_ns + response.meta.e2e_ns;
                if flight.request % RERANK_SAMPLE == 0
                    && !rerank_is_exact(data, flight.qi, &response.neighbors)
                {
                    log.fail();
                    continue;
                }
                log.record(
                    flight.due_ns,
                    done_ns,
                    &response.neighbors,
                    id_limit,
                    &data.truth[flight.qi],
                );
                if buf.enabled() {
                    request_spans(&mut buf, 0, flight.request, sent_ns, &response.meta);
                    serve_log.record(&response.meta);
                }
            }
            ctx.tracer.absorb(buf);
            (log, serve_log)
        });
        for (i, offset) in due.iter().enumerate() {
            let due_ns = origin + offset;
            let now = ctx.now_ns();
            if now < due_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            let late_ns = ctx.now_ns().saturating_sub(due_ns);
            late_ms.push(late_ns as f64 / 1e6);
            let qi = i % data.queries.len();
            match served.service.submit(data.queries.row(qi), K) {
                Ok(handle) => {
                    let request = (leg << 32) | i as u64;
                    // The collector outlives the channel's sender.
                    let _ = tx.send(InFlight { qi, request, due_ns, late_ns, handle });
                }
                Err(_) => rejected += 1,
            }
        }
        let backlog = served.service.queue_depth();
        drop(tx);
        let (log, serve_log) = collector.join().expect("the collector does not panic");
        (log, serve_log, backlog)
    });
    let mut log = log;
    for _ in 0..rejected {
        log.fail();
    }
    Leg {
        rate,
        log,
        late_ms,
        serve_log,
        rejected,
        wall_s: (ctx.now_ns() - origin) as f64 / 1e9,
        backlog,
    }
}

/// Phase B: `CLIENTS` threads, each submitting its next query when its
/// last one is answered.
fn closed_phase(ctx: &Ctx, served: &Served, share: f64) -> ReadLog {
    let data = &served.data;
    let deadline = ctx.deadline(share);
    let mut merged = ReadLog::default();
    std::thread::scope(|s| {
        let lanes: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                s.spawn(move || {
                    let mut log = ReadLog::default();
                    let mut next = lane;
                    while ctx.now_ns() < deadline {
                        let qi = next % data.queries.len();
                        next += CLIENTS;
                        let t0 = ctx.now_ns();
                        let answer = served.service.search_blocking(data.queries.row(qi), K);
                        let t1 = ctx.now_ns();
                        match answer {
                            Ok(r) => log.record(
                                t0,
                                t1,
                                &r.neighbors,
                                data.base.len() as u32,
                                &data.truth[qi],
                            ),
                            Err(_) => log.fail(),
                        }
                    }
                    log
                })
            })
            .collect();
        for lane in lanes {
            merged.merge(lane.join().expect("a client thread does not panic"));
        }
    });
    merged
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.pick(12_000, 1500);
    let nq = ctx.pick(1000, 100);
    let mut buf = ctx.tracer.buf();
    let mut host = HostRef::new(ctx);
    let scratch = ScratchDir(crate::target_dir().join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    let bundle = scratch.0.join("index.cgix");

    let mut reports = Vec::new();
    let mut build_rates = Vec::new();
    let (served, setup_secs) = repeat_setup(ctx.pick(SETUP_REPEATS, 1), || {
        let served = set_up(ctx, &mut buf, n, nq, &bundle);
        reports.push(served.report);
        build_rates.push(n as f64 / served.build_wall_s);
        served
    });
    let data = &served.data;
    let mut rounds = WriteRounds::new(ctx, &data.base, Metric::SquaredL2, DEGREE);
    let measured_from = ctx.now_ns();

    let mut legs = Vec::new();
    for (i, (rate, share)) in LEGS.into_iter().enumerate() {
        host.tick();
        rounds.round(ctx, &mut buf);
        legs.push(open_leg(ctx, &served, rate, share, i as u64 + 1));
    }
    host.tick();
    rounds.round(ctx, &mut buf);
    let closed_warmup = closed_phase(ctx, &served, CLOSED_WARMUP_SHARE);
    let closed = closed_phase(ctx, &served, CLOSED_SHARE);
    host.tick();
    rounds.round(ctx, &mut buf);
    let measured_s = (ctx.now_ns() - measured_from) as f64 / 1e9;

    let index = served.service.backend();
    let main = &legs[0].log;
    let qps_blocks = closed.qps_blocks(QPS_BLOCK);
    let (hits, wanted) = legs
        .iter()
        .map(|l| &l.log)
        .chain([&closed_warmup, &closed])
        .fold((0, 0), |(h, w), log| (h + log.hits, w + log.wanted));
    let e2e = E2e {
        setup_s: stats::median(&setup_secs),
        build_vec_per_s: stats::median(&build_rates),
        qps: stats::median_or_zero(&qps_blocks),
        p50_ms: main.p50_ms(),
        p99_ms: closed.p99_ms(),
        recall_at_10: hits as f64 / wanted.max(1) as f64,
        bytes_per_vector: bytes_per_vector(index),
        write_p50_ms: rounds.write_p50_ms(),
    };
    let samples = [
        setup_secs.len(),
        build_rates.len(),
        qps_blocks.len(),
        main.reads.len(),
        closed.reads.len(),
        wanted as usize / K,
        0,
        rounds.insert_us.len(),
    ];
    let mut phases: Vec<Phase> = ["A.open_lo", "A.open_mid", "A.open_hi"]
        .into_iter()
        .zip(&legs)
        .map(|(name, leg)| leg.log.phase(name))
        .collect();
    phases.push(Phase { samples: 0, ..closed_warmup.phase("B.warm_up") });
    phases.push(closed.phase("B.closed_loop"));
    phases.push(rounds.phase());

    ctx.tracer.absorb(buf);
    let mut layers = Layers::new();
    if ctx.tracer.enabled() {
        data.fill_layers(&mut layers);
        build_layers(&mut layers, &reports);
        graph_layers(&mut layers, index.graph());
        rounds.fill_layers(&mut layers);
        let costs = served.costs;
        layers.set("dataset.pq_train_s", costs.train_s);
        layers.set("dataset.pq_encode_s", costs.encode_s);
        layers.set("dataset.pq_bytes_per_vector", index.store().bytes_per_vector() as f64);
        layers.set("index_io.write_s", costs.write_s);
        layers.set("index_io.read_s", costs.read_s);
        layers.set("index_io.bundle_bytes", costs.bundle_bytes as f64);

        let mut serve_log = ServeLog::default();
        let mut late_ms = Vec::new();
        let (mut rejected, mut loaded_s, mut slo_qps) = (0, 0.0, 0.0f64);
        for leg in legs {
            let p99 = stats::percentile(&leg.log.latencies_ms(), 99.0);
            // No growing backlog: what was queued when the leg's last
            // request went out is at most what a full batch takes.
            if p99 <= SLO_P99_MS && leg.backlog <= served.service.config().max_batch {
                slo_qps = slo_qps.max(leg.rate);
            }
            let cell = if leg.rate == R_LO {
                "loadgen.p99_ms_lo"
            } else if leg.rate == R_MID {
                "loadgen.p99_ms_mid"
            } else {
                "loadgen.p99_ms_hi"
            };
            layers.set(cell, p99);
            rejected += leg.rejected;
            loaded_s += leg.wall_s;
            late_ms.extend(leg.late_ms);
            serve_log.merge(leg.serve_log);
        }
        layers.set("loadgen.slo_qps", slo_qps);
        layers.set("loadgen.p999_ms", stats::percentile(&closed.latencies_ms(), 99.9));
        layers.set("loadgen.late_p50_ms", stats::percentile(&late_ms, 50.0));
        layers.set("loadgen.late_p99_ms", stats::percentile(&late_ms, 99.0));
        serve_log.fill_layers(&mut layers, rejected, loaded_s);
        probes::search(&mut layers, index, &data.queries, &served.service.config().params);
        common_layers(ctx, &mut layers, &host, measured_s);
    }
    let outcome = Outcome { e2e, samples, phases, layers };
    // The service holds the bundle mapped; it goes before the directory.
    drop(served);
    drop(scratch);
    outcome
}
