//! The four workloads. Sizes, rates and phase shares are constants in
//! each file; nothing is calibrated at run time, and `--seed` only
//! feeds the data and arrival generators.

pub mod build_deep;
pub mod churn_mixed;
pub mod serve_open_pq;
pub mod serve_tcp_glove;

use crate::common::{ref_loop_ms, Ctx, Layers, Outcome, K};
use crate::trace::SpanBuf;
use crate::{probes, stats};
use cagra::search::planner::Mode;
use dataset::synth::{Family, SynthSpec};
use dataset::Dataset;
use distance::Metric;
use serve::ResponseMeta;
use std::time::Instant;

pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "build_deep" => build_deep::run(ctx),
        "serve_tcp_glove" => serve_tcp_glove::run(ctx),
        "serve_open_pq" => serve_open_pq::run(ctx),
        "churn_mixed" => churn_mixed::run(ctx),
        other => unreachable!("workload {other} was checked against spec::WORKLOADS"),
    }
}

/// DEEP-like: i.i.d. Gaussian, d = 96, squared L2.
pub const DEEP_DIM: usize = 96;
/// GloVe-like: 128 overlapping clusters, d = 200, cosine.
pub const GLOVE_DIM: usize = 200;
pub const GLOVE_FAMILY: Family = Family::Clustered { clusters: 128, spread: 1.0 };

/// A workload's generated inputs and their exact answers.
pub struct Data {
    pub base: Dataset,
    pub queries: Dataset,
    /// `knn::brute::ground_truth` of every query, `K` ids each.
    pub truth: Vec<Vec<u32>>,
    pub synth_s: f64,
    pub brute_gt_s: f64,
}

impl Data {
    pub fn fill_layers(&self, layers: &mut Layers) {
        layers.set("dataset.synth_s", self.synth_s);
        layers.set("knn.brute_gt_s", self.brute_gt_s);
    }
}

pub fn make_data(
    ctx: &Ctx,
    dim: usize,
    n: usize,
    queries: usize,
    family: Family,
    metric: Metric,
) -> Data {
    let t = Instant::now();
    let (base, queries) = SynthSpec { dim, n, queries, family, seed: ctx.seed }.generate();
    let synth_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let truth = knn::ground_truth(&base, metric, &queries, K);
    Data { base, queries, truth, synth_s, brute_gt_s: t.elapsed().as_secs_f64() }
}

/// Run a workload's whole set-up `repeats` times, each from nothing,
/// and keep the last result: `setup_s` is the median repeat, so one
/// slow second of the host does not set it. Dropping the previous
/// result is not timed.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one repeat ran"), secs)
}

/// The host reference of a traced run: the fixed loop timed at every
/// phase boundary.
pub struct HostRef {
    enabled: bool,
    ms: Vec<f64>,
}

impl HostRef {
    pub fn new(ctx: &Ctx) -> Self {
        HostRef { enabled: ctx.tracer.enabled(), ms: Vec::new() }
    }

    pub fn tick(&mut self) {
        if self.enabled {
            self.ms.push(ref_loop_ms());
        }
    }

    pub fn fill_layers(&self, layers: &mut Layers) {
        if self.ms.is_empty() {
            return;
        }
        layers.set("host.ref_loop_ms", stats::median(&self.ms));
        let (lo, hi) =
            self.ms.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        layers.set("host.ref_drift", hi / lo - 1.0);
    }
}

/// What the service says about how it served each request
/// (`ResponseMeta`), kept by the traced run for the `serve.*` cells.
#[derive(Default)]
pub struct ServeLog {
    pub queue_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    batch_sizes: u64,
    multi: u64,
    /// Dispatcher time: each request carries its batch's execution
    /// time, so it counts for `1 / batch_size` of it.
    busy_ns: f64,
}

impl ServeLog {
    pub fn record(&mut self, meta: &ResponseMeta) {
        let exec_ns = meta.e2e_ns.saturating_sub(meta.queue_ns);
        self.queue_us.push(meta.queue_ns as f64 / 1e3);
        self.exec_us.push(exec_ns as f64 / 1e3);
        self.batch_sizes += u64::from(meta.batch_size);
        self.multi += u64::from(meta.mode == Mode::MultiCta);
        self.busy_ns += exec_ns as f64 / f64::from(meta.batch_size.max(1));
    }

    pub fn merge(&mut self, other: ServeLog) {
        self.queue_us.extend(other.queue_us);
        self.exec_us.extend(other.exec_us);
        self.batch_sizes += other.batch_sizes;
        self.multi += other.multi;
        self.busy_ns += other.busy_ns;
    }

    /// `wall_s` is the time the service was under load.
    pub fn fill_layers(&self, layers: &mut Layers, rejected: u64, wall_s: f64) {
        let served = self.queue_us.len();
        if served == 0 {
            return;
        }
        layers.set("serve.queue_wait_us_p50", stats::percentile(&self.queue_us, 50.0));
        layers.set("serve.queue_wait_us_p99", stats::percentile(&self.queue_us, 99.0));
        layers.set("serve.exec_us_p50", stats::percentile(&self.exec_us, 50.0));
        layers.set("serve.batch_size_mean", self.batch_sizes as f64 / served as f64);
        layers.set("serve.mode_multi_share", self.multi as f64 / served as f64);
        layers.set("serve.rejected", rejected as f64);
        layers.set("serve.utilisation", self.busy_ns / 1e9 / wall_s);
    }
}

/// Spans of one served request, placed from what `ResponseMeta`
/// reports: the request starts when the client sent it, waits
/// `queue_ns` and is answered `e2e_ns` after admission. `parent` is
/// the transport's span (0 in process).
pub fn request_spans(
    buf: &mut SpanBuf,
    parent: u64,
    request: u64,
    sent_ns: u64,
    meta: &ResponseMeta,
) {
    let served = buf.span(parent, request, "serve.service.request", sent_ns, sent_ns + meta.e2e_ns);
    buf.span(served, request, "serve.service.queue", sent_ns, sent_ns + meta.queue_ns);
}

/// The cells every traced run fills the same way, after its measured
/// phases and once its spans are absorbed: the seed-independent layer
/// probes, the host reference and the tracer's own cost.
pub fn common_layers(ctx: &Ctx, layers: &mut Layers, host: &HostRef, measured_s: f64) {
    probes::distance(layers);
    probes::proto(layers);
    host.fill_layers(layers);
    probes::trace_overhead(ctx, layers, ctx.tracer.absorbed(), measured_s);
}
