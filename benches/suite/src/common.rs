//! What the four workloads share: the run context, operation tallies,
//! output checks, the read log behind every latency and throughput
//! figure, timed builds, and the fixed write rounds.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, LATENCY_BLOCK};
use crate::trace::{SpanBuf, Tracer};
use cagra::{BuildReport, CagraIndex, DynamicIndex, DynamicParams, GraphConfig};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use graph::FixedDegreeGraph;
use knn::Neighbor;
use std::collections::BTreeMap;

/// Results asked of every read.
pub const K: usize = 10;
/// Recall@10 below this fails the run.
pub const RECALL_FLOOR: f64 = 0.90;

pub struct Ctx {
    pub seed: u64,
    /// Seconds of measured phases.
    pub seconds: f64,
    /// Small sizes for the smoke test.
    pub quick: bool,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    pub fn pick(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The deadline, on the tracer's clock, of a phase that gets
    /// `share` of the measured seconds and starts now.
    pub fn deadline(&self, share: f64) -> u64 {
        self.now_ns() + (self.seconds * share * 1e9) as u64
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    pub fn count(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// One measured phase as reported: operations and timing samples.
pub struct Phase {
    pub name: &'static str,
    pub tally: Tally,
    pub samples: usize,
}

/// A read's answer is usable: exactly `k` distinct ids below
/// `id_limit`, finite distances in ascending order.
pub fn valid_neighbors(res: &[Neighbor], k: usize, id_limit: u32) -> bool {
    res.len() == k
        && res.iter().all(|n| n.id < id_limit && n.dist.is_finite())
        && res.windows(2).all(|w| w[0].dist <= w[1].dist)
        && res.iter().enumerate().all(|(i, a)| res[..i].iter().all(|b| b.id != a.id))
}

pub fn hits(res: &[Neighbor], truth: &[u32]) -> u64 {
    res.iter().filter(|n| truth.contains(&n.id)).count() as u64
}

/// Verified reads of one phase (or one client of it): latency and
/// completion time of each, and recall against the ground truth.
#[derive(Default)]
pub struct ReadLog {
    /// `(done_ns, latency_ns)` per verified read.
    pub reads: Vec<(u64, u64)>,
    pub tally: Tally,
    pub hits: u64,
    pub wanted: u64,
}

impl ReadLog {
    /// Count a read the caller has checked. A read that failed its
    /// check is a failed operation and contributes no sample.
    pub fn log(&mut self, start_ns: u64, done_ns: u64, ok: bool) {
        self.tally.count(ok);
        if ok {
            self.reads.push((done_ns, done_ns - start_ns));
        }
    }

    /// Check an answered read against the output rules and the ground
    /// truth, and log it.
    pub fn record(
        &mut self,
        start_ns: u64,
        done_ns: u64,
        res: &[Neighbor],
        id_limit: u32,
        truth: &[u32],
    ) {
        let ok = valid_neighbors(res, K, id_limit);
        self.log(start_ns, done_ns, ok);
        if ok {
            self.hits += hits(res, truth);
            self.wanted += truth.len() as u64;
        }
    }

    pub fn fail(&mut self) {
        self.tally.count(false);
    }

    /// Fold another client's log in and restore completion order.
    pub fn merge(&mut self, other: ReadLog) {
        self.reads.extend(other.reads);
        self.reads.sort_unstable();
        self.tally.add(other.tally);
        self.hits += other.hits;
        self.wanted += other.wanted;
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.reads.iter().map(|&(_, lat)| lat as f64 / 1e6).collect()
    }

    pub fn p50_ms(&self) -> f64 {
        stats::block_percentile(&self.latencies_ms(), LATENCY_BLOCK, 50.0)
    }

    pub fn p99_ms(&self) -> f64 {
        stats::block_percentile(&self.latencies_ms(), LATENCY_BLOCK, 99.0)
    }

    /// Per-block throughput over blocks of `block` completions.
    pub fn qps_blocks(&self, block: usize) -> Vec<f64> {
        let done: Vec<f64> = self.reads.iter().map(|&(done, _)| done as f64 / 1e9).collect();
        stats::throughput_blocks(&done, block)
    }

    pub fn recall(&self) -> f64 {
        self.hits as f64 / self.wanted.max(1) as f64
    }

    pub fn phase(&self, name: &'static str) -> Phase {
        Phase { name, tally: self.tally, samples: self.reads.len() }
    }
}

/// The eight end-to-end values of a run.
#[derive(Default)]
pub struct E2e {
    pub setup_s: f64,
    pub build_vec_per_s: f64,
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub recall_at_10: f64,
    pub bytes_per_vector: f64,
    pub write_p50_ms: f64,
}

impl E2e {
    /// Values in the order of [`END_TO_END`].
    pub fn values(&self) -> [f64; END_TO_END.len()] {
        [
            self.setup_s,
            self.build_vec_per_s,
            self.qps,
            self.p50_ms,
            self.p99_ms,
            self.recall_at_10,
            self.bytes_per_vector,
            self.write_p50_ms,
        ]
    }
}

/// Per-layer values by declared name; a layer a workload leaves idle
/// stays 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    /// Panics on a name `spec::PER_LAYER` does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) =
            value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

pub struct Outcome {
    pub e2e: E2e,
    /// Samples behind each timing cell, in the order of [`END_TO_END`]
    /// (0 for the exact cells).
    pub samples: [usize; END_TO_END.len()],
    pub phases: Vec<Phase>,
    pub layers: Layers,
}

/// Resident bytes per row: the store's own plus the graph's `degree`
/// 4-byte neighbours.
pub fn bytes_per_vector<S: VectorStore>(index: &CagraIndex<S>) -> f64 {
    (index.store().bytes_per_vector() + index.graph().degree() * 4) as f64
}

/// One timed `CagraIndex::build`.
pub struct Built {
    pub index: CagraIndex<Dataset>,
    pub wall_s: f64,
    pub report: BuildReport,
}

/// Call the public build and record `cagra.build` with the stage spans
/// its report describes.
pub fn timed_build(
    ctx: &Ctx,
    buf: &mut SpanBuf,
    base: Dataset,
    metric: Metric,
    degree: usize,
) -> Built {
    let config = GraphConfig::new(degree);
    let t0 = ctx.now_ns();
    let (index, report) = CagraIndex::build(base, metric, &config);
    let t1 = ctx.now_ns();
    if buf.enabled() {
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        let build = buf.span(0, 0, "cagra.build", t0, t1);
        let knn_end = t0 + ns(report.knn_time);
        buf.span(build, 0, "knn.nn_descent", t0, knn_end);
        let opt = buf.span(build, 0, "cagra.optimize", knn_end, knn_end + ns(report.opt_time));
        let mut at = knn_end;
        for (name, d) in [
            ("cagra.optimize.reorder", report.stats.reorder),
            ("cagra.optimize.reverse", report.stats.reverse),
            ("cagra.optimize.merge", report.stats.merge),
        ] {
            buf.span(opt, 0, name, at, at + ns(d));
            at += ns(d);
        }
    }
    Built { index, wall_s: (t1 - t0) as f64 / 1e9, report }
}

/// Fill the `knn.*` and `cagra.*` stage cells from the build reports
/// of a run: the median over its builds, and the last build's counts.
pub fn build_layers(layers: &mut Layers, reports: &[BuildReport]) {
    let med = |f: &dyn Fn(&BuildReport) -> std::time::Duration| {
        stats::median(&reports.iter().map(|r| f(r).as_secs_f64()).collect::<Vec<_>>())
    };
    layers.set("knn.nn_descent_s", med(&|r| r.knn_time));
    layers.set("knn.nn_init_s", med(&|r| r.stats.nn_init));
    layers.set("knn.nn_iters_s", med(&|r| r.stats.nn_iters));
    layers.set("cagra.optimize_s", med(&|r| r.opt_time));
    layers.set("cagra.reorder_s", med(&|r| r.stats.reorder));
    layers.set("cagra.reverse_s", med(&|r| r.stats.reverse));
    layers.set("cagra.merge_s", med(&|r| r.stats.merge));
    let last = reports.last().expect("a run builds at least once");
    layers.set("knn.nn_iterations", f64::from(last.stats.nn_iterations));
    layers.set("knn.nn_distances", last.nn_distance_computations as f64);
}

/// Fill the graph's size and the two quality counts that pin "equal
/// graph quality". They walk the whole graph, so only the traced run
/// asks for them.
pub fn graph_layers(layers: &mut Layers, g: &FixedDegreeGraph) {
    layers.set("cagra.graph_bytes_per_vector", (g.degree() * 4) as f64);
    let adj = graph::AdjacencyGraph::from_fixed(g);
    layers.set("graph.two_hop_mean", graph::two_hop::average_two_hop(&adj));
    layers.set("graph.scc_count", graph::scc::strongly_connected_components(&adj).count as f64);
}

/// A fixed integer loop; its time before and after each phase tells a
/// slow host from a slow program.
pub fn ref_loop_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// How long [`warm_host`] keeps the cores busy.
pub const WARM_HOST_MS: u64 = 1500;

/// Keep `threads` cores busy for [`WARM_HOST_MS`] before anything is
/// timed. After this host has idled for three seconds or more — the
/// gap between two runs, or a run that mostly waited on a socket — two
/// threads share one core's worth of speed for the next 1.2 s (a 0.16 s
/// two-thread build takes 0.31 s, its one-thread time), and a set-up
/// that lasts a second is measured entirely inside that ramp. One busy
/// thread does not end the ramp; two busy for a second do.
pub fn warm_host(threads: usize) {
    let until = std::time::Instant::now() + std::time::Duration::from_millis(WARM_HOST_MS);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while std::time::Instant::now() < until {
                    ref_loop_ms();
                }
            });
        }
    });
}

/// The fixed write rounds every workload but `churn_mixed` runs
/// between its measured phases: a fresh `DynamicIndex` (compactor off)
/// takes `inserts` of the workload's own base rows and `deletes` of
/// them, each call timed. One round is one block; the rounds are
/// spread over the run so a slow second of the host hits one of them.
pub struct WriteRounds<'a> {
    base: &'a Dataset,
    metric: Metric,
    degree: usize,
    inserts: usize,
    deletes: usize,
    /// Median insert time of each round, ms.
    pub round_p50_ms: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub small_delta_us: Vec<f64>,
    pub large_delta_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub tally: Tally,
}

/// Delta sizes that bound the small- and large-delta insert cells.
pub const SMALL_DELTA: usize = 128;
pub const LARGE_DELTA: usize = 384;

impl<'a> WriteRounds<'a> {
    pub fn new(ctx: &Ctx, base: &'a Dataset, metric: Metric, degree: usize) -> Self {
        let inserts = ctx.pick(2000, 300).min(base.len());
        WriteRounds {
            base,
            metric,
            degree,
            inserts,
            deletes: inserts / 10,
            round_p50_ms: Vec::new(),
            insert_us: Vec::new(),
            small_delta_us: Vec::new(),
            large_delta_us: Vec::new(),
            delete_us: Vec::new(),
            tally: Tally::default(),
        }
    }

    pub fn round(&mut self, ctx: &Ctx, buf: &mut SpanBuf) {
        let params = DynamicParams { auto_compact: false, ..DynamicParams::new(self.degree) };
        let index = DynamicIndex::new(self.base.dim(), self.metric, params);
        let mut round_ms = Vec::with_capacity(self.inserts);
        for i in 0..self.inserts {
            let t0 = ctx.now_ns();
            let id = index.insert(self.base.row(i));
            let t1 = ctx.now_ns();
            buf.span(0, 0, "cagra.dynamic.insert", t0, t1);
            // The compactor is off, so the delta holds `i` rows here.
            self.tally.count(id == Ok(i as u32));
            let us = (t1 - t0) as f64 / 1e3;
            round_ms.push(us / 1e3);
            self.insert_us.push(us);
            if i < SMALL_DELTA {
                self.small_delta_us.push(us);
            } else if i >= LARGE_DELTA {
                self.large_delta_us.push(us);
            }
        }
        // Delete every tenth row, then ask for a deleted row by its own
        // vector: it must not come back once its delete was acked.
        let deletes = self.deletes;
        let deleted = |row: usize| row.is_multiple_of(10) && row / 10 < deletes;
        for row in (0..self.deletes).map(|j| j * 10) {
            let t0 = ctx.now_ns();
            let was_live = index.delete(row as u32);
            let t1 = ctx.now_ns();
            buf.span(0, 0, "cagra.dynamic.delete", t0, t1);
            self.tally.count(was_live);
            self.delete_us.push((t1 - t0) as f64 / 1e3);
        }
        for row in (0..self.deletes).step_by(10).map(|j| j * 10) {
            let t0 = ctx.now_ns();
            let res = index.search(self.base.row(row), K);
            buf.span(0, 0, "cagra.dynamic.search", t0, ctx.now_ns());
            let ok = valid_neighbors(&res, K, self.inserts as u32)
                && res.iter().all(|n| !deleted(n.id as usize));
            self.tally.count(ok);
        }
        self.round_p50_ms.push(stats::percentile(&round_ms, 50.0));
    }

    pub fn write_p50_ms(&self) -> f64 {
        stats::median(&self.round_p50_ms)
    }

    pub fn phase(&self) -> Phase {
        Phase { name: "write_rounds", tally: self.tally, samples: self.insert_us.len() }
    }

    pub fn fill_layers(&self, layers: &mut Layers) {
        let p50 = |us: &[f64]| stats::percentile_or_zero(us, 50.0);
        layers.set("dynamic.insert_us_p50", p50(&self.insert_us));
        layers.set("dynamic.insert_us_small_delta", p50(&self.small_delta_us));
        layers.set("dynamic.insert_us_large_delta", p50(&self.large_delta_us));
        layers.set("dynamic.delete_us_p50", p50(&self.delete_us));
        layers.set(
            "loadgen.write_p99_ms",
            stats::block_percentile(&self.insert_us, LATENCY_BLOCK, 99.0) / 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(id: u32, dist: f32) -> Neighbor {
        Neighbor::new(id, dist)
    }

    #[test]
    fn answers_that_are_short_unsorted_out_of_range_or_repeated_fail_the_check() {
        let good: Vec<Neighbor> = (0..10).map(|i| nb(i, i as f32)).collect();
        assert!(valid_neighbors(&good, 10, 10));
        assert!(!valid_neighbors(&good[..9], 10, 10), "short");
        assert!(!valid_neighbors(&good, 10, 9), "id out of range");
        let mut unsorted = good.clone();
        unsorted.swap(3, 4);
        assert!(!valid_neighbors(&unsorted, 10, 10), "unsorted");
        let mut repeated = good.clone();
        repeated[5].id = 4;
        assert!(!valid_neighbors(&repeated, 10, 10), "repeated id");
        let mut nan = good.clone();
        nan[9].dist = f32::NAN;
        assert!(!valid_neighbors(&nan, 10, 10), "NaN distance");
    }

    #[test]
    fn a_failed_read_counts_and_leaves_no_sample() {
        let good: Vec<Neighbor> = (0..10).map(|i| nb(i, i as f32)).collect();
        let truth: Vec<u32> = (5..15).collect();
        let mut log = ReadLog::default();
        log.record(100, 350, &good, 10, &truth);
        log.record(400, 500, &good[..3], 10, &truth);
        assert_eq!((log.tally.sent, log.tally.ok, log.tally.failed), (2, 1, 1));
        assert_eq!(log.reads, vec![(350, 250)]);
        assert_eq!(log.recall(), 0.5);
    }

    #[test]
    fn every_declared_layer_starts_idle_and_undeclared_names_are_refused() {
        let mut layers = Layers::new();
        assert_eq!(layers.0.len(), PER_LAYER.len());
        layers.set("trace.spans", 3.0);
        assert_eq!(layers.get("trace.spans"), 3.0);
        assert!(std::panic::catch_unwind(move || layers.set("no.such", 1.0)).is_err());
    }
}
