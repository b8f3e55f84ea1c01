//! Cross-crate integration: every index in the workspace builds over
//! the same dataset and reaches its expected recall floor, CAGRA's
//! full pipeline (dataset -> NN-Descent -> optimize -> search ->
//! gpu-sim costing) holds together end to end, and the `obs` registry
//! records what that pipeline did.

use cagra_repro::prelude::*;
use ganns::{Ganns, GannsParams};
use ggnn::{Ggnn, GgnnParams};
use gpu_sim::{search_batch_traced, simulate_batch, DeviceSpec};
use hnsw::{Hnsw, HnswParams};
use knn::brute::ground_truth;
use nssg::{Nssg, NssgParams};

const N: usize = 3000;
const DIM: usize = 24;
const K: usize = 10;

fn workload() -> (Dataset, Dataset, Vec<Vec<u32>>) {
    let spec = SynthSpec { dim: DIM, n: N, queries: 60, family: Family::Gaussian, seed: 0xeefe };
    let (base, queries) = spec.generate();
    let gt = ground_truth(&base, Metric::SquaredL2, &queries, K);
    (base, queries, gt)
}

fn recall(results: &[Vec<Neighbor>], gt: &[Vec<u32>]) -> f64 {
    let mut hit = 0;
    for (res, truth) in results.iter().zip(gt) {
        for t in truth {
            if res.iter().any(|n| n.id == *t) {
                hit += 1;
            }
        }
    }
    hit as f64 / (gt.len() * K) as f64
}

fn clone_of(base: &Dataset) -> Dataset {
    Dataset::from_flat(base.as_flat().to_vec(), base.dim())
}

#[test]
fn cagra_pipeline_end_to_end() {
    let (base, queries, gt) = workload();
    let (index, report) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    assert!(report.total().as_secs_f64() > 0.0);
    assert_eq!(index.graph().degree(), 16);
    assert_eq!(index.graph().self_loops(), 0);

    let mut params = SearchParams::for_k(K);
    params.itopk = 128;
    let hash = HashPolicy::Forgettable { bits: 11, reset_interval: 1 };
    let out = search_batch_traced(&index, &queries, K, &params, Mode::SingleCta, hash);
    let results: Vec<_> = out.iter().map(|(r, _)| r.clone()).collect();
    let r = recall(&results, &gt);
    assert!(r > 0.9, "CAGRA recall@10 = {r}");

    // Traces cost on the device model with sane magnitudes.
    let traces: Vec<_> = out.into_iter().map(|(_, t)| t).collect();
    let timing = simulate_batch(&DeviceSpec::a100(), &traces, DIM, 4, 8, Mode::SingleCta);
    assert!(timing.qps > 1000.0, "simulated QPS {} too low to be plausible", timing.qps);
    assert!(timing.seconds < 1.0, "60 queries cannot take {}s on an A100", timing.seconds);
}

#[test]
fn all_baselines_reach_their_floors() {
    let (base, queries, gt) = workload();

    let h = Hnsw::build(clone_of(&base), Metric::SquaredL2, HnswParams::new(8));
    let r = recall(&h.search_batch(&queries, K, 128), &gt);
    assert!(r > 0.9, "HNSW recall {r}");

    let (g, _) = Nssg::build(clone_of(&base), Metric::SquaredL2, NssgParams::new(16));
    let r = recall(&g.search_batch(&queries, K, 128), &gt);
    assert!(r > 0.85, "NSSG recall {r}");

    let (g, _) = Ggnn::build(clone_of(&base), Metric::SquaredL2, GgnnParams::new(16));
    let results: Vec<_> = g.search_batch(&queries, K, 128).into_iter().map(|(r, _)| r).collect();
    let r = recall(&results, &gt);
    assert!(r > 0.85, "GGNN recall {r}");

    let (g, _) = Ganns::build(clone_of(&base), Metric::SquaredL2, GannsParams::new(8));
    let results: Vec<_> = g.search_batch(&queries, K, 128).into_iter().map(|(r, _)| r).collect();
    let r = recall(&results, &gt);
    assert!(r > 0.85, "GANNS recall {r}");
}

#[test]
fn cagra_beats_its_own_unoptimized_knn_graph() {
    // The optimization exists to improve search: at equal degree and
    // equal search settings, the CAGRA graph must reach at least the
    // recall of the truncated k-NN graph it started from.
    let (base, queries, gt) = workload();
    let d = 16;
    let knn = knn::NnDescent::new(knn::NnDescentParams::new(2 * d)).build(&base, Metric::SquaredL2);
    let plain_rows: Vec<Vec<u32>> =
        knn.rows().map(|l| l[..d].iter().map(|n| n.id).collect()).collect();
    let plain = graph::FixedDegreeGraph::from_rows(&plain_rows, d);
    let opts = cagra::optimize::OptimizeOptions::new(d);
    let optimized = cagra::optimize::optimize(&knn, &base, Metric::SquaredL2, &opts);

    let params = SearchParams::for_k(K);
    let search = |g: &graph::FixedDegreeGraph| {
        let index = CagraIndex::from_parts(clone_of(&base), g.clone(), Metric::SquaredL2);
        let out = index.search_batch(&queries, K, &params);
        recall(&out, &gt)
    };
    let r_plain = search(&plain);
    let r_opt = search(&optimized);
    assert!(
        r_opt >= r_plain - 0.01,
        "optimized graph recall {r_opt} must not trail knn graph {r_plain}"
    );
    assert!(r_opt > 0.85, "optimized recall {r_opt}");
}

#[test]
fn fp16_index_matches_fp32_results_closely() {
    let (base, queries, gt) = workload();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let index16 =
        CagraIndex::from_parts(index.store().to_f16(), index.graph().clone(), Metric::SquaredL2);
    let params = SearchParams::for_k(K);
    let r32 = recall(&index.search_batch(&queries, K, &params), &gt);
    let r16 = recall(&index16.search_batch(&queries, K, &params), &gt);
    assert!((r32 - r16).abs() < 0.03, "fp32 {r32} vs fp16 {r16}");
}

/// The rerank pass counts each kept id the approximate traversal had
/// ranked below k. No other test in this file reranks, so the
/// counter's delta over the batch is exact.
#[test]
fn rerank_counts_exactly_the_ids_it_promotes() {
    let (base, queries, _) = workload();
    let codes = cagra_repro::dataset::pq::build(&base, &cagra_repro::dataset::pq::PqConfig::new(4));
    let (graph, _) = cagra::build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
    let mut index = CagraIndex::from_parts(codes, graph, Metric::SquaredL2);
    let approx = SearchParams { itopk: 128, ..SearchParams::for_k(K) };
    let ranked = index.search_batch(&queries, K, &approx);
    index.set_rerank_store(Box::new(clone_of(&base)));
    let promoted = || obs::metrics().search_rerank_promoted.get();
    let before = promoted();
    let kept = index.search_batch(&queries, K, &SearchParams { rerank_depth: 64, ..approx });
    let counted = promoted() - before;
    let want: usize = ranked
        .iter()
        .zip(&kept)
        .map(|(r, k)| k.iter().filter(|n| r.iter().all(|a| a.id != n.id)).count())
        .sum();
    assert!(want > 0, "4-byte PQ codes must rank some exact neighbors below k");
    assert_eq!(counted, want as u64);
}

/// The registry is process-global and the tests in this file run in
/// parallel, so the assertions are lower bounds on deltas.
#[test]
fn build_and_search_populate_the_metrics_registry() {
    let (base, queries, _) = workload();
    let snap = || obs::metrics().snapshot();
    let counter = |s: &obs::MetricsSnapshot, name: &str| {
        s.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap()
    };
    let iterations = |s: &obs::MetricsSnapshot| {
        s.histograms.iter().find(|h| h.name == "search.iterations").map(|h| h.count).unwrap()
    };
    let n = queries.len() as u64;

    let before = snap();
    let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
    let out = index
        .try_search_batch(&queries, K, &SearchParams::for_k(K), Mode::SingleCta, false)
        .unwrap();
    assert_eq!(out.neighbors.len(), queries.len());
    let after = snap();

    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    assert!(delta("build.graphs") >= 1, "build.graphs +{}", delta("build.graphs"));
    assert!(delta("search.queries") >= n, "search.queries +{}", delta("search.queries"));
    let iters = iterations(&after) - iterations(&before);
    assert!(iters >= n, "search.iterations count +{iters}");

    // Every metric the registry declares is exported under its dotted
    // name (`search_latency_ns` -> `search.latency_ns`) in the section
    // its type belongs to. The pretty Debug form lists the declared
    // fields one per line at the first indent level.
    let json = after.to_json();
    let declared = format!("{:#?}", obs::metrics());
    let fields: Vec<(&str, &str)> = declared
        .lines()
        .filter(|l| l.starts_with("    ") && !l.starts_with("     "))
        .filter_map(|l| l.trim().strip_suffix(" {")?.split_once(": "))
        .collect();
    assert_eq!(fields.len(), after.counters.len() + after.spans.len() + after.histograms.len());
    for (field, kind) in fields {
        let name = field.replacen('_', ".", 1);
        let entry = format!("{{\"name\": \"{name}\", ");
        let line = json.lines().find(|l| l.contains(&entry));
        let line = line.unwrap_or_else(|| panic!("{field} ({kind}) missing from the snapshot"));
        let key = match kind {
            "Counter" => "\"value\"",
            "Span" => "\"total_ns\"",
            "Histogram" => "\"p99\"",
            other => panic!("{field} has unexpected metric type {other}"),
        };
        assert!(line.contains(key), "{name} exported as the wrong kind: {line}");
    }
}
