//! The seven subcommands. Each refuses flags it does not accept and
//! returns its human-readable report as a string so the integration
//! tests can assert on it.

use crate::args::Args;
use cagra::build::GraphConfig;
use cagra::index_io::Bundle;
use cagra::params::ReorderStrategy;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, RelabelStrategy, SearchParams};
use dataset::pq::PqConfig;
use dataset::presets::{DatasetPreset, PresetName};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use graph::stats::{graph_stats, locality_stats};
use graph::AdjacencyGraph;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

/// Parse `--rerank <depth>` (absent or 0 = single-phase search).
fn parse_rerank(args: &Args, k: usize) -> Result<usize, String> {
    let depth = args.usize_or("rerank", 0)?;
    if depth > 0 && depth < k {
        return Err(format!("--rerank {depth} must be at least k ({k})"));
    }
    Ok(depth)
}

/// Parse `--relabel <identity|degree|rcm|gorder>` (absent = identity).
fn parse_relabel(args: &Args) -> Result<RelabelStrategy, String> {
    match args.opt("relabel") {
        None => Ok(RelabelStrategy::Identity),
        Some(s) => RelabelStrategy::parse(s)
            .ok_or_else(|| format!("unknown relabel strategy '{s}' (identity|degree|rcm|gorder)")),
    }
}

/// One-line memory-locality summary of a graph's numbering.
fn locality_line(g: &graph::FixedDegreeGraph, vec_row_bytes: usize) -> String {
    let s = locality_stats(g, vec_row_bytes);
    format!(
        "locality: mean edge span {:.0}, bandwidth {}, est row tx {:.2}",
        s.mean_edge_span, s.bandwidth, s.est_row_transactions
    )
}

fn parse_metric(args: &Args) -> Result<Metric, String> {
    match args.opt("metric").unwrap_or("l2") {
        "l2" => Ok(Metric::SquaredL2),
        "ip" => Ok(Metric::InnerProduct),
        "cosine" => Ok(Metric::Cosine),
        other => Err(format!("unknown metric '{other}' (l2|ip|cosine)")),
    }
}

fn read_dataset(path: &str) -> Result<Dataset, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    dataset::io::read_fvecs(BufReader::new(f)).map_err(|e| format!("read {path}: {e}"))
}

/// Honour `--metrics-out FILE`: dump the global metrics registry as
/// JSON and append the human-readable table to the command report.
/// A no-op when the flag is absent.
fn dump_metrics(args: &Args, report: &mut String) -> Result<(), String> {
    let Some(path) = args.opt("metrics-out") else { return Ok(()) };
    let snap = obs::metrics().snapshot();
    std::fs::write(path, snap.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    let _ = writeln!(report, "\n{}", snap.render());
    let _ = writeln!(report, "[metrics written to {path}]");
    Ok(())
}

fn create(path: &str) -> Result<BufWriter<File>, String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    Ok(BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?))
}

/// `synth`: generate a preset-shaped dataset as fvecs files.
pub fn synth(args: &Args) -> Result<String, String> {
    args.accept_only(&["preset", "n", "queries", "seed", "out-dir"])?;
    let preset = PresetName::parse(args.req("preset")?)
        .ok_or_else(|| "unknown preset (sift|gist|glove|nytimes|deep)".to_string())?;
    let n = args.req_usize("n")?;
    let queries = args.usize_or("queries", 100)?;
    let seed = args.u64_or("seed", 0xda7a)?;
    let dir = args.req("out-dir")?;
    let (base, qs) = DatasetPreset::get(preset).spec(n, queries, seed).generate();
    let base_path = format!("{dir}/base.fvecs");
    let q_path = format!("{dir}/queries.fvecs");
    dataset::io::write_fvecs(create(&base_path)?, &base).map_err(|e| e.to_string())?;
    dataset::io::write_fvecs(create(&q_path)?, &qs).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {n} x {}d base vectors to {base_path} and {queries} queries to {q_path}",
        base.dim()
    ))
}

/// `gt`: exact ground truth as ivecs.
pub fn ground_truth(args: &Args) -> Result<String, String> {
    args.accept_only(&["base", "queries", "k", "metric", "out"])?;
    let base = read_dataset(args.req("base")?)?;
    let queries = read_dataset(args.req("queries")?)?;
    let k = args.req_usize("k")?;
    let metric = parse_metric(args)?;
    let out = args.req("out")?;
    let t0 = Instant::now();
    let gt = knn::brute::ground_truth(&base, metric, &queries, k);
    dataset::io::write_ivecs(create(out)?, &gt).map_err(|e| e.to_string())?;
    Ok(format!("wrote exact top-{k} for {} queries to {out} in {:.2?}", gt.len(), t0.elapsed()))
}

/// `build`: construct and persist a CAGRA graph.
pub fn build(args: &Args) -> Result<String, String> {
    args.accept_only(&["base", "degree", "metric", "strategy", "d-init", "out", "metrics-out"])?;
    let base = read_dataset(args.req("base")?)?;
    let degree = args.req_usize("degree")?;
    let metric = parse_metric(args)?;
    let strategy = match args.opt("strategy").unwrap_or("rank") {
        "rank" => ReorderStrategy::RankBased,
        "distance" => ReorderStrategy::DistanceBased,
        other => return Err(format!("unknown strategy '{other}' (rank|distance)")),
    };
    let d_init = args.usize_or("d-init", 0)?;
    let out = args.req("out")?;
    let config = GraphConfig { strategy, intermediate_degree: d_init, ..GraphConfig::new(degree) };
    let (index, report) = CagraIndex::build(base, metric, &config);
    graph::io::write_fixed(create(out)?, index.graph()).map_err(|e| e.to_string())?;
    let s = report.stats;
    let mut text = format!(
        "built degree-{degree} graph over {} vectors in {:.2?} (kNN {:.2?} + optimize {:.2?}); wrote {out}\n\
         stages: nn-init {:.2?} | nn-iters {:.2?} ({} iters) | reorder {:.2?} | reverse {:.2?} | merge {:.2?}; \
         distances: nn {} + opt {}",
        index.graph().len(),
        report.total(),
        report.knn_time,
        report.opt_time,
        s.nn_init,
        s.nn_iters,
        s.nn_iterations,
        s.reorder,
        s.reverse,
        s.merge,
        report.nn_distance_computations,
        s.opt_distance_computations,
    );
    let _ = write!(text, "\n{}", locality_line(index.graph(), index.store().dim() * 4));
    dump_metrics(args, &mut text)?;
    Ok(text)
}

/// `bundle`: build and persist a single-file index (vectors + graph +
/// metric together, so they cannot drift apart). `--relabel` renumbers
/// graph and vectors jointly for memory locality; the permutation is
/// persisted so loaded bundles keep answering in original ids.
/// `--pq M` writes a product-quantized v3 bundle instead: M-byte codes
/// plus the graph up front, the full-precision rows as a mmap-able
/// tail that `search --rerank` re-scores against.
pub fn bundle(args: &Args) -> Result<String, String> {
    args.accept_only(&["base", "degree", "metric", "relabel", "pq", "out"])?;
    let base = read_dataset(args.req("base")?)?;
    let degree = args.req_usize("degree")?;
    let metric = parse_metric(args)?;
    let relabel = parse_relabel(args)?;
    let pq_m = match args.opt("pq") {
        None => None,
        Some(v) => {
            let m: usize = v.parse().map_err(|_| "--pq must be a number".to_string())?;
            if m == 0 || m > base.dim() {
                return Err(format!("--pq {m} must be in 1..={} (the dataset dim)", base.dim()));
            }
            Some(m)
        }
    };
    let out = args.req("out")?;
    let config = GraphConfig::new(degree);
    // PQ bundles store the full-precision rows in original id order;
    // keep a copy before the build (possibly) relabels the store.
    let full = pq_m.map(|_| Dataset::from_flat(base.as_flat().to_vec(), base.dim()));
    let (index, report) = match relabel {
        RelabelStrategy::Identity => CagraIndex::build(base, metric, &config),
        s => CagraIndex::build_with_relabel(base, metric, &config, s),
    };
    let mut text = match pq_m {
        None => {
            cagra::index_io::write_index(create(out)?, &index).map_err(|e| e.to_string())?;
            format!(
                "bundled {} vectors + degree-{degree} graph into {out} (built in {:.2?})",
                index.store().len(),
                report.total()
            )
        }
        Some(m) => {
            // Encode in the index's (possibly relabeled) row order so
            // codes stay aligned with the graph.
            let store = dataset::pq::build(index.store(), &PqConfig::new(m));
            let pq_index = CagraIndex::from_parts_mapped(
                store,
                index.graph().clone(),
                metric,
                index.id_map().cloned(),
            );
            let full = full.expect("full-precision copy kept for PQ bundles");
            cagra::index_io::write_index_pq(create(out)?, &pq_index, &full)
                .map_err(|e| e.to_string())?;
            format!(
                "bundled {} vectors as {m}-byte PQ codes + degree-{degree} graph into {out} \
                 (built in {:.2?}; resident {m} B/vec vs f32 {} B/vec, rerank tail mmap'd)",
                pq_index.store().len(),
                report.total(),
                full.bytes_per_vector()
            )
        }
    };
    if let Some(m) = index.id_map() {
        let _ = write!(
            text,
            "\nrelabeled with {} in {:.2?}; {}",
            m.strategy.label(),
            report.stats.relabel,
            locality_line(index.graph(), index.store().dim() * 4)
        );
    }
    Ok(text)
}

/// Load a persisted index: either `--index bundle.cgix` (storage
/// flavour read from the bundle — v3 PQ bundles get their mmap'd
/// rerank tail attached) or the `--base fvecs --graph cagra
/// [--metric m]` pair (shared by `search` and `serve`).
fn load_index(args: &Args) -> Result<Bundle, String> {
    if let Some(bundle_path) = args.opt("index") {
        cagra::index_io::read_bundle(Path::new(bundle_path))
            .map_err(|e| format!("load {bundle_path}: {e}"))
    } else {
        let base = read_dataset(args.req("base")?)?;
        let graph_file = File::open(args.req("graph")?).map_err(|e| e.to_string())?;
        let g = graph::io::read_fixed(BufReader::new(graph_file)).map_err(|e| e.to_string())?;
        let metric = parse_metric(args)?;
        Ok(Bundle::F32(CagraIndex::from_parts(base, g, metric)))
    }
}

/// `search`: query a persisted index; reports recall when ground truth
/// is supplied. Accepts either `--index bundle.cgix` or the
/// `--base fvecs --graph cagra` pair. `--rerank R` enables two-phase
/// search on PQ bundles: traversal over approximate distances, then an
/// exact re-score of the top R candidates against the mmap'd
/// full-precision rows.
pub fn search(args: &Args) -> Result<String, String> {
    args.accept_only(&[
        "index",
        "base",
        "graph",
        "metric",
        "queries",
        "k",
        "itopk",
        "mode",
        "rerank",
        "gt",
        "metrics-out",
    ])?;
    let queries = read_dataset(args.req("queries")?)?;
    let k = args.req_usize("k")?;
    let mut params = SearchParams::for_k(k);
    params.itopk = args.usize_or("itopk", params.itopk)?.max(k);
    params.rerank_depth = parse_rerank(args, k)?;
    let mode = match args.opt("mode").unwrap_or("single") {
        "single" => Mode::SingleCta,
        "multi" => Mode::MultiCta,
        other => return Err(format!("unknown mode '{other}' (single|multi)")),
    };

    let index = load_index(args)?;
    if params.rerank_depth > 0 && matches!(index, Bundle::F32(_)) {
        return Err(
            "--rerank needs a full-precision rerank source; f32 indexes are already exact \
             (build a PQ bundle with `bundle --pq M`)"
                .to_string(),
        );
    }
    let t0 = Instant::now();
    let results = match &index {
        Bundle::F32(ix) => ix.try_search_batch(&queries, k, &params, mode, false),
        Bundle::Pq(ix) => ix.try_search_batch(&queries, k, &params, mode, false),
    }
    .map_err(|e| e.to_string())?
    .neighbors;
    let wall = t0.elapsed().as_secs_f64();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "searched {} queries (k={k}, itopk={}) in {:.2?}: {:.0} QPS",
        queries.len(),
        params.itopk,
        t0.elapsed(),
        queries.len() as f64 / wall
    );
    if let Some(gt_path) = args.opt("gt") {
        let gt_file = File::open(gt_path).map_err(|e| e.to_string())?;
        let gt = dataset::io::read_ivecs(BufReader::new(gt_file)).map_err(|e| e.to_string())?;
        if gt.len() != results.len() {
            return Err(format!("gt has {} rows but {} queries searched", gt.len(), results.len()));
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for (res, truth) in results.iter().zip(&gt) {
            let truth = &truth[..truth.len().min(k)];
            total += truth.len();
            hit += truth.iter().filter(|t| res.iter().any(|n| n.id == **t)).count();
        }
        let _ = writeln!(report, "recall@{k} = {:.4}", hit as f64 / total.max(1) as f64);
    } else {
        for (qi, res) in results.iter().take(5).enumerate() {
            let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
            let _ = writeln!(report, "query {qi}: {ids:?}");
        }
    }
    dump_metrics(args, &mut report)?;
    Ok(report)
}

/// `serve`: run the online query service over a persisted index.
///
/// Binds a TCP listener speaking the v1 length-prefixed protocol and
/// serves until killed. With `--self-test N` it instead drives `N`
/// requests through the freshly bound server from `--clients`
/// concurrent TCP connections (queries sampled from the index's own
/// base vectors), reports throughput and latency, and exits — the
/// smoke path the integration tests and quick-start use.
///
/// `--threads W` sets the serve workers (0, the default, means
/// `CAGRA_THREADS` or every core): each searches one request at a time,
/// so `W` bounds the requests searched at once.
pub fn serve(args: &Args) -> Result<String, String> {
    args.accept_only(&[
        "index",
        "base",
        "graph",
        "metric",
        "k",
        "itopk",
        "rerank",
        "queue-cap",
        "threads",
        "addr",
        "dynamic",
        "self-test",
        "clients",
        "metrics-out",
    ])?;
    let k = args.usize_or("k", 10)?;
    let mut params = SearchParams::for_k(k);
    params.itopk = args.usize_or("itopk", params.itopk)?.max(k);
    params.rerank_depth = parse_rerank(args, k)?;
    let mut config = serve::ServeConfig::new(params);
    config.queue_capacity = args.usize_or("queue-cap", config.queue_capacity)?;
    config.worker_threads = args.usize_or("threads", 0)?;
    let addr = args.opt("addr").unwrap_or("127.0.0.1:0");
    let self_test = match args.opt("self-test") {
        Some(v) => Some(v.parse::<usize>().map_err(|_| "--self-test must be a number")?),
        None => None,
    };

    let dynamic = args.bool_or("dynamic", false)?;
    match load_index(args)? {
        Bundle::F32(ix) => {
            if params.rerank_depth > 0 {
                return Err(
                    "--rerank needs a PQ bundle (f32 indexes are already exact)".to_string()
                );
            }
            let (sample, n) = sample_rows(&ix);
            if dynamic {
                if ix.id_map().is_some() {
                    return Err("--dynamic true needs an unrelabeled index (the dynamic \
                                wrapper owns id assignment; rebuild without --relabel)"
                        .to_string());
                }
                let degree = ix.graph().degree();
                let backend =
                    cagra::DynamicIndex::from_index(ix, cagra::DynamicParams::new(degree));
                serve_index(backend, sample, n, args, k, params, config, addr, self_test)
            } else {
                serve_index(ix, sample, n, args, k, params, config, addr, self_test)
            }
        }
        Bundle::Pq(ix) => {
            if dynamic {
                return Err(
                    "--dynamic true needs a plain f32 index (PQ bundles are static)".to_string()
                );
            }
            let (sample, n) = sample_rows(&ix);
            serve_index(ix, sample, n, args, k, params, config, addr, self_test)
        }
    }
}

/// Sample up to 128 base rows for self-test queries (decoded, so PQ
/// stores work too), plus the total row count.
fn sample_rows<S: VectorStore>(index: &CagraIndex<S>) -> (Vec<Vec<f32>>, usize) {
    let mut row = vec![0.0f32; index.store().dim()];
    let sample = (0..index.store().len().min(128))
        .map(|i| {
            index.store().get_into(i, &mut row);
            row.clone()
        })
        .collect();
    (sample, index.store().len())
}

/// The serve body, generic over the search backend (a static index of
/// either storage flavour, or the dynamic wrapper).
#[allow(clippy::too_many_arguments)]
fn serve_index<B: serve::SearchBackend>(
    backend: B,
    sample: Vec<Vec<f32>>,
    n: usize,
    args: &Args,
    k: usize,
    params: SearchParams,
    config: serve::ServeConfig,
    addr: &str,
    self_test: Option<usize>,
) -> Result<String, String> {
    let service = std::sync::Arc::new(
        serve::Service::start(backend, config).map_err(|e| format!("start service: {e}"))?,
    );
    let mut server = serve::TcpServer::spawn(std::sync::Arc::clone(&service), addr)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr();

    let Some(total) = self_test else {
        println!(
            "serving {n} vectors on {bound} (k<=itopk {}, queue-cap {}); press Ctrl-C to stop",
            params.itopk, config.queue_capacity
        );
        loop {
            std::thread::park();
        }
    };

    let clients = args.usize_or("clients", 4)?.max(1);
    let per_client = total.div_ceil(clients);
    let t0 = Instant::now();
    let outcomes: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sample = &sample;
                s.spawn(move || {
                    let mut client =
                        serve::Client::connect(bound).expect("self-test client connect");
                    let (mut ok, mut err, mut e2e_sum) = (0u64, 0u64, 0u64);
                    for i in 0..per_client {
                        let q = &sample[(c * per_client + i) % sample.len()];
                        match client.search(q, k) {
                            Ok(resp) => {
                                ok += 1;
                                e2e_sum += resp.meta.e2e_ns;
                            }
                            Err(_) => err += 1,
                        }
                    }
                    (ok, err, e2e_sum)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("self-test client")).collect()
    });
    let wall = t0.elapsed();
    server.shutdown();

    let ok: u64 = outcomes.iter().map(|o| o.0).sum();
    let err: u64 = outcomes.iter().map(|o| o.1).sum();
    let e2e_sum: u64 = outcomes.iter().map(|o| o.2).sum();
    let mut report = format!(
        "self-test on {bound}: {ok} served / {err} failed over {clients} connections in {wall:.2?} \
         ({:.0} QPS); mean e2e {:.3} ms",
        ok as f64 / wall.as_secs_f64().max(1e-9),
        e2e_sum as f64 / ok.max(1) as f64 / 1e6,
    );
    dump_metrics(args, &mut report)?;
    Ok(report)
}

/// `stats`: reachability metrics of a persisted graph (the Fig. 3
/// quantities).
pub fn stats(args: &Args) -> Result<String, String> {
    args.accept_only(&["graph", "two-hop-stride"])?;
    let graph_file = File::open(args.req("graph")?).map_err(|e| e.to_string())?;
    let g = graph::io::read_fixed(BufReader::new(graph_file)).map_err(|e| e.to_string())?;
    let stride = args.usize_or("two-hop-stride", (g.len() / 2000).max(1))?;
    let s = graph_stats(&AdjacencyGraph::from_fixed(&g), stride);
    Ok(format!(
        "nodes: {}\ndegree: {}\nstrong CC: {}\nlargest CC: {:.1}%\navg 2-hop: {:.1} (max {})\nself loops: {}",
        g.len(),
        g.degree(),
        s.strong_cc,
        100.0 * s.largest_cc_fraction,
        s.avg_two_hop,
        graph::two_hop::max_two_hop(g.degree()),
        g.self_loops()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> String {
        // Distinct per test: tests run in parallel within one process.
        let dir = std::env::temp_dir().join(format!("cagra_cli_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmpdir("full");
        let out = synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "600"),
            ("queries", "20"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        assert!(out.contains("600 x 96d"));

        let base = format!("{dir}/base.fvecs");
        let queries = format!("{dir}/queries.fvecs");
        let gt_path = format!("{dir}/gt.ivecs");
        let graph_path = format!("{dir}/graph.cagra");

        let out = ground_truth(&Args::from_pairs(&[
            ("base", &base),
            ("queries", &queries),
            ("k", "10"),
            ("out", &gt_path),
        ]))
        .unwrap();
        assert!(out.contains("top-10"));

        let out =
            build(&Args::from_pairs(&[("base", &base), ("degree", "16"), ("out", &graph_path)]))
                .unwrap();
        assert!(out.contains("degree-16"));

        let out = search(&Args::from_pairs(&[
            ("base", &base),
            ("queries", &queries),
            ("graph", &graph_path),
            ("k", "10"),
            ("gt", &gt_path),
        ]))
        .unwrap();
        assert!(out.contains("recall@10"));
        // Parse the recall and require a sane floor.
        let recall: f64 = out
            .lines()
            .find(|l| l.starts_with("recall@10"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!(recall > 0.85, "cli recall {recall}");

        let out = stats(&Args::from_pairs(&[("graph", &graph_path)])).unwrap();
        assert!(out.contains("degree: 16"));
        assert!(out.contains("self loops: 0"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bundle_workflow() {
        let dir = tmpdir("bundle");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "400"),
            ("queries", "10"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let queries = format!("{dir}/queries.fvecs");
        let bundle_path = format!("{dir}/index.cgix");
        let out =
            bundle(&Args::from_pairs(&[("base", &base), ("degree", "8"), ("out", &bundle_path)]))
                .unwrap();
        assert!(out.contains("bundled 400 vectors"));
        let metrics_path = format!("{dir}/metrics.json");
        let out = search(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("queries", &queries),
            ("k", "5"),
            ("metrics-out", &metrics_path),
        ]))
        .unwrap();
        assert!(out.contains("searched 10 queries"));
        assert!(out.contains("[metrics written to"));
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(json.contains("cagra-metrics-v1"));
        assert!(json.contains("search.iterations"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn relabeled_bundle_round_trips_and_answers_in_original_ids() {
        let dir = tmpdir("relabel");
        synth(&Args::from_pairs(&[
            ("preset", "glove"),
            ("n", "500"),
            ("queries", "10"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let queries = format!("{dir}/queries.fvecs");
        let gt_path = format!("{dir}/gt.ivecs");
        ground_truth(&Args::from_pairs(&[
            ("base", &base),
            ("queries", &queries),
            ("k", "5"),
            ("out", &gt_path),
        ]))
        .unwrap();
        let bundle_path = format!("{dir}/index.cgix");
        let out = bundle(&Args::from_pairs(&[
            ("base", &base),
            ("degree", "8"),
            ("relabel", "rcm"),
            ("out", &bundle_path),
        ]))
        .unwrap();
        assert!(out.contains("relabeled with rcm"), "report: {out}");
        assert!(out.contains("locality:"), "report: {out}");
        // The permuted bundle must still answer in original ids, so
        // recall against the pre-relabel ground truth stays high.
        let out = search(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("queries", &queries),
            ("k", "5"),
            ("gt", &gt_path),
        ]))
        .unwrap();
        let recall: f64 = out
            .lines()
            .find(|l| l.starts_with("recall@5"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!(recall > 0.85, "relabeled bundle recall {recall}");
        // Unknown strategies are rejected with the valid set listed.
        let err = bundle(&Args::from_pairs(&[
            ("base", &base),
            ("degree", "8"),
            ("relabel", "zorder"),
            ("out", &bundle_path),
        ]))
        .unwrap_err();
        assert!(err.contains("identity|degree|rcm|gorder"), "error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pq_bundle_two_phase_workflow() {
        let dir = tmpdir("pq");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "600"),
            ("queries", "20"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let queries = format!("{dir}/queries.fvecs");
        let gt_path = format!("{dir}/gt.ivecs");
        ground_truth(&Args::from_pairs(&[
            ("base", &base),
            ("queries", &queries),
            ("k", "10"),
            ("out", &gt_path),
        ]))
        .unwrap();
        let bundle_path = format!("{dir}/index_pq.cgix");
        let out = bundle(&Args::from_pairs(&[
            ("base", &base),
            ("degree", "16"),
            ("pq", "24"),
            ("out", &bundle_path),
        ]))
        .unwrap();
        assert!(out.contains("24-byte PQ codes"), "report: {out}");

        let recall_of = |extra: &[(&str, &str)]| -> f64 {
            let mut pairs = vec![
                ("index", bundle_path.as_str()),
                ("queries", queries.as_str()),
                ("k", "10"),
                ("gt", gt_path.as_str()),
                ("itopk", "64"),
            ];
            pairs.extend_from_slice(extra);
            let out = search(&Args::from_pairs(&pairs)).unwrap();
            out.lines()
                .find(|l| l.starts_with("recall@10"))
                .and_then(|l| l.split('=').nth(1))
                .and_then(|v| v.trim().parse().ok())
                .unwrap()
        };
        let single = recall_of(&[]);
        let two_phase = recall_of(&[("rerank", "64")]);
        assert!(two_phase >= single, "rerank lost recall: {two_phase} vs {single}");
        assert!(two_phase > 0.9, "two-phase recall {two_phase}");

        // Rerank depth below k is rejected up front.
        let err = search(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("queries", &queries),
            ("k", "10"),
            ("rerank", "5"),
        ]))
        .unwrap_err();
        assert!(err.contains("at least k"), "error: {err}");

        // --rerank against a plain f32 bundle points at `bundle --pq`.
        let f32_path = format!("{dir}/index_f32.cgix");
        bundle(&Args::from_pairs(&[("base", &base), ("degree", "16"), ("out", &f32_path)]))
            .unwrap();
        let err = search(&Args::from_pairs(&[
            ("index", &f32_path),
            ("queries", &queries),
            ("k", "10"),
            ("rerank", "32"),
        ]))
        .unwrap_err();
        assert!(err.contains("bundle --pq"), "error: {err}");

        // Subspace count outside 1..=dim is rejected.
        let err = bundle(&Args::from_pairs(&[
            ("base", &base),
            ("degree", "16"),
            ("pq", "0"),
            ("out", &bundle_path),
        ]))
        .unwrap_err();
        assert!(err.contains("--pq"), "error: {err}");

        // The PQ bundle serves two-phase over TCP out of the box.
        let out = serve(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("self-test", "32"),
            ("clients", "2"),
            ("k", "5"),
            ("rerank", "32"),
        ]))
        .unwrap();
        assert!(out.contains("32 served / 0 failed"), "unexpected report: {out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn relabeled_pq_bundle_answers_in_original_ids() {
        let dir = tmpdir("pq_relabel");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "500"),
            ("queries", "10"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let queries = format!("{dir}/queries.fvecs");
        let gt_path = format!("{dir}/gt.ivecs");
        ground_truth(&Args::from_pairs(&[
            ("base", &base),
            ("queries", &queries),
            ("k", "5"),
            ("out", &gt_path),
        ]))
        .unwrap();
        let bundle_path = format!("{dir}/index.cgix");
        let out = bundle(&Args::from_pairs(&[
            ("base", &base),
            ("degree", "8"),
            ("pq", "24"),
            ("relabel", "rcm"),
            ("out", &bundle_path),
        ]))
        .unwrap();
        assert!(out.contains("relabeled with rcm"), "report: {out}");
        let out = search(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("queries", &queries),
            ("k", "5"),
            ("itopk", "64"),
            ("rerank", "32"),
            ("gt", &gt_path),
        ]))
        .unwrap();
        let recall: f64 = out
            .lines()
            .find(|l| l.starts_with("recall@5"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!(recall > 0.85, "relabeled PQ bundle recall {recall}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_self_test_round_trips_over_tcp() {
        let dir = tmpdir("serve");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "500"),
            ("queries", "10"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let bundle_path = format!("{dir}/index.cgix");
        bundle(&Args::from_pairs(&[("base", &base), ("degree", "8"), ("out", &bundle_path)]))
            .unwrap();
        let out = serve(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("self-test", "64"),
            ("clients", "4"),
            ("k", "5"),
        ]))
        .unwrap();
        assert!(out.contains("64 served / 0 failed"), "unexpected report: {out}");
        assert!(!out.contains(" 0 QPS"), "throughput must be nonzero: {out}");

        // The same bundle served through the dynamic wrapper answers
        // the identical self-test (ids 0..n are preserved verbatim).
        let out = serve(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("dynamic", "true"),
            ("self-test", "32"),
            ("clients", "2"),
            ("k", "5"),
        ]))
        .unwrap();
        assert!(out.contains("32 served / 0 failed"), "dynamic serve report: {out}");

        // The coalescing flags are gone: passing one is an error that
        // names it, not a silently ignored setting.
        let err = serve(&Args::from_pairs(&[
            ("index", &bundle_path),
            ("self-test", "8"),
            ("max-wait-us", "100"),
        ]))
        .unwrap_err();
        assert!(err.contains("max-wait-us"), "error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(parse_metric(&Args::from_pairs(&[("metric", "hamming")])).is_err());
        assert!(read_dataset("/nonexistent/base.fvecs").is_err());
        assert!(synth(&Args::from_pairs(&[("preset", "bogus"), ("n", "10"), ("out-dir", "/tmp")]))
            .is_err());
        assert!(build(&Args::from_pairs(&[
            ("base", "/nonexistent"),
            ("degree", "8"),
            ("out", "/tmp/x")
        ]))
        .is_err());
    }

    #[test]
    fn metric_flag_parses_all_variants() {
        assert_eq!(parse_metric(&Args::from_pairs(&[])).unwrap(), Metric::SquaredL2);
        assert_eq!(
            parse_metric(&Args::from_pairs(&[("metric", "ip")])).unwrap(),
            Metric::InnerProduct
        );
        assert_eq!(
            parse_metric(&Args::from_pairs(&[("metric", "cosine")])).unwrap(),
            Metric::Cosine
        );
    }
}
