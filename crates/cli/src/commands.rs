//! The six subcommands. Each refuses flags it does not accept and
//! returns its human-readable report as a string so the integration
//! tests can assert on it.

use crate::args::Args;
use cagra::build::GraphConfig;
use cagra::index_io::Bundle;
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

/// `build`: construct a CAGRA index and persist it as one bundle
/// (vectors + graph + metric together, so they cannot drift apart).
/// `--relabel` renumbers graph and vectors jointly for memory locality;
/// the permutation is persisted so loaded bundles keep answering in
/// original ids. `--pq M` stores M-byte product-quantized codes plus the
/// graph up front and the full-precision rows as a mmap-able tail that
/// `search --rerank` re-scores against.
pub fn build(args: &Args) -> Result<String, String> {
    args.accept_only(&["base", "degree", "metric", "relabel", "pq", "out", "metrics-out"])?;
    let base = read_dataset(args.req("base")?)?;
    let degree = args.req_usize("degree")?;
    let config = GraphConfig::new(degree);
    if degree == 0 || base.len() <= config.d_init() {
        return Err(format!(
            "--degree {degree} needs a positive degree and more than {} rows (2 x degree), \
             but the base has {} rows",
            config.d_init(),
            base.len()
        ));
    }
    let metric = parse_metric(args)?;
    let relabel = parse_relabel(args)?;
    // PQ bundles store the full-precision rows in original id order.
    // Only a relabeled build needs a copy taken before the build
    // permutes the store; otherwise the index's own store is that tail.
    let pq = match args.opt("pq") {
        None => None,
        Some(v) => {
            let m: usize = v.parse().map_err(|_| "--pq must be a number".to_string())?;
            if m == 0 || m > base.dim() {
                return Err(format!("--pq {m} must be in 1..={} (the dataset dim)", base.dim()));
            }
            let original = (relabel != RelabelStrategy::Identity)
                .then(|| Dataset::from_flat(base.as_flat().to_vec(), base.dim()));
            Some((m, original))
        }
    };
    let out = args.req("out")?;
    let file = create(out)?;
    let (index, report) = match relabel {
        RelabelStrategy::Identity => CagraIndex::build(base, metric, &config),
        s => CagraIndex::build_with_relabel(base, metric, &config, s),
    };
    let storage = match pq {
        None => {
            cagra::index_io::write_index(file, &index).map_err(|e| e.to_string())?;
            format!("f32, {} B/vec", index.store().bytes_per_vector())
        }
        Some((m, original)) => {
            let full = original.as_ref().unwrap_or(index.store());
            // Encode in the index's (possibly relabeled) row order so
            // codes stay aligned with the graph.
            let store = dataset::pq::build(index.store(), &PqConfig::new(m));
            let pq_index = CagraIndex::from_parts_mapped(
                store,
                index.graph().clone(),
                metric,
                index.id_map().cloned(),
            );
            cagra::index_io::write_index_pq(file, &pq_index, full).map_err(|e| e.to_string())?;
            format!(
                "{m}-byte PQ codes, resident {m} B/vec vs f32 {} B/vec, rerank tail mmap'd",
                full.bytes_per_vector()
            )
        }
    };
    let s = report.stats;
    let mut text = format!(
        "built degree-{degree} graph over {} vectors in {:.2?} (kNN {:.2?} + optimize {:.2?}); \
         wrote {out} ({storage})\n\
         stages: nn-init {:.2?} | nn-iters {:.2?} ({} iters) | reorder {:.2?} | reverse {:.2?} | merge {:.2?}; \
         distances: nn {} + opt {}\n",
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
    if let Some(m) = index.id_map() {
        let _ = write!(text, "relabeled with {} in {:.2?}; ", m.strategy.label(), s.relabel);
    }
    let l = locality_stats(index.graph(), index.store().dim() * 4);
    let _ = write!(
        text,
        "locality: mean edge span {:.0}, bandwidth {}, est row tx {:.2}",
        l.mean_edge_span, l.bandwidth, l.est_row_transactions
    );
    dump_metrics(args, &mut text)?;
    Ok(text)
}

/// Load the bundle named by `--index` (storage flavour read from the
/// bundle; PQ bundles get their mmap'd rerank tail attached).
fn load_index(args: &Args) -> Result<Bundle, String> {
    let path = args.req("index")?;
    cagra::index_io::read_bundle(Path::new(path)).map_err(|e| format!("load {path}: {e}"))
}

/// `search`: query a bundle; reports recall when ground truth is
/// supplied. `--rerank R` enables two-phase search on PQ bundles:
/// traversal over approximate distances, then an exact re-score of the
/// top R candidates against the mmap'd full-precision rows.
pub fn search(args: &Args) -> Result<String, String> {
    args.accept_only(&["index", "queries", "k", "itopk", "mode", "rerank", "gt", "metrics-out"])?;
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
             (build a PQ bundle with `build --pq M`)"
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

/// `stats`: reachability metrics of a bundle's graph (the Fig. 3
/// quantities).
pub fn stats(args: &Args) -> Result<String, String> {
    args.accept_only(&["index", "two-hop-stride"])?;
    let bundle = load_index(args)?;
    let g = match &bundle {
        Bundle::F32(ix) => ix.graph(),
        Bundle::Pq(ix) => ix.graph(),
    };
    let stride = args.usize_or("two-hop-stride", (g.len() / 2000).max(1))?;
    let s = graph_stats(&AdjacencyGraph::from_fixed(g), stride);
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
        let index_path = format!("{dir}/index.cgix");

        let out = ground_truth(&Args::from_pairs(&[
            ("base", &base),
            ("queries", &queries),
            ("k", "10"),
            ("out", &gt_path),
        ]))
        .unwrap();
        assert!(out.contains("top-10"));

        let out =
            build(&Args::from_pairs(&[("base", &base), ("degree", "16"), ("out", &index_path)]))
                .unwrap();
        assert!(out.contains("degree-16"), "report: {out}");
        assert!(out.contains("stages:"), "report: {out}");
        assert!(out.contains("locality:"), "report: {out}");

        let metrics_path = format!("{dir}/metrics.json");
        let out = search(&Args::from_pairs(&[
            ("index", &index_path),
            ("queries", &queries),
            ("k", "10"),
            ("gt", &gt_path),
            ("metrics-out", &metrics_path),
        ]))
        .unwrap();
        assert!(out.contains("searched 20 queries"));
        assert!(out.contains("[metrics written to"));
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(json.contains("cagra-metrics-v1"));
        assert!(json.contains("search.iterations"));
        // Parse the recall and require a sane floor.
        let recall: f64 = out
            .lines()
            .find(|l| l.starts_with("recall@10"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!(recall > 0.85, "cli recall {recall}");

        let out = stats(&Args::from_pairs(&[("index", &index_path)])).unwrap();
        assert!(out.contains("degree: 16"));
        assert!(out.contains("self loops: 0"));

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
        let out = build(&Args::from_pairs(&[
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
        let err = build(&Args::from_pairs(&[
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
        let out = build(&Args::from_pairs(&[
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

        // --rerank against a plain f32 bundle points at `build --pq`.
        let f32_path = format!("{dir}/index_f32.cgix");
        build(&Args::from_pairs(&[("base", &base), ("degree", "16"), ("out", &f32_path)])).unwrap();
        let err = search(&Args::from_pairs(&[
            ("index", &f32_path),
            ("queries", &queries),
            ("k", "10"),
            ("rerank", "32"),
        ]))
        .unwrap_err();
        assert!(err.contains("build --pq"), "error: {err}");

        // Subspace count outside 1..=dim is rejected.
        let err = build(&Args::from_pairs(&[
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
    fn pq_bundle_tail_is_the_base_in_original_order() {
        let dir = tmpdir("pq_tail");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "400"),
            ("queries", "1"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base_path = format!("{dir}/base.fvecs");
        let base = read_dataset(&base_path).unwrap();
        for relabel in ["identity", "rcm"] {
            let bundle_path = format!("{dir}/index_{relabel}.cgix");
            build(&Args::from_pairs(&[
                ("base", &base_path),
                ("degree", "8"),
                ("pq", "24"),
                ("relabel", relabel),
                ("out", &bundle_path),
            ]))
            .unwrap();
            let Bundle::Pq(index) = cagra::index_io::read_bundle(Path::new(&bundle_path)).unwrap()
            else {
                panic!("--pq writes a PQ bundle");
            };
            assert_eq!(index.id_map().is_some(), relabel != "identity");
            let tail = index.rerank_store().expect("PQ bundles carry their f32 tail");
            assert_eq!((tail.len(), tail.dim()), (base.len(), base.dim()));
            for i in 0..base.len() {
                assert_eq!(tail.row_f32(i), Some(base.row(i)), "{relabel}: row {i}");
            }
        }
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
        let out = build(&Args::from_pairs(&[
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
        build(&Args::from_pairs(&[("base", &base), ("degree", "8"), ("out", &bundle_path)]))
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
    fn stats_reads_the_same_graph_from_f32_and_pq_bundles() {
        let dir = tmpdir("stats");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "400"),
            ("queries", "1"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let [f32_path, pq_path] = [format!("{dir}/f32.cgix"), format!("{dir}/pq.cgix")];
        build(&Args::from_pairs(&[("base", &base), ("degree", "8"), ("out", &f32_path)])).unwrap();
        build(&Args::from_pairs(&[
            ("base", &base),
            ("degree", "8"),
            ("pq", "12"),
            ("out", &pq_path),
        ]))
        .unwrap();
        let f32_stats = stats(&Args::from_pairs(&[("index", &f32_path)])).unwrap();
        let pq_stats = stats(&Args::from_pairs(&[("index", &pq_path)])).unwrap();
        assert!(f32_stats.contains("degree: 8"), "stats: {f32_stats}");
        assert_eq!(f32_stats, pq_stats);
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

        // A degree the rows cannot support is an error naming both.
        let dir = tmpdir("bad");
        synth(&Args::from_pairs(&[
            ("preset", "deep"),
            ("n", "600"),
            ("queries", "1"),
            ("out-dir", &dir),
        ]))
        .unwrap();
        let base = format!("{dir}/base.fvecs");
        let out = format!("{dir}/index.cgix");
        for degree in ["0", "300", "400"] {
            let err =
                build(&Args::from_pairs(&[("base", &base), ("degree", degree), ("out", &out)]))
                    .unwrap_err();
            assert!(err.contains(&format!("--degree {degree}")), "error: {err}");
            assert!(err.contains("600 rows"), "error: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // The index travels only as a bundle: the retired command and
        // the flags that restated its parts are errors that name them.
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = crate::run(&argv(&["bundle", "--base", "b", "--degree", "8", "--out", "o"]));
        assert!(err.unwrap_err().contains("'bundle'"));
        for (cmd, flag) in [
            ("search", "graph"),
            ("search", "base"),
            ("search", "metric"),
            ("serve", "graph"),
            ("serve", "base"),
            ("serve", "metric"),
            ("stats", "graph"),
            ("build", "strategy"),
            ("build", "d-init"),
        ] {
            let err = crate::run(&argv(&[cmd, &format!("--{flag}"), "x"]));
            assert!(err.unwrap_err().contains(&format!("--{flag}")), "{cmd} --{flag}");
        }
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
