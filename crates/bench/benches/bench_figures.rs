//! Figure-level benchmarks: one function per figure or ablation of the
//! paper, one criterion group each (`fig3`, `fig4`, ..., `fig16`,
//! `ablation_dinit`, `ablation_merge`), so every `BENCH_<group>.json`
//! keeps its name. These time the host-side functional cost; the
//! figures' simulated-GPU numbers come from `eval <figN>`.
//! `cargo bench -p bench --bench bench_figures` runs every group in
//! figure order (the offline criterion stand-in has no name filter).

use bench::{cagra_index, clone_ds, deep_like, glove_like, knn_lists, DEGREE};
use cagra::build::{build_graph, GraphConfig};
use cagra::optimize::{optimize, reverse_lists, OptimizeOptions};
use cagra::params::ReorderStrategy;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, HashPolicy, SearchParams};
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use dataset::synth::{Family, SynthSpec};
use distance::Metric;
use ganns::{Ganns, GannsParams};
use ggnn::{Ggnn, GgnnParams};
use gpu_sim::{simulate_batch, DeviceSpec, Mapping};
use graph::stats::graph_stats;
use graph::AdjacencyGraph;
use hnsw::{Hnsw, HnswParams};
use nssg::{beam_search, Nssg, NssgParams};
use std::time::Duration;

const L2: Metric = Metric::SquaredL2;

/// A group with the budget every multi-millisecond figure leg uses.
fn group(c: &mut Criterion, name: &str) -> BenchmarkGroup {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g
}

/// Fig. 3: the cost of the optimization variants plus the reachability
/// analyses (2-hop, SCC) that the figure reports.
fn fig3_graph_props(c: &mut Criterion) {
    let (base, _) = deep_like(0);
    let knn = knn_lists(&base, 3 * DEGREE);
    let mut g = group(c, "fig3");
    for (label, reorder, reverse) in [
        ("knn_top_d", false, false),
        ("reorder_only", true, false),
        ("reverse_only", false, true),
        ("full", true, true),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let opts = OptimizeOptions { reorder, reverse, ..OptimizeOptions::new(DEGREE) };
                optimize(&knn, &base, L2, &opts)
            })
        });
    }
    let full = optimize(&knn, &base, L2, &OptimizeOptions::new(DEGREE));
    let adj = AdjacencyGraph::from_fixed(&full);
    g.bench_function("stats_2hop_and_scc", |b| b.iter(|| graph_stats(&adj, 4)));
    g.finish();
}

const REORDERINGS: [(&str, ReorderStrategy); 2] =
    [("rank", ReorderStrategy::RankBased), ("distance", ReorderStrategy::DistanceBased)];

/// Fig. 4: rank-based vs distance-based reordering time.
fn fig4_opt_time(c: &mut Criterion) {
    let mut g = group(c, "fig4");
    for (name, (base, _)) in [("deep", deep_like(0)), ("glove", glove_like(0))] {
        let knn = knn_lists(&base, 2 * DEGREE);
        for (label, strategy) in REORDERINGS {
            g.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    let opts = OptimizeOptions { strategy, ..OptimizeOptions::new(DEGREE) };
                    optimize(&knn, &base, L2, &opts)
                })
            });
        }
    }
    g.finish();
}

/// Fig. 5: search over rank- vs distance-optimized graphs.
fn fig5_reorder_search(c: &mut Criterion) {
    let (base, queries) = deep_like(50);
    let mut g = group(c, "fig5");
    for (label, strategy) in REORDERINGS {
        let config = GraphConfig { strategy, ..GraphConfig::new(DEGREE) };
        let (index, _) = CagraIndex::build(clone_ds(&base), L2, &config);
        let params = SearchParams::for_k(10);
        g.bench_function(format!("batch_search/{label}"), |b| {
            b.iter(|| index.search_batch(&queries, 10, &params))
        });
    }
    g.finish();
}

/// Fig. 8: simulated-A100 batch time per team size (the search itself
/// runs once; team size is a costing input).
fn fig8_team_size(c: &mut Criterion) {
    let mut g = group(c, "fig8");
    g.sample_size(20);
    let device = DeviceSpec::a100();
    for (name, dim, (base, queries)) in
        [("deep", 96usize, deep_like(30)), ("glove", 200, glove_like(30))]
    {
        let index = cagra_index(&base);
        let params = SearchParams::for_k(10);
        let traces: Vec<_> = index
            .search_batch_traced(&queries, 10, &params, Mode::SingleCta)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        for team in [2usize, 4, 8, 16, 32] {
            g.bench_function(format!("{name}/team{team}"), |b| {
                b.iter(|| simulate_batch(&device, &traces, dim, 4, team, Mapping::SingleCta))
            });
        }
    }
    g.finish();
}

/// Fig. 9: functional search cost, forgettable vs standard hash.
fn fig9_hash(c: &mut Criterion) {
    let (base, queries) = deep_like(50);
    let index = cagra_index(&base);
    let mut g = group(c, "fig9");
    for (label, hash) in [
        ("standard", HashPolicy::Standard),
        ("forgettable", HashPolicy::Forgettable { bits: 10, reset_interval: 1 }),
        ("forgettable_interval4", HashPolicy::Forgettable { bits: 10, reset_interval: 4 }),
    ] {
        let mut params = SearchParams::for_k(10);
        params.hash = hash;
        g.bench_function(label, |b| b.iter(|| index.search_batch(&queries, 10, &params)));
    }
    g.finish();
}

/// Fig. 10: single- vs multi-CTA functional search cost, single query
/// and batch.
fn fig10_cta(c: &mut Criterion) {
    let (base, queries) = deep_like(50);
    let index = cagra_index(&base);
    let mut g = group(c, "fig10");
    for (label, mode, hash) in [
        ("single_cta", Mode::SingleCta, HashPolicy::Forgettable { bits: 11, reset_interval: 1 }),
        ("multi_cta", Mode::MultiCta, HashPolicy::Standard),
    ] {
        let mut params = SearchParams::for_k(10);
        params.hash = hash;
        g.bench_function(format!("{label}/one_query"), |b| {
            b.iter(|| index.search_mode(queries.row(0), 10, &params, mode))
        });
        g.bench_function(format!("{label}/batch"), |b| {
            b.iter(|| index.try_search_batch(&queries, 10, &params, Some(mode), false))
        });
    }
    g.finish();
}

/// Fig. 11: construction time per method.
fn fig11_construction(c: &mut Criterion) {
    let (base, _) = deep_like(0);
    let mut g = group(c, "fig11");
    g.bench_function("cagra", |b| b.iter(|| build_graph(&base, L2, &GraphConfig::new(DEGREE))));
    g.bench_function("nssg", |b| {
        b.iter(|| Nssg::build(clone_ds(&base), L2, NssgParams::new(DEGREE)))
    });
    g.bench_function("hnsw", |b| {
        b.iter(|| Hnsw::build(clone_ds(&base), L2, HnswParams::new(DEGREE / 2)))
    });
    g.bench_function("ggnn", |b| {
        b.iter(|| Ggnn::build(clone_ds(&base), L2, GgnnParams::new(DEGREE)))
    });
    g.bench_function("ganns", |b| {
        b.iter(|| Ganns::build(clone_ds(&base), L2, GannsParams::new(DEGREE / 2)))
    });
    g.finish();
}

/// Fig. 12: NSSG's beam search over the CAGRA graph vs the NSSG graph
/// (single query, single thread — the paper's protocol).
fn fig12_graph_quality(c: &mut Criterion) {
    let (base, queries) = deep_like(10);
    let index = cagra_index(&base);
    let cagra_adj: Vec<Vec<u32>> =
        (0..index.graph().len()).map(|v| index.graph().neighbors(v).to_vec()).collect();
    let (nssg_index, _) = Nssg::build(clone_ds(&base), L2, NssgParams::new(DEGREE));

    let mut g = c.benchmark_group("fig12");
    for (label, adj) in
        [("cagra_graph", &cagra_adj), ("nssg_graph", &nssg_index.adjacency().to_vec())]
    {
        g.bench_function(label, |b| {
            b.iter(|| beam_search(adj, &base, L2, queries.row(0), 10, 64, 8, 1))
        });
    }
    g.finish();
}

/// Fig. 13: batch search per method.
fn fig13_large_batch(c: &mut Criterion) {
    let (base, queries) = deep_like(50);
    let mut g = group(c, "fig13");

    let index = cagra_index(&base);
    let params = SearchParams::for_k(10);
    g.bench_function("cagra_fp32", |b| b.iter(|| index.search_batch(&queries, 10, &params)));

    let index16 = CagraIndex::from_parts(index.store().to_f16(), index.graph().clone(), L2);
    g.bench_function("cagra_fp16", |b| b.iter(|| index16.search_batch(&queries, 10, &params)));

    let (gg, _) = Ggnn::build(clone_ds(&base), L2, GgnnParams::new(DEGREE));
    g.bench_function("ggnn", |b| b.iter(|| gg.search_batch(&queries, 10, 64)));

    let (ga, _) = Ganns::build(clone_ds(&base), L2, GannsParams::new(DEGREE / 2));
    g.bench_function("ganns", |b| b.iter(|| ga.search_batch(&queries, 10, 64)));

    let h = Hnsw::build(clone_ds(&base), L2, HnswParams::new(DEGREE / 2));
    g.bench_function("hnsw", |b| b.iter(|| h.search_batch(&queries, 10, 64)));

    let (ns, _) = Nssg::build(clone_ds(&base), L2, NssgParams::new(DEGREE));
    g.bench_function("nssg", |b| b.iter(|| ns.search_batch(&queries, 10, 64)));

    g.finish();
}

/// Fig. 14: single-query latency, CAGRA multi-CTA vs HNSW.
fn fig14_single_query(c: &mut Criterion) {
    let (base, queries) = deep_like(5);
    let index = cagra_index(&base);
    let h = Hnsw::build(clone_ds(&base), L2, HnswParams::new(DEGREE / 2));
    let params = SearchParams::for_k(10);

    let mut g = c.benchmark_group("fig14");
    g.bench_function("cagra_multi_cta", |b| {
        b.iter(|| index.search_mode(queries.row(0), 10, &params, Mode::MultiCta))
    });
    g.bench_function("hnsw", |b| b.iter(|| h.search(queries.row(0), 10, 64)));
    g.finish();
}

fn gaussian96(n: usize, queries: usize, seed: u64) -> (dataset::Dataset, dataset::Dataset) {
    SynthSpec { dim: 96, n, queries, family: Family::Gaussian, seed }.generate()
}

/// Fig. 15: construction time vs dataset size, CAGRA vs HNSW.
fn fig15_scaling_build(c: &mut Criterion) {
    let mut g = group(c, "fig15");
    for n in [500usize, 2000] {
        let (base, _) = gaussian96(n, 0, 1);
        g.bench_with_input(BenchmarkId::new("cagra", n), &base, |b, base| {
            b.iter(|| build_graph(base, L2, &GraphConfig::new(DEGREE)))
        });
        g.bench_with_input(BenchmarkId::new("hnsw", n), &base, |b, base| {
            b.iter(|| Hnsw::build(clone_ds(base), L2, HnswParams::new(DEGREE / 2)))
        });
    }
    g.finish();
}

/// Fig. 16: batch search vs dataset size, recall@10 and @100 widths.
fn fig16_scaling_search(c: &mut Criterion) {
    let mut g = group(c, "fig16");
    for n in [500usize, 2000] {
        let (base, queries) = gaussian96(n, 30, 2);
        let (index, _) = CagraIndex::build(base, L2, &GraphConfig::new(DEGREE));
        for k in [10usize, 100] {
            if n <= 2 * k {
                continue;
            }
            let params = SearchParams::for_k(k);
            g.bench_with_input(BenchmarkId::new(format!("cagra_k{k}"), n), &queries, |b, q| {
                b.iter(|| index.search_batch(q, k, &params))
            });
        }
    }
    g.finish();
}

/// Ablation: the intermediate degree `d_init` (paper uses 2d or 3d).
/// Larger d_init costs more NN-Descent time but gives the optimizer a
/// richer candidate pool.
fn ablation_dinit(c: &mut Criterion) {
    let (base, _) = deep_like(0);
    let mut g = group(c, "ablation_dinit");
    for mult in [2usize, 3] {
        g.bench_function(format!("dinit_{mult}d"), |b| {
            b.iter(|| {
                let config =
                    GraphConfig { intermediate_degree: mult * DEGREE, ..GraphConfig::new(DEGREE) };
                build_graph(&base, L2, &config)
            })
        });
    }
    g.finish();
}

/// Ablation: the reverse-edge merge (on/off) and the reordering step
/// (on/off) — the Fig. 3 variants, timed.
fn ablation_merge(c: &mut Criterion) {
    let (base, _) = deep_like(0);
    let knn = knn_lists(&base, 2 * DEGREE);
    let mut g = group(c, "ablation_merge");
    g.bench_function("with_reverse_merge", |b| {
        b.iter(|| optimize(&knn, &base, L2, &OptimizeOptions::new(DEGREE)))
    });
    g.bench_function("pruned_only", |b| {
        b.iter(|| {
            let opts = OptimizeOptions { reverse: false, ..OptimizeOptions::new(DEGREE) };
            optimize(&knn, &base, L2, &opts)
        })
    });
    // The reverse-list construction in isolation (naive serial form;
    // the parallel counting-scatter path is timed in micro/build).
    let pruned: Vec<Vec<u32>> =
        knn.rows().map(|l| l[..DEGREE].iter().map(|n| n.id).collect()).collect();
    g.bench_function("reverse_lists_only", |b| b.iter(|| reverse_lists(&pruned, DEGREE)));
    g.finish();
}

criterion_group!(
    benches,
    fig3_graph_props,
    fig4_opt_time,
    fig5_reorder_search,
    fig8_team_size,
    fig9_hash,
    fig10_cta,
    fig11_construction,
    fig12_graph_quality,
    fig13_large_batch,
    fig14_single_query,
    fig15_scaling_build,
    fig16_scaling_search,
    ablation_dinit,
    ablation_merge,
);
criterion_main!(benches);
