//! Microbenchmarks for the hot primitives underneath every experiment:
//! distance kernels (FP32/FP16/INT8 access paths), bounded top-k, the
//! visited hash table, and the bitonic candidate sort. These are the
//! knobs the Rust-side performance work tunes; the figure-level
//! benches sit on top of them.

use bench::{cagra_index, clone_ds, deep_like, glove_like, knn_lists, DEGREE};
use cagra::optimize::{optimize, optimize_naive, OptimizeOptions};
use cagra::search::buffer::{bitonic_sort, BufEntry};
use cagra::search::hash::VisitedSet;
use cagra::search::planner::Mode;
use cagra::{SearchParams, SearchScratch};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dataset::synth::{Family, SynthSpec};
use dataset::VectorStore;
use distance::{squared_l2, DistanceOracle, Metric};
use knn::topk::{Neighbor, TopK};
use knn::{reference_build, NnDescent, NnDescentParams};

/// The SIMD engine's three tiers, per metric and element type:
/// `scalar_row` (canonical scalar kernels, one row per call — the
/// pre-engine baseline), `simd_row` (detected backend, still one row
/// per call), and `simd_gang` (detected backend through the batched
/// `to_rows` path with per-query invariants hoisted). All three
/// produce bit-identical distances; only the time differs.
fn bench_distance(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/distance");
    let scalar_k = distance::kernels::scalar();
    let simd_k = distance::kernels::detected();
    let n = 256usize;
    let dim = 128usize;
    let (base, q) = SynthSpec { dim, n, queries: 1, family: Family::Gaussian, seed: 1 }.generate();
    let query = q.row(0).to_vec();
    let ids: Vec<u32> = (0..n as u32).collect();
    let half = base.to_f16();
    let quant = base.to_i8();

    macro_rules! tier_legs {
        ($store:expr, $tag:expr) => {{
            let store = $store;
            for (mname, metric) in
                [("l2", Metric::SquaredL2), ("ip", Metric::InnerProduct), ("cos", Metric::Cosine)]
            {
                let per_scalar = DistanceOracle::with_kernels(store, metric, scalar_k);
                let per_simd = DistanceOracle::with_kernels(store, metric, simd_k);
                g.bench_function(format!("{mname}_{}_d{dim}_scalar_row", $tag), |b| {
                    b.iter(|| {
                        let mut acc = 0.0f32;
                        for i in 0..n {
                            acc += per_scalar.to_row(black_box(&query), i);
                        }
                        acc
                    })
                });
                g.bench_function(format!("{mname}_{}_d{dim}_simd_row", $tag), |b| {
                    b.iter(|| {
                        let mut acc = 0.0f32;
                        for i in 0..n {
                            acc += per_simd.to_row(black_box(&query), i);
                        }
                        acc
                    })
                });
                g.bench_function(format!("{mname}_{}_d{dim}_simd_gang", $tag), |b| {
                    let mut out = vec![0.0f32; n];
                    b.iter(|| {
                        let prepared = per_simd.prepare(black_box(&query));
                        per_simd.to_rows(&prepared, &ids, &mut out);
                        out[n - 1]
                    })
                });
            }
        }};
    }
    tier_legs!(&base, "fp32");
    tier_legs!(&half, "fp16");
    tier_legs!(&quant, "int8");

    // Dimension sweep (f32 L2 only): the SIMD win grows with row
    // length; the free function exercises the dispatched entry point.
    for dim in [96usize, 960] {
        let (base, q) =
            SynthSpec { dim, n: 64, queries: 1, family: Family::Gaussian, seed: 1 }.generate();
        let query = q.row(0).to_vec();
        let ids: Vec<u32> = (0..base.len() as u32).collect();
        g.bench_function(format!("l2_fp32_d{dim}_free_fn"), |b| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..base.len() {
                    acc += squared_l2(black_box(&query), base.row(i));
                }
                acc
            })
        });
        g.bench_function(format!("l2_fp32_d{dim}_simd_gang"), |b| {
            let oracle = DistanceOracle::with_kernels(&base, Metric::SquaredL2, simd_k);
            let mut out = vec![0.0f32; base.len()];
            b.iter(|| {
                let prepared = oracle.prepare(black_box(&query));
                oracle.to_rows(&prepared, &ids, &mut out);
                out[out.len() - 1]
            })
        });
    }
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/topk");
    let mut x = 1u64;
    let items: Vec<Neighbor> = (0..4096u32)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            Neighbor::new(i, (x >> 40) as f32)
        })
        .collect();
    for k in [10usize, 100] {
        g.bench_function(format!("top{k}_of_4096"), |b| {
            b.iter(|| {
                let mut t = TopK::new(k);
                for &it in &items {
                    if it.dist < t.threshold() {
                        t.push(it);
                    }
                }
                t.into_sorted()
            })
        });
    }
    g.finish();
}

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/visited_hash");
    let ids: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(2654435761) % 100_000).collect();
    g.bench_function("insert_2000_into_2^12", |b| {
        b.iter(|| {
            let mut v = VisitedSet::new(12);
            let mut hits = 0;
            for &id in &ids {
                if v.insert(black_box(id)) {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.bench_function("reset_with_64_survivors", |b| {
        let mut v = VisitedSet::new(12);
        for &id in &ids {
            v.insert(id);
        }
        b.iter(|| {
            v.reset((0..64u32).map(|i| i * 3));
            v.len()
        })
    });
    g.finish();
}

fn bench_bitonic(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/bitonic_sort");
    for n in [32usize, 128, 512] {
        let mut x = 3u64;
        let entries: Vec<BufEntry> = (0..n as u32)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                BufEntry::new(i, (x >> 40) as f32)
            })
            .collect();
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                let mut v = entries.clone();
                bitonic_sort(&mut v);
                v
            })
        });
    }
    g.finish();
}

/// Fresh per-query allocation vs recycled per-thread scratch, on the
/// identical single-CTA search (same graph, same queries, identical
/// results). The gap is exactly the allocation + first-touch cost the
/// zero-allocation batch path removes per query.
fn bench_scratch_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/scratch_reuse");
    let (base, queries) = deep_like(16);
    let index = cagra_index(&base);
    let params = SearchParams::for_k(10);
    let nq = queries.len();
    let single = Mode::SingleCta;

    let one = |qi: usize, scratch: &mut SearchScratch| {
        let p = SearchParams { seed: params.seed_for_query(qi), ..params };
        index.search_mode_with(black_box(queries.row(qi)), 10, &p, single, scratch);
        scratch.results().len()
    };
    g.bench_function("search16_fresh_state", |b| {
        b.iter(|| (0..nq).map(|qi| one(qi, &mut SearchScratch::new())).sum::<usize>())
    });
    g.bench_function("search16_reused_scratch", |b| {
        let mut scratch = SearchScratch::new();
        scratch.set_record_trace(false);
        b.iter(|| (0..nq).map(|qi| one(qi, &mut scratch)).sum::<usize>())
    });
    // The full batch entry point (thread pool + per-thread scratch),
    // for an end-to-end number alongside the isolated loops above.
    g.bench_function("batch16_single_cta", |b| {
        b.iter(|| index.try_search_batch(black_box(&queries), 10, &params, Some(single), false))
    });
    g.finish();
}

/// Construction-pipeline stages on the flat-arena path, at 1 and 4
/// threads, next to the retained serial `Vec<Vec<_>>` references. All
/// variants produce bit-identical graphs (see the `build_parity`
/// integration test); only the time differs. `optimize_full` minus
/// `reorder_prune` is the reverse-edge scatter + merge cost.
fn bench_build(c: &mut Criterion) {
    let (base, _) = deep_like(0);
    let knn = knn_lists(&base, 2 * DEGREE);
    let mut g = c.benchmark_group("micro/build");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));

    for threads in [1usize, 4] {
        let params = NnDescentParams { threads, ..NnDescentParams::new(2 * DEGREE) };
        g.bench_function(format!("nn_descent_t{threads}"), |b| {
            b.iter(|| NnDescent::new(params.clone()).build(black_box(&base), Metric::SquaredL2))
        });
        let prune_only =
            OptimizeOptions { reverse: false, threads, ..OptimizeOptions::new(DEGREE) };
        g.bench_function(format!("reorder_prune_t{threads}"), |b| {
            b.iter(|| optimize(black_box(&knn), &base, Metric::SquaredL2, &prune_only))
        });
        let full = OptimizeOptions { threads, ..OptimizeOptions::new(DEGREE) };
        g.bench_function(format!("optimize_full_t{threads}"), |b| {
            b.iter(|| optimize(black_box(&knn), &base, Metric::SquaredL2, &full))
        });
    }

    let serial = NnDescentParams { threads: 1, ..NnDescentParams::new(2 * DEGREE) };
    g.bench_function("nn_descent_reference_serial", |b| {
        b.iter(|| reference_build(&serial, black_box(&base), Metric::SquaredL2))
    });
    g.bench_function("optimize_naive_serial", |b| {
        b.iter(|| {
            optimize_naive(black_box(&knn), &base, Metric::SquaredL2, &OptimizeOptions::new(DEGREE))
        })
    });
    g.finish();
}

/// Memory-locality relabeling: permutation computation + joint apply
/// per strategy, and the batch search on the relabeled index next to
/// the identity layout. On the clustered GloVe-like fixture the
/// relabeled layouts issue fewer 128-bit transactions in the GPU
/// model; here the observable is CPU wall-clock (cache behavior).
fn bench_relabel(c: &mut Criterion) {
    use cagra::{CagraIndex, RelabelStrategy};
    use dataset::Dataset;

    let mut g = c.benchmark_group("micro/relabel");
    g.sample_size(10);
    let (base, queries) = glove_like(16);
    let index = cagra_index(&base);
    let params = SearchParams::for_k(10);
    let single = Some(Mode::SingleCta);

    let fresh =
        || CagraIndex::from_parts(clone_ds(index.store()), index.graph().clone(), index.metric());
    for strategy in [RelabelStrategy::Degree, RelabelStrategy::Rcm, RelabelStrategy::Gorder] {
        g.bench_function(format!("apply_{}", strategy.label()), |b| {
            b.iter(|| {
                let mut idx: CagraIndex<Dataset> = fresh();
                idx.relabel(black_box(strategy));
                idx.id_map().is_some()
            })
        });
        let mut relabeled = fresh();
        relabeled.relabel(strategy);
        g.bench_function(format!("search16_{}", strategy.label()), |b| {
            b.iter(|| relabeled.try_search_batch(black_box(&queries), 10, &params, single, false))
        });
    }
    g.bench_function("search16_identity", |b| {
        b.iter(|| index.try_search_batch(black_box(&queries), 10, &params, single, false))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_distance,
    bench_topk,
    bench_hash,
    bench_bitonic,
    bench_scratch_reuse,
    bench_build,
    bench_relabel,
);
criterion_main!(benches);
