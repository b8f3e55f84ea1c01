//! End-to-end bit-parity of the flat parallel construction pipeline.
//!
//! The optimized build (flat arenas, counting scatter, chunk-owned
//! output rows) must produce a `FixedDegreeGraph` that is bit-identical
//! to the retained naive references — serial NN-Descent
//! (`knn::reference_build`) followed by the serial `Vec<Vec<_>>`
//! optimizer (`optimize_naive`) — for 1 and 4 threads, across both
//! reorder strategies and with reverse-edge addition on and off.
//!
//! Which k-NN builder `NnDescent::build` runs at this size is
//! `knn::nn_descent::exact_is_cheaper`'s call, so the NN-Descent parity
//! test names the descent entry points directly and keeps iterating
//! wherever the crossover moves; the full-build tests take whatever
//! path the chooser picks, on both sides of the comparison.

use cagra::optimize::{optimize, optimize_naive, OptimizeOptions};
use cagra::params::ReorderStrategy;
use cagra::{build_graph, GraphConfig};
use dataset::synth::{Family, SynthSpec};
use distance::Metric;
use knn::reference::{reference_build, reference_descent};
use knn::{NnDescent, NnDescentParams};

const DEGREE: usize = 8;
const D_INIT: usize = 16;
const N: usize = 1200;

fn base() -> dataset::Dataset {
    SynthSpec { dim: 8, n: N, queries: 0, family: Family::Gaussian, seed: 0x9a11 }.generate().0
}

#[test]
fn nn_descent_matches_serial_reference_at_1_and_4_threads() {
    let base = base();
    let params = NnDescentParams { threads: 1, ..NnDescentParams::new(D_INIT) };
    let want = reference_descent(&params, &base, Metric::SquaredL2);
    for threads in [1usize, 4] {
        let p = NnDescentParams { threads, ..params.clone() };
        let (got, stats) = NnDescent::new(p).descent(&base, Metric::SquaredL2);
        assert!(stats.iterations >= 1);
        assert_eq!(got, want, "NN-Descent diverged from reference at {threads} threads");
    }
}

#[test]
fn full_build_bit_identical_to_naive_for_all_configs() {
    let base = base();
    let params = NnDescentParams { threads: 1, ..NnDescentParams::new(D_INIT) };
    let knn = reference_build(&params, &base, Metric::SquaredL2);
    for strategy in [ReorderStrategy::RankBased, ReorderStrategy::DistanceBased] {
        for reverse in [true, false] {
            let opts = OptimizeOptions { strategy, reverse, ..OptimizeOptions::new(DEGREE) };
            let want = optimize_naive(&knn, &base, Metric::SquaredL2, &opts);
            for threads in [1usize, 4] {
                let got =
                    optimize(&knn, &base, Metric::SquaredL2, &OptimizeOptions { threads, ..opts });
                assert_eq!(
                    got.as_flat(),
                    want.as_flat(),
                    "{strategy:?} reverse={reverse} threads={threads}: graph not bit-identical"
                );
            }
        }
    }
}

#[test]
fn build_graph_is_thread_count_invariant() {
    let base = base();
    let mut config = GraphConfig::new(DEGREE);
    config.nn_descent = NnDescentParams::new(D_INIT);
    config.threads = 1;
    let (g1, _) = build_graph(&base, Metric::SquaredL2, &config);
    config.threads = 4;
    let (g4, _) = build_graph(&base, Metric::SquaredL2, &config);
    assert_eq!(g1.as_flat(), g4.as_flat(), "end-to-end build depends on thread count");
}
