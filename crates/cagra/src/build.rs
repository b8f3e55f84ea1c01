//! End-to-end CAGRA graph construction (Fig. 1 of the paper): the
//! NN-Descent initial `d_init`-NN graph followed by the optimization
//! pipeline, with the per-stage timing breakdown the paper reports in
//! Fig. 11.

use crate::optimize::{optimize_with_stats, OptimizeOptions};
use crate::params::ReorderStrategy;
use dataset::VectorStore;
use distance::Metric;
use graph::FixedDegreeGraph;
use knn::{NnDescent, NnDescentParams};
use std::time::{Duration, Instant};

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Final fixed out-degree `d`.
    pub degree: usize,
    /// Initial k-NN graph degree `d_init`; the paper uses `2d` or `3d`.
    /// 0 selects the default `2d`.
    pub intermediate_degree: usize,
    /// Reordering strategy (rank-based is the contribution).
    pub strategy: ReorderStrategy,
    /// NN-Descent tuning; `k` is overwritten with `intermediate_degree`.
    pub nn_descent: NnDescentParams,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl GraphConfig {
    /// Paper defaults for a target degree.
    pub fn new(degree: usize) -> Self {
        GraphConfig {
            degree,
            intermediate_degree: 0,
            strategy: ReorderStrategy::RankBased,
            nn_descent: NnDescentParams::new(degree * 2),
            threads: 0,
        }
    }

    /// Resolved `d_init`.
    pub fn d_init(&self) -> usize {
        if self.intermediate_degree == 0 {
            self.degree * 2
        } else {
            self.intermediate_degree
        }
    }
}

/// Timing breakdown of a build, matching the stacked bars of Fig. 11.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildReport {
    /// Time spent building the initial k-NN graph (NN-Descent).
    pub knn_time: Duration,
    /// Time spent in the optimization pipeline.
    pub opt_time: Duration,
    /// Distance computations NN-Descent performed (input to the
    /// GPU construction-time estimate).
    pub nn_distance_computations: u64,
    /// Per-stage breakdown of the two coarse times above.
    pub stats: BuildStats,
}

impl BuildReport {
    /// Total construction time.
    pub fn total(&self) -> Duration {
        self.knn_time + self.opt_time
    }
}

/// Fine-grained per-stage timing of one build: where `knn_time` and
/// `opt_time` actually go. Surfaced by the CLI `build` command and the
/// Fig. 4/11 experiment drivers.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// NN-Descent random initialization — or the whole exact
    /// all-pairs scan when `knn::nn_descent::exact_is_cheaper` picked
    /// it (then `nn_iterations == 0`).
    pub nn_init: Duration,
    /// NN-Descent descent iterations (sampling + scatter + joins).
    pub nn_iters: Duration,
    /// Descent iterations executed. `0` means the exact path ran: the
    /// k-NN lists are exact and all of the stage's time is `nn_init`.
    pub nn_iterations: u32,
    /// Detour-count reordering + prune.
    pub reorder: Duration,
    /// Reverse edge gather + rank sort.
    pub reverse: Duration,
    /// Interleaved merge into the final graph.
    pub merge: Duration,
    /// Locality relabeling (permutation compute + joint graph/store
    /// application); zero unless the build requested a relabel.
    pub relabel: Duration,
    /// Distance computations performed by the optimizer (nonzero only
    /// for the distance-based reordering ablation).
    pub opt_distance_computations: u64,
}

/// Build a CAGRA graph over `store`.
///
/// # Panics
/// Panics if the dataset is too small for the requested degree
/// (`n - 1 < d_init` leaves NN-Descent unable to fill the lists the
/// optimizer needs).
pub fn build_graph<S: VectorStore + ?Sized>(
    store: &S,
    metric: Metric,
    config: &GraphConfig,
) -> (FixedDegreeGraph, BuildReport) {
    let n = store.len();
    let d = config.degree;
    let d_init = config.d_init();
    assert!(d > 0, "degree must be positive");
    assert!(d_init >= d, "d_init ({d_init}) must be >= degree ({d})");
    assert!(
        n > d_init,
        "dataset of {n} vectors cannot support d_init = {d_init} (need n > d_init)"
    );

    let t0 = Instant::now();
    let mut nd_params = config.nn_descent.clone();
    nd_params.k = d_init;
    nd_params.threads = config.threads;
    let (knn, nn_stats) = NnDescent::new(nd_params).build_with_stats(store, metric);
    let knn_time = t0.elapsed();

    let t1 = Instant::now();
    let opts = OptimizeOptions {
        degree: d,
        strategy: config.strategy,
        reorder: true,
        reverse: true,
        threads: config.threads,
    };
    let (g, opt_stats) = optimize_with_stats(&knn, store, metric, &opts);
    let opt_time = t1.elapsed();

    let m = obs::metrics();
    m.build_graphs.inc();
    m.build_opt_distances.add(opt_stats.distance_computations);

    (
        g,
        BuildReport {
            knn_time,
            opt_time,
            nn_distance_computations: nn_stats.distance_computations,
            stats: BuildStats {
                nn_init: nn_stats.init_time,
                nn_iters: nn_stats.iter_time,
                nn_iterations: nn_stats.iterations,
                reorder: opt_stats.reorder_time,
                reverse: opt_stats.reverse_time,
                merge: opt_stats.merge_time,
                relabel: Duration::ZERO,
                opt_distance_computations: opt_stats.distance_computations,
            },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::synth::{Family, SynthSpec};

    #[test]
    fn builds_a_valid_graph_end_to_end() {
        let spec = SynthSpec { dim: 8, n: 400, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        let (g, report) = build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
        assert_eq!(g.len(), 400);
        assert_eq!(g.degree(), 16);
        assert_eq!(g.self_loops(), 0);
        assert!(report.total() >= report.knn_time);
    }

    #[test]
    fn d_init_defaults_to_twice_degree() {
        let c = GraphConfig::new(32);
        assert_eq!(c.d_init(), 64);
        let c2 = GraphConfig { intermediate_degree: 96, ..GraphConfig::new(32) };
        assert_eq!(c2.d_init(), 96);
    }

    #[test]
    #[should_panic(expected = "cannot support")]
    fn tiny_dataset_rejected() {
        let spec = SynthSpec { dim: 4, n: 20, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        build_graph(&base, Metric::SquaredL2, &GraphConfig::new(16));
    }

    #[test]
    #[should_panic(expected = "must be >= degree")]
    fn d_init_below_degree_rejected() {
        let spec = SynthSpec { dim: 4, n: 100, queries: 0, family: Family::Gaussian, seed: 1 };
        let (base, _) = spec.generate();
        let c = GraphConfig { intermediate_degree: 8, ..GraphConfig::new(16) };
        build_graph(&base, Metric::SquaredL2, &c);
    }
}
