//! One runner per table/figure of the paper (ids match DESIGN.md).

pub mod ext_churn;
pub mod ext_knn_crossover;
pub mod ext_pq;
pub mod ext_relabel;
pub mod ext_search_ablation;
pub mod ext_sharding;
pub mod fig10_cta_modes;
pub mod fig11_construction;
pub mod fig12_graph_quality;
pub mod fig13_large_batch;
pub mod fig14_single_query;
pub mod fig15_scaling_build;
pub mod fig16_scaling_search;
pub mod fig3_graph_props;
pub mod fig4_opt_time;
pub mod fig5_reorder_search;
pub mod fig8_team_size;
pub mod fig9_hash;
pub mod headline;
pub mod table1;

use crate::context::{ExpContext, Workload};
use cagra::build::{build_graph, BuildReport, GraphConfig};
use cagra::CagraIndex;
use dataset::Dataset;
use dataset::VectorStore;

/// One committed output of an experiment: `results/<stem>.txt` and
/// the scale its `# context:` line records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// File stem under `results/`.
    pub stem: &'static str,
    /// Base vectors per dataset (`--n`).
    pub n: usize,
    /// Queries searched (`--queries`).
    pub queries: usize,
}

/// One row of the registry.
pub struct Experiment {
    /// Command-line id (matches DESIGN.md's experiment index).
    pub id: &'static str,
    /// Prints the experiment's tables to stdout.
    pub runner: fn(&ExpContext),
    /// What `eval all --out-dir` regenerates for this experiment.
    /// Empty where the only committed outputs are one-off scale runs
    /// (listed with their command lines in `tests/results_registry.rs`).
    pub recorded: &'static [Run],
}

const fn at(stem: &'static str, n: usize, queries: usize) -> Run {
    Run { stem, n, queries }
}

const fn exp(id: &'static str, runner: fn(&ExpContext), recorded: &'static [Run]) -> Experiment {
    Experiment { id, runner, recorded }
}

/// Every experiment, in paper order, with the scale of each committed
/// `results/` file — the one place that scale is written down.
pub const TABLE: &[Experiment] = &[
    exp("table1", table1::run, &[at("table1", 4000, 200)]),
    exp("fig3", fig3_graph_props::run, &[at("fig3", 4000, 200)]),
    exp("fig4", fig4_opt_time::run, &[at("fig4", 4000, 200)]),
    exp("fig5", fig5_reorder_search::run, &[at("fig5", 4000, 200)]),
    exp("fig8", fig8_team_size::run, &[at("fig8", 4000, 200)]),
    exp("fig9", fig9_hash::run, &[at("fig9", 4000, 200), at("fig9_n8000", 8000, 200)]),
    exp("fig10", fig10_cta_modes::run, &[at("fig10", 4000, 200)]),
    exp("fig11", fig11_construction::run, &[at("fig11", 4000, 200)]),
    exp("fig12", fig12_graph_quality::run, &[at("fig12", 4000, 200)]),
    exp("fig13", fig13_large_batch::run, &[at("fig13", 4000, 200)]),
    exp("fig14", fig14_single_query::run, &[at("fig14", 4000, 200)]),
    exp("fig15", fig15_scaling_build::run, &[at("fig15", 4000, 200)]),
    exp("fig16", fig16_scaling_search::run, &[at("fig16", 1000, 150)]),
    exp("headline", headline::run, &[at("headline", 2000, 100)]),
    exp("ext-shard", ext_sharding::run, &[at("ext_shard", 3000, 100)]),
    exp("ext-search", ext_search_ablation::run, &[at("ext_search", 1500, 80)]),
    exp("ext-relabel", ext_relabel::run, &[at("ext_relabel", 4000, 100)]),
    exp("ext-pq", ext_pq::run, &[]),
    exp("ext-churn", ext_churn::run, &[at("ext_churn", 4000, 100)]),
    exp("ext-knn-crossover", ext_knn_crossover::run, &[]),
];

/// Look an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.id == id)
}

/// Build a CAGRA index over a workload's base vectors (cloned, since
/// the workload keeps its own copy for ground truth).
pub(crate) fn build_cagra(wl: &Workload) -> (CagraIndex<Dataset>, BuildReport) {
    let base = Dataset::from_flat(wl.base.as_flat().to_vec(), wl.base.dim());
    CagraIndex::build(base, wl.metric, &GraphConfig::new(wl.degree()))
}

/// Build just the CAGRA graph (when no index wrapper is needed).
pub(crate) fn build_cagra_graph(wl: &Workload) -> (graph::FixedDegreeGraph, BuildReport) {
    build_graph(&wl.base, wl.metric, &GraphConfig::new(wl.degree()))
}

/// The itopk sweep used by the recall↔QPS experiments: k upward in
/// doublings (the paper sweeps the same way).
pub(crate) fn itopk_sweep(k: usize, max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut x = k.max(16);
    while x <= max {
        v.push(x);
        x *= 2;
    }
    if v.is_empty() {
        v.push(k.max(16));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itopk_sweep_doubles_from_k() {
        assert_eq!(itopk_sweep(10, 128), vec![16, 32, 64, 128]);
        assert_eq!(itopk_sweep(100, 64), vec![100]);
    }

    #[test]
    fn find_resolves_table_ids_only() {
        assert_eq!(find("ext-shard").map(|e| e.id), Some("ext-shard"));
        assert!(find("ext_shard").is_none(), "stems are not ids");
        assert!(find("nope").is_none());
    }
}
