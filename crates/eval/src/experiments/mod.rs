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

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "headline",
    "ext-shard",
    "ext-search",
    "ext-relabel",
    "ext-pq",
    "ext-churn",
    "ext-knn-crossover",
];

/// Dispatch an experiment by id. Returns false for unknown ids.
pub fn run(id: &str, ctx: &ExpContext) -> bool {
    match id {
        "table1" => table1::run(ctx),
        "fig3" => fig3_graph_props::run(ctx),
        "fig4" => fig4_opt_time::run(ctx),
        "fig5" => fig5_reorder_search::run(ctx),
        "fig8" => fig8_team_size::run(ctx),
        "fig9" => fig9_hash::run(ctx),
        "fig10" => fig10_cta_modes::run(ctx),
        "fig11" => fig11_construction::run(ctx),
        "fig12" => fig12_graph_quality::run(ctx),
        "fig13" => fig13_large_batch::run(ctx),
        "fig14" => fig14_single_query::run(ctx),
        "fig15" => fig15_scaling_build::run(ctx),
        "fig16" => fig16_scaling_search::run(ctx),
        "headline" => headline::run(ctx),
        "ext-shard" => ext_sharding::run(ctx),
        "ext-search" => ext_search_ablation::run(ctx),
        "ext-relabel" => ext_relabel::run(ctx),
        "ext-pq" => ext_pq::run(ctx),
        "ext-churn" => ext_churn::run(ctx),
        "ext-knn-crossover" => ext_knn_crossover::run(ctx),
        _ => return false,
    }
    true
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
    fn unknown_experiment_returns_false() {
        assert!(!run("nope", &ExpContext::default()));
    }

    #[test]
    fn registry_lists_every_runner() {
        assert_eq!(ALL.len(), 20);
    }
}
