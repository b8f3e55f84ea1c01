//! Extension experiment: memory-locality relabeling ablation
//! (Sec. IV-B1's 128-bit-transaction argument, measured).
//!
//! The same built graph is renumbered by each relabel strategy and
//! searched two ways: on the real batch path for recall and wall-clock
//! time (the median of [`PASSES`] passes, interleaved across the
//! strategies, beside a second identity copy that shows what this host
//! does to two identical indexes), and once with access logging on so
//! `gpu_sim::replay_log` can count the 128-bit memory transactions
//! the gathers would issue on the modeled device. The two are
//! different instruments and get separate columns. The hash policy is
//! pinned to `Standard` (id-independent), which makes every relabeled
//! traversal bit-identical to the identity run after id mapping — so
//! both cost columns isolate the *layout* effect at exactly equal
//! recall.

use crate::context::{ExpContext, Workload};
use crate::experiments::build_cagra;
use crate::recall::recall_at_k;
use crate::report::Table;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, RelabelStrategy, SearchParams, SearchScratch};
use dataset::presets::PresetName;
use dataset::{Dataset, VectorStore};
use gpu_sim::mem::DEFAULT_CACHE_LINES;
use gpu_sim::{replay_log, search_with, CacheModel, HashPolicy, MemLayout, SimTable, TxCounts};
use knn::topk::Neighbor;
use std::time::Instant;

/// Timed batch passes per strategy; the wall-clock column is their
/// median (one pass cannot resolve a 5 % effect on a shared host).
pub const PASSES: usize = 9;

/// One ablation row: a strategy with its measured costs.
pub struct StrategyRow {
    /// Strategy label (`identity` for the unrelabeled baseline,
    /// `identity-copy` for the noise control).
    pub label: &'static str,
    /// Simulated 128-bit transactions over the traced batch.
    pub tx: TxCounts,
    /// recall@k (identical across rows by construction).
    pub recall: f64,
    /// Wall-clock microseconds per query on the real (untraced) batch
    /// path: median of [`PASSES`] interleaved passes.
    pub us_per_query: f64,
    /// Locality of the relabeled adjacency (mean |u - v|).
    pub mean_edge_span: f64,
}

/// Serial pass logging accesses on the standard table, seeded exactly
/// like the batch path so it walks what that path walks, each query's
/// log replayed on its own cold cache (one CTA per query: queries do
/// not share an SM's L1) as soon as the search ends.
fn replayed_transactions(
    index: &CagraIndex<Dataset>,
    layout: &MemLayout,
    wl: &Workload,
    k: usize,
    params: &SearchParams,
) -> TxCounts {
    let mut scratch = SearchScratch::new();
    let mut table = SimTable::new(HashPolicy::Standard, true);
    let mut tx = TxCounts::default();
    for qi in 0..wl.queries.len() {
        let p = SearchParams { seed: params.seed_for_query(qi), ..*params };
        search_with(index, wl.queries.row(qi), k, &p, Mode::SingleCta, &mut table, &mut scratch);
        if let Some(log) = &table.record().accesses {
            tx.accumulate(&replay_log(layout, &mut CacheModel::new(DEFAULT_CACHE_LINES), log));
        }
    }
    tx.record();
    tx
}

/// Measure every strategy (identity first, then its noise-control
/// copy) on one workload.
pub fn measure(wl: &Workload, ctx: &ExpContext) -> Vec<StrategyRow> {
    let (base_index, _) = build_cagra(wl);
    // Both visited tables here are id-independent, so relabeled runs
    // are bit-identical to identity (DESIGN.md, "Memory locality").
    let params = SearchParams::for_k(ctx.k);
    let gt = wl.ground_truth(ctx.k);
    let degree = base_index.graph().degree();
    let layout = MemLayout::new(base_index.graph().len(), degree, wl.base.dim() * 4);

    let strategies: [(&'static str, Option<RelabelStrategy>); 5] = [
        ("identity", None),
        ("identity-copy", None),
        ("degree", Some(RelabelStrategy::Degree)),
        ("rcm", Some(RelabelStrategy::Rcm)),
        ("gorder", Some(RelabelStrategy::Gorder)),
    ];
    let indexes: Vec<CagraIndex<Dataset>> = strategies
        .iter()
        .map(|&(_, strategy)| {
            let store = Dataset::from_flat(base_index.store().as_flat().to_vec(), wl.base.dim());
            let mut index = CagraIndex::from_parts(store, base_index.graph().clone(), wl.metric);
            if let Some(s) = strategy {
                index.relabel(s);
            }
            index
        })
        .collect();
    // Strategy-inner loop: a host that changes speed mid-run slows one
    // pass of every row instead of every pass of one row.
    let mut passes: Vec<(Vec<f64>, Vec<Vec<Neighbor>>)> =
        indexes.iter().map(|_| (Vec::with_capacity(PASSES), Vec::new())).collect();
    for _ in 0..PASSES {
        for (index, (walls, results)) in indexes.iter().zip(&mut passes) {
            let t0 = Instant::now();
            *results = index
                .try_search_batch(&wl.queries, ctx.k, &params, Mode::SingleCta, false)
                .expect("workload shape is valid")
                .neighbors;
            walls.push(t0.elapsed().as_secs_f64());
        }
    }
    strategies
        .iter()
        .zip(&indexes)
        .zip(passes)
        .map(|((&(label, _), index), (mut walls, results))| {
            let median_wall = *walls.select_nth_unstable_by(PASSES / 2, f64::total_cmp).1;
            let tx = replayed_transactions(index, &layout, wl, ctx.k, &params);
            let span = graph::stats::locality_stats(index.graph(), wl.base.dim() * 4);
            StrategyRow {
                label,
                tx,
                recall: recall_at_k(&results, &gt, ctx.k),
                us_per_query: 1e6 * median_wall / wl.queries.len() as f64,
                mean_edge_span: span.mean_edge_span,
            }
        })
        .collect()
}

/// Run on the clustered GloVe-like workload (locality effects need
/// cluster structure to exploit) plus DEEP-like as a control.
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&[
        "dataset",
        "strategy",
        "recall@10",
        "us/query",
        "wall vs identity",
        "tx init",
        "tx expand",
        "tx distance",
        "tx total",
        "tx vs identity",
        "edge span",
    ]);
    for preset in [PresetName::Glove, PresetName::Deep] {
        let wl = Workload::load(preset, ctx);
        let rows = measure(&wl, ctx);
        let identity = &rows[0];
        let (identity_total, identity_us) = (identity.tx.total().max(1), identity.us_per_query);
        for r in &rows {
            t.row(vec![
                preset.label().to_string(),
                r.label.to_string(),
                format!("{:.4}", r.recall),
                format!("{:.1}", r.us_per_query),
                format!("{:+.1}%", 100.0 * (r.us_per_query / identity_us - 1.0)),
                r.tx.init.to_string(),
                r.tx.expand.to_string(),
                r.tx.distance.to_string(),
                r.tx.total().to_string(),
                format!("{:+.1}%", 100.0 * (r.tx.total() as f64 / identity_total as f64 - 1.0)),
                format!("{:.0}", r.mean_edge_span),
            ]);
        }
    }
    t.print(&format!(
        "Extension — memory-locality relabeling: wall clock (median of {PASSES} interleaved \
         passes) and simulated 128-bit transactions"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_strategy_beats_identity_on_clustered_data_at_equal_recall() {
        let ctx = ExpContext { n: 1500, queries: 30, batch_target: 2000, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Glove, &ctx);
        let rows = measure(&wl, &ctx);
        assert_eq!(rows[0].label, "identity");
        // Standard hash + joint relabeling: recall is *exactly* equal
        // (the traversal is bit-identical after id mapping).
        for r in &rows[1..] {
            assert_eq!(r.recall, rows[0].recall, "{} changed recall", r.label);
        }
        let identity = rows[0].tx.total();
        assert_eq!((rows[1].label, rows[1].tx.total()), ("identity-copy", identity));
        let best = rows[2..].iter().map(|r| r.tx.total()).min().unwrap();
        assert!(
            best < identity,
            "no relabel strategy reduced simulated transactions: best {best} vs identity {identity}"
        );
    }
}
