//! Extension experiment: recall under churn for the dynamic index
//! (ISSUE 10 / ROADMAP item 2).
//!
//! The paper's CAGRA index is static — the dynamic wrapper bolts
//! insert/delete/compaction onto it, and the question this experiment
//! answers is what that costs in recall at each point of the churn
//! cycle: fresh rows sitting in the brute-scanned delta, deletes masked as
//! tombstones at the merge, and the fully compacted state where
//! everything is back in one CAGRA graph. Recall is measured against a
//! brute-force oracle over the *live* set at that instant, so the
//! number isolates the dynamic machinery from ordinary ANN error.
//!
//! Phases per cycle: `mixed` (after a delete wave + insert wave, churn
//! still in delta/tombstones) and `compacted` (after the epoch swap;
//! the row also reports the off-lock rebuild's wall-clock time).

use crate::context::{ExpContext, Workload};
use crate::report::{fmt_secs, Table};
use cagra::{DynamicIndex, DynamicParams};
use dataset::presets::PresetName;
use dataset::{Dataset, VectorStore};
use knn::brute::ground_truth;
use std::collections::BTreeMap;
use std::time::Instant;

/// One measured point of the churn cycle.
pub struct CycleRow {
    /// Churn cycle index (0 = the initial bulk load).
    pub cycle: usize,
    /// `delta-only`, `mixed`, or `compacted`.
    pub phase: &'static str,
    /// Live rows at the measurement.
    pub live: usize,
    /// Rows in the delta segment.
    pub delta: usize,
    /// Masked (deleted-but-not-compacted) rows.
    pub tombstones: usize,
    /// recall@k against a brute-force oracle over the live set.
    pub recall: f64,
    /// Wall-clock of the compaction that produced this state
    /// (`compacted` rows only; 0 otherwise).
    pub compaction_s: f64,
}

/// recall@k of the index against the live mirror (external id ->
/// base-pool row).
fn live_recall(ix: &DynamicIndex, live: &BTreeMap<u32, usize>, wl: &Workload, k: usize) -> f64 {
    let ids: Vec<u32> = live.keys().copied().collect();
    let mut flat = Vec::with_capacity(live.len() * wl.base.dim());
    for &row in live.values() {
        flat.extend_from_slice(wl.base.row(row));
    }
    let store = Dataset::from_flat(flat, wl.base.dim());
    let truth = ground_truth(&store, wl.metric, &wl.queries, k);
    let results = ix.search_batch(&wl.queries, k);
    let mut hits = 0usize;
    for (gt_rows, got) in truth.iter().zip(&results) {
        for nb in got {
            hits += usize::from(gt_rows.iter().any(|&r| ids[r as usize] == nb.id));
        }
    }
    hits as f64 / (truth.len() * k) as f64
}

/// Run `cycles` churn cycles on one workload; deterministic (explicit
/// compaction, hash-picked delete victims, no background thread).
pub fn measure(wl: &Workload, ctx: &ExpContext, cycles: u32) -> Vec<CycleRow> {
    let mut params = DynamicParams::new(wl.degree());
    params.auto_compact = false;
    // The bar here is recall, not latency: widen the main-graph
    // traversal the same way the acceptance test does.
    params.search.itopk = params.search.itopk.max(128);
    let ix = DynamicIndex::new(wl.base.dim(), wl.metric, params);

    // The base pool is split: ~70% bulk-loads cycle 0, the rest feeds
    // the per-cycle insert waves.
    let bulk = wl.base.len() * 7 / 10;
    let wave = (wl.base.len() - bulk) / cycles.max(1) as usize;
    let mut live: BTreeMap<u32, usize> = BTreeMap::new();
    let mut next_row = 0usize;
    let mut insert_wave = |ix: &DynamicIndex, live: &mut BTreeMap<u32, usize>, n: usize| {
        for _ in 0..n {
            let id = ix.insert(wl.base.row(next_row)).expect("insert");
            live.insert(id, next_row);
            next_row += 1;
        }
    };

    let mut rows = Vec::new();
    let mut record = |ix: &DynamicIndex, live: &BTreeMap<u32, usize>, cycle, phase, secs| {
        let s = ix.stats();
        rows.push(CycleRow {
            cycle,
            phase,
            live: s.live,
            delta: s.delta,
            tombstones: s.tombstones,
            recall: live_recall(ix, live, wl, ctx.k),
            compaction_s: secs,
        });
    };

    insert_wave(&ix, &mut live, bulk);
    record(&ix, &live, 0, "delta-only", 0.0);
    let t0 = Instant::now();
    ix.compact_now();
    record(&ix, &live, 0, "compacted", t0.elapsed().as_secs_f64());

    for cycle in 1..=cycles {
        // Delete a hash-picked ~seventh of the live set, then insert
        // the next slice of the pool on top.
        let victims: Vec<u32> = live
            .keys()
            .copied()
            .filter(|id| id.wrapping_mul(2654435761u32.wrapping_add(cycle)) % 7 == 0)
            .collect();
        for id in &victims {
            assert!(ix.delete(*id), "delete({id}) found nothing");
            live.remove(id);
        }
        insert_wave(&ix, &mut live, wave);
        record(&ix, &live, cycle as usize, "mixed", 0.0);
        let t0 = Instant::now();
        ix.compact_now();
        record(&ix, &live, cycle as usize, "compacted", t0.elapsed().as_secs_f64());
    }
    rows
}

/// Run on SIFT-like (the paper's primary dataset) at the context scale.
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&[
        "dataset",
        "cycle",
        "phase",
        "live",
        "delta",
        "tombstones",
        "recall@10",
        "compaction",
    ]);
    let wl = Workload::load(PresetName::Sift, ctx);
    for r in measure(&wl, ctx, 3) {
        t.row(vec![
            wl.preset.name.label().to_string(),
            r.cycle.to_string(),
            r.phase.to_string(),
            r.live.to_string(),
            r.delta.to_string(),
            r.tombstones.to_string(),
            format!("{:.4}", r.recall),
            if r.compaction_s > 0.0 { fmt_secs(r.compaction_s) } else { "-".to_string() },
        ]);
    }
    t.print("Extension — dynamic index: recall under insert/delete churn");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_holds_through_every_churn_phase() {
        let ctx = ExpContext { n: 1200, queries: 25, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Sift, &ctx);
        let rows = measure(&wl, &ctx, 2);
        // delta-only + compacted, then (mixed + compacted) per cycle.
        assert_eq!(rows.len(), 2 + 2 * 2);
        for r in &rows {
            assert!(
                r.recall >= 0.85,
                "cycle {} {} recall@{} = {:.3}",
                r.cycle,
                r.phase,
                ctx.k,
                r.recall
            );
        }
        let last = rows.last().unwrap();
        assert_eq!(last.phase, "compacted");
        assert_eq!(last.tombstones, 0, "compaction must clear tombstones");
        assert_eq!(last.delta, 0, "compaction must fold the delta");
    }
}
