//! Recall under churn (ISSUE 10 acceptance): a [`DynamicIndex`]
//! absorbing interleaved inserts, deletes, and compactions must keep
//! recall@10 >= 0.9 against a brute-force oracle over the *live* set,
//! across at least three compaction cycles — measured both while the
//! churn sits in delta + tombstones and after each compaction swap.
//!
//! Plus property legs: searches never return a tombstoned id, results
//! stay sorted/live/deduplicated through arbitrary op sequences.

use cagra::{DynamicIndex, DynamicParams, SearchError, SearchScratch};
use dataset::synth::{Family, SynthSpec};
use dataset::Dataset;
use distance::Metric;
use knn::topk::cmp_neighbor;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministic params, no background thread: every compaction is an
/// explicit `compact_now`, so the test counts cycles exactly.
fn churn_params() -> DynamicParams {
    let mut p = DynamicParams::new(16);
    p.auto_compact = false;
    p.min_main = 128;
    // Widen the main-graph traversal: the acceptance bar is recall,
    // not latency, and clustered data punishes a narrow itopk.
    p.search.itopk = 128;
    p.search.search_width = 2;
    p
}

/// Brute-force recall@k of the index against the live mirror.
fn recall_against_mirror(
    ix: &DynamicIndex,
    live: &BTreeMap<u32, Vec<f32>>,
    queries: &Dataset,
    k: usize,
) -> f64 {
    let ids: Vec<u32> = live.keys().copied().collect();
    let mut flat = Vec::with_capacity(live.len() * ix.dim());
    for v in live.values() {
        flat.extend_from_slice(v);
    }
    let store = Dataset::from_flat(flat, ix.dim());
    let truth = knn::brute::ground_truth(&store, ix.metric(), queries, k);
    let mut hits = 0usize;
    let mut total = 0usize;
    for (qi, gt_rows) in truth.iter().enumerate() {
        let want: Vec<u32> = gt_rows.iter().map(|&r| ids[r as usize]).collect();
        let got = ix.search(queries.row(qi), k);
        assert_eq!(got.len(), k, "query {qi} returned {} of k = {k}", got.len());
        for nb in &got {
            assert!(
                live.contains_key(&nb.id),
                "query {qi} surfaced non-live id {} (deleted or never inserted)",
                nb.id
            );
            hits += usize::from(want.contains(&nb.id));
        }
        total += k;
    }
    hits as f64 / total as f64
}

#[test]
fn recall_stays_above_090_across_three_compaction_cycles() {
    let k = 10;
    // One big pool drawn once; churn waves consume successive slices.
    let spec = SynthSpec {
        dim: 16,
        n: 2600,
        queries: 25,
        family: Family::Clustered { clusters: 20, spread: 0.9 },
        seed: 2024,
    };
    let (pool, queries) = spec.generate();
    let ix = DynamicIndex::new(16, Metric::SquaredL2, churn_params());
    let mut live: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    let mut next_pool = 0usize;
    let mut insert_wave = |ix: &DynamicIndex, live: &mut BTreeMap<u32, Vec<f32>>, n: usize| {
        for _ in 0..n {
            let v = pool.row(next_pool).to_vec();
            let id = ix.insert(&v).expect("insert");
            live.insert(id, v);
            next_pool += 1;
        }
    };

    // Cycle 0: bulk load, first compaction builds the main segment.
    insert_wave(&ix, &mut live, 1400);
    let r = recall_against_mirror(&ix, &live, &queries, k);
    assert!(r >= 0.9, "pre-compaction (delta-heavy) recall@10 = {r:.3}");
    ix.compact_now();
    assert!(ix.stats().main > 0, "first compaction must build a main segment");

    for cycle in 1..=3 {
        // Delete a pseudo-random seventh of the live set...
        let victims: Vec<u32> = live
            .keys()
            .copied()
            .filter(|id| id.wrapping_mul(2654435761u32.wrapping_add(cycle)) % 7 == 0)
            .collect();
        for id in &victims {
            assert!(ix.delete(*id), "cycle {cycle}: delete({id}) found nothing");
            live.remove(id);
        }
        // ...and insert a fresh wave on top.
        insert_wave(&ix, &mut live, 300);

        // Mixed state: main + delta + tombstones all in play.
        let r = recall_against_mirror(&ix, &live, &queries, k);
        assert!(r >= 0.9, "cycle {cycle} mixed-state recall@10 = {r:.3}");

        let epoch_before = ix.epoch();
        ix.compact_now();
        assert!(ix.epoch() > epoch_before, "compaction must swap the epoch");
        let s = ix.stats();
        assert_eq!(s.tombstones, 0, "cycle {cycle}: compaction must clear tombstones");
        assert_eq!(s.delta, 0, "cycle {cycle}: compaction must fold the delta");
        assert_eq!(s.live, live.len(), "cycle {cycle}: live count drifted from the mirror");

        let r = recall_against_mirror(&ix, &live, &queries, k);
        assert!(r >= 0.9, "cycle {cycle} post-compaction recall@10 = {r:.3}");
    }
    assert!(ix.stats().compactions >= 4);
}

#[test]
fn background_compactor_triggers_on_delta_growth() {
    use std::time::{Duration, Instant};
    let max_delta = 200;
    let tail = max_delta / 4;
    let mut params = churn_params();
    params.auto_compact = true;
    params.max_delta = max_delta;
    params.min_main = 128;
    let spec =
        SynthSpec { dim: 8, n: max_delta + tail, queries: 0, family: Family::Gaussian, seed: 5 };
    let (pool, _) = spec.generate();
    let ix = DynamicIndex::new(8, Metric::SquaredL2, params);
    for i in 0..max_delta {
        ix.insert(pool.row(i)).expect("insert");
    }
    // The last insert woke the compactor. Wait (bounded) until its
    // rebuild is running — or, if this thread was descheduled across
    // the whole rebuild, until its publish moved the epoch.
    let loaded = ix.epoch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ix.is_compacting() && ix.epoch() == loaded && Instant::now() < deadline {
        std::thread::yield_now();
    }
    // A tail shorter than `max_delta`, landing during the rebuild:
    // each of these inserts still sees a full delta and wakes the
    // compactor again.
    for i in max_delta..max_delta + tail {
        ix.insert(pool.row(i)).expect("insert");
    }
    // Let the rebuild finish and give a (wrongly) re-armed trigger time
    // to start the next one; `stats` then blocks until that is done.
    while ix.is_compacting() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    let s = ix.stats();
    assert!(s.main > 0, "background compaction built no main segment: {s:?}");
    assert_eq!(s.live, max_delta + tail);
    // The wake-ups queued during the rebuild must not start a second
    // one over the short suffix the first left behind.
    assert_eq!(s.compactions, 1, "trigger re-armed during the rebuild: {s:?}");
    assert!(s.delta < max_delta, "{s:?}");
}

/// Mirror-checked op sequence: the merge-with-tombstones path never
/// resurrects a deleted id, never duplicates, never returns non-live
/// rows, and always returns exactly `min(k, live)` sorted results.
fn run_ops(ops: &[(u8, u16)], compact_every: usize) {
    let dim = 4;
    let mut params = DynamicParams::new(8);
    params.auto_compact = false;
    params.min_main = 40;
    let ix = DynamicIndex::new(dim, Metric::SquaredL2, params);
    let mut live: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    let mut assigned: Vec<u32> = Vec::new();
    // One scratch across the whole history, reshaped by every search.
    let mut scratch = SearchScratch::new();
    for (step, &(op, x)) in ops.iter().enumerate() {
        match op % 3 {
            0 => {
                let v: Vec<f32> =
                    (0..dim).map(|d| (((x as usize + 7 * d) % 97) as f32).sin()).collect();
                let id = ix.insert(&v).expect("insert");
                live.insert(id, v);
                assigned.push(id);
            }
            1 if !assigned.is_empty() => {
                let id = assigned[x as usize % assigned.len()];
                assert_eq!(ix.delete(id), live.remove(&id).is_some(), "delete({id}) disagreed");
            }
            _ => {
                let k = 1 + x as usize % 6;
                let q: Vec<f32> = (0..dim).map(|d| ((x as usize + d) as f32 * 0.3).cos()).collect();
                let got = ix.search_clamped(&q, k, &mut scratch);
                assert_eq!(got.len(), k.min(live.len()), "clamped result size");
                assert!(got.windows(2).all(|w| cmp_neighbor(&w[0], &w[1]).is_le()), "unsorted");
                let mut seen = std::collections::BTreeSet::new();
                for nb in &got {
                    assert!(live.contains_key(&nb.id), "non-live id {} surfaced", nb.id);
                    assert!(seen.insert(nb.id), "duplicate id {} surfaced", nb.id);
                }
            }
        }
        if compact_every > 0 && step % compact_every == compact_every - 1 {
            ix.compact_now();
            assert_eq!(ix.stats().live, live.len(), "live drifted after compaction");
        }
    }
    // Terminal shape checks.
    assert_eq!(ix.live(), live.len());
    if live.is_empty() {
        assert_eq!(ix.try_search(&[0.0; 4], 1), Err(SearchError::KExceedsDataset { k: 1, n: 0 }));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_op_sequences_never_resurrect_deleted_ids(
        ops in proptest::collection::vec((0u8..3, any::<u16>()), 1..120),
        compact_every in 0usize..20,
    ) {
        run_ops(&ops, compact_every);
    }
}
