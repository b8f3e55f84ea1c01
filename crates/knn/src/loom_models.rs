//! `cfg(loom)` concurrency models for the three genuinely concurrent
//! protocols in the construction pipeline (ISSUE 4 / DESIGN.md
//! "Soundness & analysis"):
//!
//! 1. **Slab-backed `LockedLists` insert/read** — concurrent
//!    `try_insert`s through per-row mutexes must behave as a bounded
//!    sorted *set*: the final row is the k smallest of the offered
//!    multiset, independent of interleaving, and never exceeds `cap`.
//! 2. **Lock-free worst-distance hint** — `LockedLists::offer` reads a
//!    row's worst retained distance with a relaxed load *outside* the
//!    row lock and drops the candidate if it is farther. The hint is
//!    only written under the lock and only ever falls once the row is
//!    full, so a stale read may let a hopeless offer through to the
//!    locked insert but can never turn away one the insert would have
//!    kept: the final row is still the k smallest of the offers.
//! 3. **Snapshot-diff termination handshake** — NN-Descent decides
//!    termination by counting positional id changes against a
//!    snapshot *after* the join phase's scope barrier, accumulating
//!    per-worker counts into an atomic. The count must be a pure
//!    function of (snapshot, final lists) — never of the join
//!    interleaving — or the iteration count (and hence the output
//!    graph) would depend on thread scheduling.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p knn --lib loom`.
//! Under the offline `shims/loom` stand-in these models are bounded
//! stress runs over the *real* `LockedLists`; under the genuine loom
//! crate the same sources compile against the instrumented scheduler
//! (see shims/loom's crate docs for the fidelity difference).

use crate::nn_descent::{LockedLists, NnDescent, NnDescentParams};
use crate::topk::Neighbor;
use distance::Metric;
use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Ids of row `v`, in stored (ascending-distance) order.
fn row_ids(lists: &LockedLists, v: usize) -> Vec<u32> {
    lists.lock(v).entries().iter().map(|e| e.n.id).collect()
}

/// Model 1: concurrent inserts into shared rows keep set semantics.
#[test]
fn locked_lists_inserts_are_interleaving_independent() {
    loom::model(|| {
        let lists = Arc::new(LockedLists::new(2, 3));
        // Two workers offer overlapping neighbor sets to both rows.
        // Whatever the interleaving, each row must end as the 3
        // smallest distinct offers, sorted ascending by distance.
        let offers_a = [(0usize, 5u32, 5.0f32), (0, 1, 1.0), (1, 7, 7.0)];
        let offers_b = [(0usize, 3u32, 3.0f32), (0, 2, 2.0), (1, 4, 4.0), (0, 1, 1.0)];
        let handles: Vec<_> = [&offers_a[..], &offers_b[..]]
            .into_iter()
            .map(|offers| {
                let lists = Arc::clone(&lists);
                let offers = offers.to_vec();
                thread::spawn(move || {
                    for (v, id, d) in offers {
                        lists.lock(v).try_insert(Neighbor::new(id, d));
                        // Reads under the same lock must always see a
                        // sorted, length-bounded row.
                        let g = lists.lock(v);
                        assert!(g.len() <= 3);
                        assert!(g.entries().windows(2).all(|w| w[0].n.dist <= w[1].n.dist));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(row_ids(&lists, 0), vec![1, 2, 3], "row 0 is not the 3 smallest offers");
        assert_eq!(row_ids(&lists, 1), vec![4, 7], "row 1 is not the offered pair");
    });
}

/// Model 2: offers filtered by the unlocked worst-distance hint, racing
/// locked inserts that lower it, still leave the k smallest offers.
#[test]
fn unlocked_worst_hint_rejects_nothing_the_locked_insert_would_keep() {
    loom::model(|| {
        let lists = Arc::new(LockedLists::new(1, 3));
        // Both workers fill the row and then keep lowering its worst
        // distance under the other's hint reads; (6, 3.0) and (7, 3.0)
        // tie with a retained distance, where only the id decides.
        let offers_a = [(9u32, 9.0f32), (5, 5.0), (1, 1.0), (7, 3.0), (8, 8.0)];
        let offers_b = [(4u32, 4.0f32), (6, 3.0), (3, 3.0), (2, 2.0), (5, 5.0)];
        let handles: Vec<_> = [offers_a, offers_b]
            .into_iter()
            .map(|offers| {
                let lists = Arc::clone(&lists);
                thread::spawn(move || {
                    let mut last_hint = f32::INFINITY;
                    for (id, d) in offers {
                        lists.offer(0, Neighbor::new(id, d));
                        // The hint a worker observes never rises.
                        let hint = lists.worst_hint(0);
                        assert!(hint <= last_hint, "worst hint rose from {last_hint} to {hint}");
                        last_hint = hint;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(row_ids(&lists, 0), vec![1, 2, 3], "row is not the 3 smallest offers");
        assert_eq!(lists.worst_hint(0), 3.0, "hint does not match the final row");
    });
}

/// Model 3: the snapshot-diff change count is a pure function of the
/// lists, not of the join interleaving.
#[test]
fn snapshot_handshake_count_is_schedule_independent() {
    loom::model(|| {
        let n = 4usize;
        let k = 2usize;
        let lists = Arc::new(LockedLists::new(n, k));
        // Deterministic initial lists (the iteration's snapshot base).
        for v in 0..n {
            let mut g = lists.lock(v);
            g.try_insert(Neighbor::new(100 + v as u32, 50.0 + v as f32));
            g.try_insert(Neighbor::new(200 + v as u32, 60.0 + v as f32));
        }
        let snapshot: Vec<Vec<u32>> = (0..n).map(|v| row_ids(&lists, v)).collect();

        // Join phase: two workers offer improvements to overlapping
        // rows, racing on rows 1 and 2.
        let offers_a = [(0usize, 10u32, 1.0f32), (1, 11, 2.0), (2, 12, 3.0)];
        let offers_b = [(1usize, 21u32, 4.0f32), (2, 22, 5.0), (3, 23, 6.0)];
        let handles: Vec<_> = [offers_a, offers_b]
            .into_iter()
            .map(|offers| {
                let lists = Arc::clone(&lists);
                thread::spawn(move || {
                    for (v, id, d) in offers {
                        lists.lock(v).try_insert(Neighbor::new(id, d));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Handshake: workers count positional changes of disjoint row
        // halves into one atomic, after the join barrier (mirroring
        // the scope-then-fetch_add structure in `NnDescent::descent`).
        let changed = Arc::new(AtomicU64::new(0));
        let halves: Vec<_> = [(0usize, 2usize), (2, 4)]
            .into_iter()
            .map(|(start, end)| {
                let lists = Arc::clone(&lists);
                let changed = Arc::clone(&changed);
                let snap = snapshot[start..end].to_vec();
                thread::spawn(move || {
                    let mut local = 0u64;
                    for (i, v) in (start..end).enumerate() {
                        let now = row_ids(&lists, v);
                        local += now.iter().zip(&snap[i]).filter(|(a, b)| a != b).count() as u64;
                    }
                    changed.fetch_add(local, Ordering::Relaxed);
                })
            })
            .collect();
        for h in halves {
            h.join().unwrap();
        }
        // Every row's improvements displace both snapshot positions:
        // row 0 gets {10}, rows 1/2 get two better ids each, row 3
        // gets {23} — so exactly 2 changed positions per row.
        assert_eq!(changed.load(Ordering::Relaxed), (n * k) as u64);
        // And the final lists are the k-smallest sets regardless of
        // which worker won each race.
        assert_eq!(row_ids(&lists, 1), vec![11, 21]);
        assert_eq!(row_ids(&lists, 2), vec![12, 22]);
    });
}

/// End-to-end sanity under the model runtime: a tiny real build stays
/// deterministic across thread counts (stress form of the
/// `thread_count_does_not_change_the_result` tier-1 test).
#[test]
fn nn_descent_output_is_thread_count_independent_under_model() {
    use dataset::synth::{Family, SynthSpec};
    let spec = SynthSpec { dim: 4, n: 600, queries: 0, family: Family::Gaussian, seed: 11 };
    let (base, _) = spec.generate();
    let build = |threads| {
        NnDescent::new(NnDescentParams { threads, max_iters: 3, ..NnDescentParams::new(4) })
            .descent(&base, Metric::SquaredL2)
            .0
    };
    let one = build(1);
    for _ in 0..4 {
        assert_eq!(one, build(3), "3-thread build diverged from serial");
    }
}
