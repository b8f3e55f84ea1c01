//! Tier-1 smoke of `cagra::dynamic`: one insert → delete → compact →
//! insert cycle, checked against a brute-force oracle over the tracked
//! live set. The full acceptance suite is `cagra/tests/churn.rs`; this
//! is the slice of it that the root package's `cargo test -q` runs.

use cagra::{DynamicIndex, DynamicParams};
use cagra_repro::prelude::*;
use std::collections::BTreeMap;

/// Top-`k` ids of `q` over `live` by exhaustive scan.
fn oracle(live: &BTreeMap<u32, Vec<f32>>, q: &[f32], k: usize) -> Vec<u32> {
    let ids: Vec<u32> = live.keys().copied().collect();
    let flat: Vec<f32> = live.values().flatten().copied().collect();
    let store = Dataset::from_flat(flat, q.len());
    let hits = knn::brute::exact_search(&store, Metric::SquaredL2, q, k);
    hits.iter().map(|nb| ids[nb.id as usize]).collect()
}

#[test]
fn insert_delete_compact_insert_matches_a_live_oracle() {
    let (dim, k) = (16, 10);
    let spec = SynthSpec { dim, n: 480, queries: 20, family: Family::Gaussian, seed: 19 };
    let (pool, queries) = spec.generate();
    let mut params = DynamicParams::new(16);
    params.auto_compact = false;
    let ix = DynamicIndex::new(dim, Metric::SquaredL2, params);
    let mut live: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    let insert = |live: &mut BTreeMap<u32, Vec<f32>>, rows: std::ops::Range<usize>| {
        for r in rows {
            live.insert(ix.insert(pool.row(r)).expect("insert"), pool.row(r).to_vec());
        }
    };

    // A delta-only index, deletes included, answers exactly.
    insert(&mut live, 0..300);
    for id in (0..300).step_by(7) {
        assert!(ix.delete(id));
        live.remove(&id);
    }
    assert_eq!((ix.stats().main, ix.stats().delta, ix.live()), (0, 300, live.len()));
    for qi in 0..queries.len() {
        let got: Vec<u32> = ix.search(queries.row(qi), k).iter().map(|nb| nb.id).collect();
        assert_eq!(got, oracle(&live, queries.row(qi), k), "delta-only query {qi}");
    }

    // Compaction folds the delta into a graph and drops the tombstones;
    // fresh inserts and deletes then sit on top of it.
    ix.compact_now();
    assert_eq!((ix.stats().main, ix.stats().delta, ix.stats().tombstones), (live.len(), 0, 0));
    insert(&mut live, 300..480);
    for id in (1..480).step_by(11).filter(|id| id % 7 != 0) {
        assert!(ix.delete(id));
        live.remove(&id);
    }
    let mut hits = 0;
    for qi in 0..queries.len() {
        let got = ix.search(queries.row(qi), k);
        assert_eq!(got.len(), k);
        assert!(got.iter().all(|nb| live.contains_key(&nb.id)), "query {qi} surfaced a dead id");
        let want = oracle(&live, queries.row(qi), k);
        hits += got.iter().filter(|nb| want.contains(&nb.id)).count();
    }
    let recall = hits as f64 / (k * queries.len()) as f64;
    assert!(recall >= 0.9, "mixed main + delta + tombstones recall@{k} = {recall:.3}");
}
