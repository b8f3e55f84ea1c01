//! Naive serial NN-Descent reference.
//!
//! A deliberately simple `Vec<Vec<_>>`-based re-implementation of the
//! exact algorithm the flat parallel pipeline in [`crate::nn_descent`]
//! runs: same per-node RNG seeds, same sampling and subsampling rules,
//! same bounded sorted-insert join semantics, same snapshot-based
//! termination. Because the optimized pipeline is deterministic for
//! any thread count, this reference lets the `build_parity` test
//! assert *bit-identical* output instead of approximate agreement.
//!
//! Kept permanently (not test-gated): it documents the algorithm
//! without the arena machinery and guards against silent semantic
//! drift in future optimization work.

use crate::flat::KnnLists;
use crate::nn_descent::{
    exact_all_pairs, exact_is_cheaper, init_seed, iter_seed, NnDescentParams, SALT_REV_NEW,
    SALT_REV_OLD, SALT_SAMPLE,
};
use crate::topk::{cmp_neighbor, Neighbor};
use dataset::VectorStore;
use distance::{DistanceOracle, Metric};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy)]
struct RefEntry {
    n: Neighbor,
    is_new: bool,
}

/// Serial reference build: returns exactly what
/// [`crate::NnDescent::build`] returns, computed the slow plain way —
/// the exact scan where [`exact_is_cheaper`] says so, otherwise
/// [`reference_descent`].
pub fn reference_build<S: VectorStore + ?Sized>(
    params: &NnDescentParams,
    store: &S,
    metric: Metric,
) -> KnnLists {
    let n = store.len();
    let k = params.k.min(n.saturating_sub(1));
    if k == 0 || exact_is_cheaper(n, k, params.rho, store.dim()) {
        return exact_all_pairs(store, metric, k, 1);
    }
    reference_descent(params, store, metric)
}

/// Serial reference for [`crate::NnDescent::descent`]: the iterations
/// themselves, whatever the chooser says about this input.
///
/// # Panics
/// Panics if the store has fewer than two rows.
pub fn reference_descent<S: VectorStore + ?Sized>(
    params: &NnDescentParams,
    store: &S,
    metric: Metric,
) -> KnnLists {
    assert!(params.k > 0, "k must be positive");
    assert!(params.rho > 0.0 && params.rho <= 1.0, "rho must be in (0, 1]");
    let n = store.len();
    assert!(n >= 2, "NN-Descent needs at least two rows");
    let k = params.k.min(n - 1);

    let seed = params.seed;
    let oracle = DistanceOracle::new(store, metric);
    let mut scratch = vec![0.0f32; store.dim()];
    let mut dists = vec![0.0f32; k];

    // Random initialization, per-node RNG.
    let mut lists: Vec<Vec<RefEntry>> = Vec::with_capacity(n);
    for v in 0..n {
        let mut rng = StdRng::seed_from_u64(init_seed(seed, v));
        store.get_into(v, &mut scratch);
        let prepared = oracle.prepare(&scratch);
        let mut cand: Vec<u32> = Vec::with_capacity(k);
        while cand.len() < k {
            let u = rng.gen_range(0..n);
            if u == v || cand.iter().any(|&c| c as usize == u) {
                continue;
            }
            cand.push(u as u32);
        }
        oracle.to_rows(&prepared, &cand, &mut dists[..k]);
        let mut list: Vec<RefEntry> = cand
            .iter()
            .zip(dists.iter())
            .map(|(&u, &d)| RefEntry { n: Neighbor::new(u, d), is_new: true })
            .collect();
        list.sort_unstable_by(|a, b| cmp_neighbor(&a.n, &b.n));
        lists.push(list);
    }

    let max_samples = ((params.rho * k as f64).ceil() as usize).max(1);
    let stop_at = (params.delta * n as f64 * k as f64).max(1.0) as u64;
    let mut prev_ids: Vec<u32> = lists.iter().flat_map(|l| l.iter().map(|e| e.n.id)).collect();

    for iter in 0..params.max_iters {
        // Phase 1: forward samples; sampled new entries become old.
        let mut fwd_new: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fwd_old: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            let mut rng = StdRng::seed_from_u64(iter_seed(seed, SALT_SAMPLE, iter, v));
            let list = &mut lists[v];
            let mut positions: Vec<usize> = Vec::new();
            for (i, e) in list.iter().enumerate() {
                if e.is_new {
                    positions.push(i);
                } else {
                    fwd_old[v].push(e.n.id);
                }
            }
            positions.shuffle(&mut rng);
            positions.truncate(max_samples);
            for &i in &positions {
                fwd_new[v].push(list[i].n.id);
                list[i].is_new = false;
            }
        }

        // Phase 2: reverse candidates in ascending source order, then
        // per-node shuffles choosing which prefix survives.
        let mut rev_new: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rev_old: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            for &u in &fwd_new[v] {
                rev_new[u as usize].push(v as u32);
            }
            for &u in &fwd_old[v] {
                rev_old[u as usize].push(v as u32);
            }
        }
        for v in 0..n {
            if rev_new[v].len() > max_samples {
                let mut rng = StdRng::seed_from_u64(iter_seed(seed, SALT_REV_NEW, iter, v));
                rev_new[v].shuffle(&mut rng);
                rev_new[v].truncate(max_samples);
            }
            if rev_old[v].len() > max_samples {
                let mut rng = StdRng::seed_from_u64(iter_seed(seed, SALT_REV_OLD, iter, v));
                rev_old[v].shuffle(&mut rng);
                rev_old[v].truncate(max_samples);
            }
        }

        // Phase 3: local joins.
        for v in 0..n {
            let mut news: Vec<u32> = fwd_new[v].iter().chain(rev_new[v].iter()).copied().collect();
            news.sort_unstable();
            news.dedup();
            let mut olds: Vec<u32> = fwd_old[v].iter().chain(rev_old[v].iter()).copied().collect();
            olds.sort_unstable();
            olds.dedup();
            for (ai, &a) in news.iter().enumerate() {
                for &b in &news[ai + 1..] {
                    join(&oracle, &mut lists, a, b, k);
                }
                for &b in olds.iter() {
                    if a != b {
                        join(&oracle, &mut lists, a, b, k);
                    }
                }
            }
        }

        // Termination: positional id changes against the snapshot.
        let mut changed = 0u64;
        for (v, list) in lists.iter().enumerate() {
            for (slot, e) in prev_ids[v * k..(v + 1) * k].iter_mut().zip(list) {
                if *slot != e.n.id {
                    changed += 1;
                    *slot = e.n.id;
                }
            }
        }
        if changed < stop_at {
            break;
        }
    }

    let rows: Vec<Vec<Neighbor>> =
        lists.into_iter().map(|l| l.into_iter().map(|e| e.n).collect()).collect();
    KnnLists::from_rows(&rows)
}

fn join<S: VectorStore + ?Sized>(
    oracle: &DistanceOracle<'_, S>,
    lists: &mut [Vec<RefEntry>],
    a: u32,
    b: u32,
    k: usize,
) {
    let d = oracle.between_rows(a as usize, b as usize);
    try_insert(&mut lists[a as usize], Neighbor::new(b, d), k);
    try_insert(&mut lists[b as usize], Neighbor::new(a, d), k);
}

fn try_insert(list: &mut Vec<RefEntry>, n: Neighbor, k: usize) {
    if list.len() == k {
        if let Some(worst) = list.last() {
            if cmp_neighbor(&n, &worst.n) != std::cmp::Ordering::Less {
                return;
            }
        }
    }
    if list.iter().any(|e| e.n.id == n.id) {
        return;
    }
    let pos = list.partition_point(|e| cmp_neighbor(&e.n, &n) == std::cmp::Ordering::Less);
    list.insert(pos, RefEntry { n, is_new: true });
    if list.len() > k {
        list.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn_descent::NnDescent;
    use dataset::synth::{Family, SynthSpec};

    /// The headline determinism contract: the flat parallel pipeline
    /// is bit-identical to this naive serial implementation, at one
    /// thread and at several.
    #[test]
    fn optimized_descent_matches_reference_bitwise() {
        let spec = SynthSpec { dim: 6, n: 1200, queries: 0, family: Family::Gaussian, seed: 11 };
        let (base, _) = spec.generate();
        for metric in [Metric::SquaredL2, Metric::Cosine] {
            let params = NnDescentParams { threads: 1, ..NnDescentParams::new(12) };
            let want = reference_descent(&params, &base, metric);
            for threads in [1usize, 4] {
                let p = NnDescentParams { threads, ..params.clone() };
                let (got, _) = NnDescent::new(p).descent(&base, metric);
                assert_eq!(got, want, "{metric:?}: diverged from reference at {threads} threads");
            }
        }
    }

    #[test]
    fn reference_takes_exact_path_on_tiny_datasets() {
        let spec = SynthSpec { dim: 4, n: 50, queries: 0, family: Family::Gaussian, seed: 3 };
        let (base, _) = spec.generate();
        let params = NnDescentParams::new(5);
        let want = exact_all_pairs(&base, Metric::SquaredL2, 5, 1);
        assert_eq!(reference_build(&params, &base, Metric::SquaredL2), want);
    }
}
