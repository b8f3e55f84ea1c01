//! Extension experiment: where the exact all-pairs scan stops beating
//! NN-Descent (ROADMAP item 1 a–b).
//!
//! `knn::nn_descent::exact_is_cheaper` decides which of the two k-NN
//! graph builders `NnDescent::build` runs. Its constants are read off
//! the first table printed here: both builders timed on the same rows
//! over n × k × dim for an easy (Gaussian) and a hard (clustered)
//! family, with seconds, ns per distance per thread and the distance
//! count of each. The second table runs both at the chooser's own
//! switch point — the acceptance bar is that they are within 1.5× of
//! each other there — and the third records what is left on the table
//! inside NN-Descent: its ns per pair against the bare `to_rows` gang
//! kernel on the same rows, and the share of its distance evaluations
//! that re-score a pair it had already scored (the inputs to the
//! RNN-Descent un-park rule). A last table times `NnDescent::build`
//! one row either side of the constant the chooser replaced.
//!
//! `--n` caps the grid (`--n 64000` reproduces
//! `results/ext_knn_crossover.txt`, ~40 min on 2 cores).

use crate::context::ExpContext;
use crate::report::Table;
use dataset::synth::{Family, SynthSpec};
use dataset::{Dataset, VectorStore};
use distance::{DistanceOracle, Metric};
use knn::nn_descent::{exact_all_pairs, exact_is_cheaper};
use knn::parallel::default_threads;
use knn::{NnDescent, NnDescentParams};
use std::sync::Mutex;
use std::time::Instant;

const METRIC: Metric = Metric::SquaredL2;
const CLUSTERED: Family = Family::Clustered { clusters: 128, spread: 1.0 };
const FAMILIES: [(Family, &str); 2] = [(Family::Gaussian, "gaussian"), (CLUSTERED, "clustered")];

/// One builder's cost on one input.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Wall-clock seconds at [`default_threads`].
    pub seconds: f64,
    /// Distance evaluations.
    pub distances: u64,
    /// NN-Descent iterations (0 for the exact scan).
    pub iterations: u32,
}

impl Cost {
    /// Nanoseconds per distance evaluation per thread.
    pub fn ns_per_pair(&self) -> f64 {
        self.seconds * 1e9 * default_threads() as f64 / self.distances.max(1) as f64
    }
}

fn rows(family: Family, dim: usize, n: usize, seed: u64) -> Dataset {
    SynthSpec { dim, n, queries: 0, family, seed }.generate().0
}

/// Run `f`, returning its (kept-alive) result and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Time the exact all-pairs scan.
pub fn exact_cost(base: &Dataset, k: usize) -> Cost {
    let (_, seconds) = timed(|| exact_all_pairs(base, METRIC, k, 0));
    let n = base.len() as u64;
    Cost { seconds, distances: n * (n - 1), iterations: 0 }
}

/// Time NN-Descent called directly (whatever the chooser would pick).
pub fn descent_cost(base: &Dataset, k: usize) -> Cost {
    let ((_, stats), seconds) =
        timed(|| NnDescent::new(NnDescentParams::new(k)).descent(base, METRIC));
    Cost { seconds, distances: stats.distance_computations, iterations: stats.iterations }
}

/// The largest `n` for which the chooser still picks the exact scan
/// (it is monotone in `n`, so a bisection finds it).
pub fn switch_point(k: usize, rho: f64, dim: usize) -> usize {
    let (mut lo, mut hi) = (2usize, 1usize << 24);
    assert!(exact_is_cheaper(lo, k.min(lo - 1), rho, dim) && !exact_is_cheaper(hi, k, rho, dim));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if exact_is_cheaper(mid, k.min(mid - 1), rho, dim) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A [`VectorStore`] with no flat view that logs the row pairs
/// `DistanceOracle::between_rows` asks it for (it fetches row `a`, then
/// row `b`), so the serial reference's local joins can be replayed as a
/// pair stream without instrumenting the builder.
struct PairLog<'a> {
    inner: &'a Dataset,
    state: Mutex<PairState>,
}

struct PairState {
    /// `get_into` calls still belonging to the random initialisation
    /// (one fetch of `v`, then its `k` candidates through `to_rows`).
    init_calls: u64,
    pending: Option<usize>,
    seen: Vec<u64>,
    pairs: u64,
    repeats: u64,
}

impl VectorStore for PairLog<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn bytes_per_vector(&self) -> usize {
        self.inner.bytes_per_vector()
    }
    fn get_into(&self, i: usize, out: &mut [f32]) {
        self.inner.get_into(i, out);
        let mut s = self.state.lock().expect("pair log poisoned");
        if s.init_calls > 0 {
            s.init_calls -= 1;
        } else if let Some(a) = s.pending.take() {
            let (lo, hi) = (a.min(i), a.max(i));
            let bit = lo * self.inner.len() + hi;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            s.pairs += 1;
            s.repeats += u64::from(s.seen[word] & mask != 0);
            s.seen[word] |= mask;
        } else {
            s.pending = Some(i);
        }
    }
}

/// `(join pairs, pairs already scored earlier in the same build)` of
/// NN-Descent on `base`, replayed through the serial reference (which
/// evaluates exactly the pairs the parallel build does).
pub fn repeated_pairs(base: &Dataset, k: usize) -> (u64, u64) {
    let n = base.len();
    let log = PairLog {
        inner: base,
        state: Mutex::new(PairState {
            init_calls: (n * (k + 1)) as u64,
            pending: None,
            seen: vec![0; (n * n).div_ceil(64)],
            pairs: 0,
            repeats: 0,
        }),
    };
    let params = NnDescentParams { threads: 1, ..NnDescentParams::new(k) };
    std::hint::black_box(knn::reference::reference_descent(&params, &log, METRIC));
    let s = log.state.into_inner().expect("pair log poisoned");
    assert!(s.pending.is_none() && s.init_calls == 0, "unexpected oracle fetch pattern");
    (s.pairs, s.repeats)
}

/// Nanoseconds per row of the bare gang kernel scoring random rows of
/// `base` — the ceiling the local join is measured against.
pub fn to_rows_ns(base: &Dataset) -> f64 {
    let n = base.len() as u64;
    let oracle = DistanceOracle::new(base, METRIC);
    let queries = 4000.min(base.len());
    // 96 scattered rows per query, as a local join's partner list is.
    let ids: Vec<u32> = (0..queries as u64 * 96)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n) as u32)
        .collect();
    let mut out = vec![0.0f32; 96];
    let t = Instant::now();
    for (q, ids) in ids.chunks_exact(96).enumerate() {
        oracle.to_rows(&oracle.prepare(base.row(q)), ids, &mut out);
        std::hint::black_box(&out);
    }
    t.elapsed().as_secs_f64() * 1e9 / ids.len() as f64
}

/// Print the four tables.
pub fn run(ctx: &ExpContext) {
    let rho = NnDescentParams::new(1).rho;
    let sizes: Vec<usize> =
        [2000, 4000, 8000, 16_000, 32_000, 64_000].into_iter().filter(|&n| n <= ctx.n).collect();
    println!("# threads = {} (ns/pair columns are per thread), rho = {rho}", default_threads());

    let mut grid = Table::new(&[
        "family",
        "dim",
        "k",
        "n",
        "exact s",
        "exact ns/pair",
        "exact dists",
        "descent s",
        "descent ns/pair",
        "descent dists",
        "iters",
        "exact/descent",
        "chooser",
    ]);
    for (family, label) in FAMILIES {
        for dim in [32usize, 96, 200] {
            for k in [32usize, 64, 96] {
                // The exact scan is quadratic: once it has lost by 4x
                // it is not timed at larger n.
                let mut exact_lost = false;
                for &n in &sizes {
                    let base = rows(family, dim, n, ctx.seed);
                    let descent = descent_cost(&base, k);
                    let exact = (!exact_lost).then(|| exact_cost(&base, k));
                    exact_lost |= exact.is_some_and(|e| e.seconds > 4.0 * descent.seconds);
                    let dash = || "-".to_string();
                    grid.row(vec![
                        label.to_string(),
                        dim.to_string(),
                        k.to_string(),
                        n.to_string(),
                        exact.map_or_else(dash, |e| format!("{:.3}", e.seconds)),
                        exact.map_or_else(dash, |e| format!("{:.1}", e.ns_per_pair())),
                        exact.map_or_else(dash, |e| e.distances.to_string()),
                        format!("{:.3}", descent.seconds),
                        format!("{:.1}", descent.ns_per_pair()),
                        descent.distances.to_string(),
                        descent.iterations.to_string(),
                        exact.map_or_else(dash, |e| format!("{:.2}", e.seconds / descent.seconds)),
                        if exact_is_cheaper(n, k, rho, dim) { "exact" } else { "descent" }
                            .to_string(),
                    ]);
                }
            }
        }
    }
    grid.print("Extension — exact all-pairs vs NN-Descent over n x k x dim");

    let mut switch =
        Table::new(&["family", "dim", "k", "switch n", "exact s", "descent s", "exact/descent"]);
    for (family, label) in FAMILIES {
        for (dim, k) in [(32usize, 64usize), (96, 32), (96, 64), (96, 96), (200, 64)] {
            let n = switch_point(k, rho, dim);
            if n > ctx.n {
                continue;
            }
            let base = rows(family, dim, n, ctx.seed);
            let (exact, descent) = (exact_cost(&base, k), descent_cost(&base, k));
            switch.row(vec![
                label.to_string(),
                dim.to_string(),
                k.to_string(),
                n.to_string(),
                format!("{:.3}", exact.seconds),
                format!("{:.3}", descent.seconds),
                format!("{:.2}", exact.seconds / descent.seconds),
            ]);
        }
    }
    switch.print("Extension — both builders at the chooser's switch point");

    let mut join = Table::new(&[
        "family",
        "dim",
        "k",
        "n",
        "descent ns/pair",
        "to_rows ns/row",
        "gap",
        "join pairs",
        "repeated",
        "repeated share",
    ]);
    let n = 8000.min(ctx.n);
    for (family, label, dim) in
        [(Family::Gaussian, "gaussian", 96usize), (CLUSTERED, "clustered", 200)]
    {
        let k = 64;
        let base = rows(family, dim, n, ctx.seed);
        let descent = descent_cost(&base, k);
        let ceiling = to_rows_ns(&base);
        let (pairs, repeats) = repeated_pairs(&base, k);
        assert_eq!(pairs + (n * k) as u64, descent.distances, "replay saw a different build");
        join.row(vec![
            label.to_string(),
            dim.to_string(),
            k.to_string(),
            n.to_string(),
            format!("{:.1}", descent.ns_per_pair()),
            format!("{ceiling:.1}"),
            format!("{:.2}x", descent.ns_per_pair() / ceiling),
            pairs.to_string(),
            repeats.to_string(),
            format!("{:.3}", repeats as f64 / pairs as f64),
        ]);
    }
    join.print("Extension — NN-Descent's local join against its ceilings");

    // The cliff the guessed constant left (0.16 s -> 3.05 s in the
    // suite's first trace): a clustered d = 200 cosine build at degree
    // 64 (`d_init` 128), one row either side of the old `n <= 2048`.
    let mut cliff = Table::new(&["n", "k-NN stage s", "iters", "dists"]);
    for n in [2048usize, 2049] {
        let base = rows(CLUSTERED, 200, n, ctx.seed);
        let ((_, stats), seconds) = timed(|| {
            NnDescent::new(NnDescentParams::new(128)).build_with_stats(&base, Metric::Cosine)
        });
        cliff.row(vec![
            n.to_string(),
            format!("{seconds:.3}"),
            stats.iterations.to_string(),
            stats.distance_computations.to_string(),
        ]);
    }
    cliff.print("Extension — NnDescent::build across the old n = 2048 constant");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_pair_stream_accounts_for_every_join_distance() {
        let (n, k) = (700usize, 8usize);
        let base = rows(Family::Gaussian, 6, n, 3);
        let (pairs, repeats) = repeated_pairs(&base, k);
        assert_eq!(pairs + (n * k) as u64, descent_cost(&base, k).distances);
        assert!(repeats > 0 && repeats < pairs);
    }

    #[test]
    fn switch_point_is_where_the_chooser_flips() {
        let n = switch_point(64, 0.5, 96);
        assert!(exact_is_cheaper(n, 64, 0.5, 96) && !exact_is_cheaper(n + 1, 64, 0.5, 96));
    }
}
