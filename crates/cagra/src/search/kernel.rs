//! The search kernel: the iterative loop of Fig. 6, written once.
//!
//! The paper's two hardware mappings (Sec. IV-C) differ only in how
//! that loop is laid out, which a private [`Shape`] captures; the loop
//! itself never looks at [`Mode`]:
//!
//! * **single-CTA** — one worker per query expanding `search_width`
//!   parents per round over an `itopk`-long list; batches of queries
//!   run as concurrent blocks.
//! * **multi-CTA** — `num_cta` workers per query, each expanding one
//!   parent per round over its own short list, all sharing one visited
//!   set. The shared set admits each node once, so the workers
//!   partition the explored region and a round examines up to
//!   `num_cta * d` nodes versus `p * d`, which keeps the GPU busy at
//!   batch sizes as small as 1.
//!
//! On the GPU every worker of a query runs at once. The host runs a
//! round as one gang, in four phases:
//!
//! 1. every live worker, in worker order, picks up to `p` of the best
//!    entries of its top-M list that have not been parents (from its
//!    parent cursor, [`SearchBuffer::pick_parents`]), and the parents'
//!    adjacency rows are prefetched; a worker with none left retires;
//! 2. in worker order, each worker's expansion goes to
//!    [`Hook::expand`], and its parents' neighbors go through the
//!    visited set; the first visits join one shared gang as that
//!    worker's segment;
//! 3. one [`DistanceOracle::to_rows`] call scores the whole gang;
//! 4. each worker admits its own segment, in order
//!    ([`SearchBuffer::push_candidate`]), so its list is up to date
//!    when phase 1 next reads it.
//!
//! Visited inserts, `expand` calls and admissions happen in the order a
//! worker-at-a-time loop makes them, so the traversal, the trace and
//! the hook's view do not depend on the gang. Initialization is one
//! gang the same way. The GPU's per-round candidate sort has no host
//! counterpart: admission at push keeps each list sorted, and the trace
//! reports the `p * d` slots a warp would sort (`sort_len`), which
//! `gpu-sim` prices.
//!
//! The loop is generic over a [`Hook`], its visited set. A host search
//! runs [`super::dense::DenseVisited`] (one stamp per graph row, never
//! full), which implements only `begin` and `insert`, so the host loop
//! carries no simulation branches. `gpu-sim` brings the GPU's hash
//! tables, which also see each expansion's parents through
//! [`Hook::expand`] and derive their probe counts, resets and access
//! log from what the loop asks of them.

use super::buffer::{BufEntry, SearchBuffer};
use super::index::CagraIndex;
use super::parent::{node_id, INVALID};
use super::planner::Mode;
use super::scratch::{SearchScratch, Segment};
use super::trace::IterationTrace;
use crate::params::SearchParams;
use dataset::VectorStore;
use distance::{kernels, DistanceOracle, PreparedQuery};
use knn::topk::{cmp_neighbor, Neighbor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one query's loop is laid out on workers.
struct Shape {
    /// Cooperating workers, each with its own top-M list.
    workers: usize,
    /// Parents each worker expands per round (the paper's `p`).
    parents: usize,
    /// Per-worker top-M length.
    m: usize,
    /// Round cap (`I_max`).
    max_rounds: usize,
    /// Whether the per-worker lists are merged by `(dist, id)` at the
    /// end; a lone list is already in order and is taken as it stands.
    merge: bool,
}

impl Shape {
    fn new(mode: Mode, params: &SearchParams, degree: usize) -> Shape {
        let cap = params.effective_max_iterations(degree);
        match mode {
            Mode::SingleCta => Shape {
                workers: 1,
                parents: params.search_width,
                m: params.itopk,
                max_rounds: cap,
                merge: false,
            },
            Mode::MultiCta => {
                // The paper splits the search across CTAs with small
                // per-CTA lists; 32 matches the cuVS floor. A worker
                // may need a round per list slot, hence the cap floor.
                let m = params.itopk.div_ceil(params.num_cta).max(32);
                Shape {
                    workers: params.num_cta,
                    parents: 1,
                    m,
                    max_rounds: cap.max(m),
                    merge: true,
                }
            }
        }
    }
}

/// What the loop asks of its visited set. A caller outside the host
/// path (`gpu-sim`) also sees each expansion through [`Hook::expand`],
/// which defaults to doing nothing, as does [`Hook::begin`].
#[doc(hidden)]
pub trait Hook {
    /// Before the search: the graph's row count, the round cap, and the
    /// neighbor slots one round fills across all workers.
    fn begin(&mut self, _rows: usize, _max_rounds: usize, _round_slots: usize) {}
    /// Mark `id` visited; `true` on its first visit.
    fn insert(&mut self, id: u32) -> bool;
    /// Before a worker expands `parents` in `round`, with its buffer
    /// (whose top-M a forgettable table keeps across a reset,
    /// Sec. IV-B3). The inserts that follow are that expansion's.
    fn expand(&mut self, _round: usize, _parents: &[u32], _buf: &SearchBuffer) {}
}

/// Search `index` for the `k` nearest neighbors of `query` with the
/// mapping `mode` — the loop of Fig. 6 — entirely on caller-provided
/// scratch and `visited`. Results land in [`SearchScratch::results`] (ascending
/// distance) and the trace in [`SearchScratch::trace`], one entry per
/// round; a scratch reused across queries of one shape allocates
/// nothing per query in steady state.
///
/// On a *relabeled* index, the random start sets are drawn in the
/// original numbering, so the traversal visits the same vectors as the
/// unpermuted index bit for bit, and results are translated back to
/// original ids once at the end — the loop runs on internal ids with
/// zero per-hop overhead.
///
/// # Panics
/// Panics on invalid parameters (see [`SearchParams::validate`]) or a
/// query dimension mismatch.
pub(crate) fn search_query<S: VectorStore, H: Hook>(
    index: &CagraIndex<S>,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    mode: Mode,
    scratch: &mut SearchScratch,
    visited: &mut H,
) {
    // ALLOW(panic): documented contract of the unchecked entry; the
    // `try_search*` path validates and returns typed errors instead.
    params.validate(k).unwrap_or_else(|e| panic!("{e}"));
    // ALLOW(panic): documented precondition (see `# Panics`).
    assert_eq!(query.len(), index.store().dim(), "query dimension mismatch");
    let (graph, id_map) = (index.graph(), index.id_map());
    let (n, d) = (graph.len(), graph.degree());
    let shape = Shape::new(mode, params, d);
    scratch.begin(shape.workers, shape.m, shape.parents, d, shape.max_rounds);
    visited.begin(n, shape.max_rounds, shape.workers * shape.parents * d);
    let SearchScratch {
        buffers,
        active,
        parents,
        segments,
        results,
        trace,
        record_trace,
        gang_ids,
        gang_dists,
        ..
    } = scratch;
    trace.itopk = params.itopk;
    trace.search_width = shape.parents;
    trace.degree = d;
    trace.num_workers = shape.workers;

    let oracle = DistanceOracle::new(index.store(), index.metric());
    let prepared = oracle.prepare(query);

    // Initialization (Fig. 6, step 0): each worker draws `p * d`
    // uniformly random nodes, deduplicated through the visited set;
    // every worker's draws are scored in one gang call. Draws happen in
    // the *original* numbering and map through the id map (a bijection,
    // so the dedup pattern — and therefore the whole traversal —
    // matches the unpermuted index).
    let mut rng = StdRng::seed_from_u64(params.seed);
    for worker in 0..shape.workers {
        let before = gang_ids.len();
        for _ in 0..shape.parents * d {
            let drawn = rng.gen_range(0..n) as u32;
            let id = match id_map {
                Some(m) => m.internal_of_original(drawn),
                None => drawn,
            };
            if visited.insert(id) {
                gang_ids.push(id);
            }
        }
        segments.push(Segment { worker, parents: 0, fresh: gang_ids.len() - before });
    }
    score_and_admit(&oracle, &prepared, gang_ids, gang_dists, segments, buffers);
    trace.init_distances = gang_ids.len() as u64;

    let mut rounds = 0usize;
    let mut total_computed = trace.init_distances;
    // Whole-query obs input: one histogram write after the loop, not
    // one per round.
    let mut widest_sort = 0u64;
    while rounds < shape.max_rounds {
        // Phase 1: every live worker picks up to p entries that have
        // not been parents, and their adjacency rows start moving. A
        // list only changes through its own worker's expansions, so a
        // worker that finds none is finished for good.
        parents.clear();
        segments.clear();
        for (worker, (buf, act)) in buffers.iter_mut().zip(active.iter_mut()).enumerate() {
            if !*act {
                continue;
            }
            let before = parents.len();
            let picked = buf.pick_parents(shape.parents, parents);
            if picked == 0 {
                *act = false;
                continue;
            }
            for &p in parents.iter().skip(before) {
                kernels::prefetch_slice(graph.neighbors(p as usize));
            }
            segments.push(Segment { worker, parents: picked, fresh: 0 });
        }
        if segments.is_empty() {
            break;
        }

        // Phase 2: in worker order, each worker's expansion is shown to
        // the hook and its parents' first-visit neighbors, in adjacency
        // order, join the gang as that worker's segment.
        let mut round = IterationTrace::default();
        gang_ids.clear();
        let mut unplanned = parents.as_slice();
        for seg in segments.iter_mut() {
            // Phase 1 pushed each segment's parents in this order.
            let (mine, rest) = unplanned.split_at(seg.parents);
            unplanned = rest;
            if let Some(buf) = buffers.get(seg.worker) {
                visited.expand(rounds, mine, buf);
            }
            let before = gang_ids.len();
            for &p in mine {
                gang_ids
                    .extend(graph.neighbors(p as usize).iter().filter(|&&nb| visited.insert(nb)));
            }
            seg.fresh = gang_ids.len() - before;
            // The GPU sorts every neighbor slot, visited or not: each
            // worker's `p * d`-slot segment.
            let slots = (seg.parents * d) as u64;
            round.candidates += slots;
            round.sort_len = round.sort_len.max(slots);
        }
        #[cfg(feature = "debug_invariants")]
        check_plan(segments, parents.len(), gang_ids.len());

        // Phases 3 and 4: one gang call scores the round, and each
        // worker admits its own segment, in order.
        score_and_admit(&oracle, &prepared, gang_ids, gang_dists, segments, buffers);
        round.distances_computed = gang_ids.len() as u64;
        widest_sort = widest_sort.max(round.sort_len);
        total_computed += round.distances_computed;
        if *record_trace {
            trace.iterations.push(round);
        }
        rounds += 1;
    }

    let om = obs::metrics();
    om.search_iterations.record(rounds as u64);
    om.search_distances.record(total_computed);
    om.search_sort_len.record(widest_sort);

    // Collect the workers' lists; the shared visited set guarantees a
    // node appears in at most one of them. A lone ordered list gives
    // its first k. Merged lists give theirs up to the k-th entry plus
    // every entry tied with it: the merge breaks ties by *original* id,
    // which on a relabeled index need not follow a list's internal
    // order, and no entry past a tie can make the merged top k.
    for buf in buffers.iter() {
        let mut kth = f32::NAN;
        for (rank, e) in buf.topm().iter().filter(|e| e.packed != INVALID).enumerate() {
            if rank + 1 == k {
                kth = e.dist;
            } else if rank >= k && !(shape.merge && e.dist == kth) {
                break;
            }
            let id = node_id(e.packed);
            let id = match id_map {
                Some(m) => m.original_of_internal(id),
                None => id,
            };
            results.push(Neighbor::new(id, e.dist));
        }
    }
    if shape.merge {
        results.sort_unstable_by(cmp_neighbor);
        results.truncate(k);
    }
}

/// Score the gang `ids` in one call and admit each segment's share into
/// its worker's list, segment by segment in push order.
fn score_and_admit<S: VectorStore>(
    oracle: &DistanceOracle<'_, S>,
    prepared: &PreparedQuery<'_>,
    ids: &[u32],
    dists: &mut Vec<f32>,
    segments: &[Segment],
    buffers: &mut [SearchBuffer],
) {
    dists.clear();
    dists.resize(ids.len(), 0.0);
    oracle.to_rows(prepared, ids, dists);
    let mut scored = ids.iter().zip(dists.iter());
    for seg in segments {
        let Some(buf) = buffers.get_mut(seg.worker) else { continue };
        for (&id, &dist) in scored.by_ref().take(seg.fresh) {
            buf.push_candidate(BufEntry::new(id, dist));
        }
    }
}

/// `debug_invariants` shadow: a round's segments run in worker order
/// and split its parents and its gang with nothing left over.
#[cfg(feature = "debug_invariants")]
fn check_plan(segments: &[Segment], parents: usize, gang: usize) {
    // ALLOW(panic): compiled only under `debug_invariants`.
    assert!(segments.windows(2).all(|w| w[0].worker < w[1].worker), "segments out of worker order");
    // ALLOW(panic): compiled only under `debug_invariants`.
    assert_eq!(segments.iter().map(|s| s.parents).sum::<usize>(), parents, "parents unassigned");
    // ALLOW(panic): compiled only under `debug_invariants`.
    assert_eq!(segments.iter().map(|s| s.fresh).sum::<usize>(), gang, "fresh ids unassigned");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphConfig;
    use dataset::synth::{Family, SynthSpec};
    use distance::Metric;
    use knn::brute::exact_search;

    const MODES: [Mode; 2] = [Mode::SingleCta, Mode::MultiCta];

    /// The kernel behind `CagraIndex::search_mode`, which adds nothing
    /// to it but validation and a fresh scratch.
    fn setup(n: usize) -> CagraIndex<dataset::Dataset> {
        let spec = SynthSpec { dim: 8, n, queries: 0, family: Family::Gaussian, seed: 3 };
        CagraIndex::build(spec.generate().0, Metric::SquaredL2, &GraphConfig::new(16)).0
    }

    /// Recall@10 over 20 fresh Gaussian queries.
    fn recall_of(
        ix: &CagraIndex<dataset::Dataset>,
        params: &SearchParams,
        mode: Mode,
        queries_seed: u64,
    ) -> f64 {
        let spec =
            SynthSpec { dim: 8, n: 0, queries: 20, family: Family::Gaussian, seed: queries_seed };
        let (_, queries) = spec.generate();
        let mut hits = 0usize;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let (got, _) = ix.search_mode(q, 10, params, mode);
            let want = exact_search(ix.store(), Metric::SquaredL2, q, 10);
            let want_ids: std::collections::HashSet<u32> = want.iter().map(|n| n.id).collect();
            hits += got.iter().filter(|n| want_ids.contains(&n.id)).count();
        }
        hits as f64 / (queries.len() * 10) as f64
    }

    #[test]
    fn finds_high_recall_results() {
        let ix = setup(2000);
        for mode in MODES {
            let recall = recall_of(&ix, &SearchParams::for_k(10), mode, 5);
            assert!(recall > 0.9, "{mode:?} recall@10 = {recall}");
        }
    }

    #[test]
    fn results_sorted_unique_and_deterministic() {
        let ix = setup(500);
        let params = SearchParams::for_k(10);
        for mode in MODES {
            let (got, trace) = ix.search_mode(ix.store().row(0), 10, &params, mode);
            assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
            // No duplicate ids — across workers too: the shared hash
            // partitions the explored region.
            let mut ids: Vec<u32> = got.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), got.len());
            // Query is a dataset point: its own id must be the best hit.
            assert_eq!(got[0].id, 0);
            assert_eq!(got[0].dist, 0.0);
            // Same seed, same answer.
            assert_eq!(ix.search_mode(ix.store().row(0), 10, &params, mode).0, got);
            let workers = if mode == Mode::SingleCta { 1 } else { params.num_cta };
            assert_eq!(trace.num_workers, workers);
        }
    }

    #[test]
    fn trace_accounts_for_work() {
        let ix = setup(500);
        let params = SearchParams::for_k(5);
        for mode in MODES {
            let (_, trace) = ix.search_mode(ix.store().row(1), 5, &params, mode);
            assert!(trace.iteration_count() > 0);
            assert!(trace.total_distances() > 0);
            assert!(trace.init_distances <= (trace.num_workers * ix.graph().degree()) as u64);
            for it in &trace.iterations {
                assert!(it.distances_computed <= it.candidates);
                // p = 1 in both default shapes: one d-slot segment per
                // worker, however many workers contributed candidates.
                assert_eq!(it.sort_len, ix.graph().degree() as u64);
                assert!(it.candidates <= it.sort_len * trace.num_workers as u64);
            }
        }
    }

    #[test]
    fn respects_max_iterations() {
        let ix = setup(500);
        let mut p = SearchParams::for_k(5);
        p.max_iterations = 3;
        let (_, trace) = ix.search_mode(ix.store().row(2), 5, &p, Mode::SingleCta);
        assert!(trace.iteration_count() <= 3);
        // Multi-CTA raises the cap to its per-worker list length.
        let (_, trace) = ix.search_mode(ix.store().row(2), 5, &p, Mode::MultiCta);
        assert!(trace.iteration_count() <= Shape::new(Mode::MultiCta, &p, ix.graph().degree()).m);
    }

    #[test]
    fn wider_search_width_expands_more_per_iteration() {
        // The paper's p: each iteration expands p parents and fills a
        // p*d candidate list.
        let ix = setup(1500);
        let d = ix.graph().degree();
        for p in [1usize, 2, 4] {
            let mut params = SearchParams::for_k(5);
            params.search_width = p;
            params.max_iterations = 6;
            let (_, trace) = ix.search_mode(ix.store().row(7), 5, &params, Mode::SingleCta);
            for (i, it) in trace.iterations.iter().enumerate() {
                assert!(it.candidates <= (p * d) as u64, "iter {i}: {} > {}", it.candidates, p * d);
                assert_eq!(it.sort_len, it.candidates);
            }
            // The first iteration always has p full parents available.
            assert_eq!(trace.iterations[0].candidates, (p * d) as u64, "p = {p}");
        }
    }

    #[test]
    fn search_width_two_reaches_at_least_width_one_recall() {
        let ix = setup(2000);
        let recall_for = |width: usize| {
            let mut params = SearchParams::for_k(10);
            params.search_width = width;
            params.max_iterations = 24; // fixed iteration budget
            recall_of(&ix, &params, Mode::SingleCta, 31)
        };
        let r1 = recall_for(1);
        let r2 = recall_for(2);
        // At a fixed iteration budget, wider search explores more
        // nodes, so recall must not drop (Sec. IV-A).
        assert!(r2 >= r1 - 0.02, "p=2 recall {r2} vs p=1 {r1}");
    }

    #[test]
    fn more_ctas_explore_more_nodes_per_round() {
        let ix = setup(3000);
        let first_round = |num_cta: usize| {
            let p = SearchParams { max_iterations: 8, num_cta, ..SearchParams::for_k(10) };
            let (_, t) = ix.search_mode(ix.store().row(5), 10, &p, Mode::MultiCta);
            t.iterations.first().map_or(0, |i| i.candidates)
        };
        let (one, eight) = (first_round(1), first_round(8));
        assert!(eight > one, "{eight} vs {one}");
    }

    #[test]
    fn per_cta_top_m_is_the_split_of_itopk_floored_at_32() {
        let mut p = SearchParams::for_k(10);
        for (itopk, num_cta, m) in [(64, 4, 32), (512, 4, 128), (64, 64, 32)] {
            p.itopk = itopk;
            p.num_cta = num_cta;
            let multi = Shape::new(Mode::MultiCta, &p, 16);
            assert_eq!((multi.workers, multi.parents, multi.m), (num_cta, 1, m));
            assert!(multi.merge && multi.max_rounds >= m);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_bad_query_dim() {
        let ix = setup(200);
        let mut scratch = SearchScratch::new();
        ix.search_mode_with(&[0.0; 3], 5, &SearchParams::for_k(5), Mode::SingleCta, &mut scratch);
    }
}
