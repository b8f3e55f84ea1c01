//! Simulated searches: `cagra`'s loop, reached through its hidden
//! [`Hook`], run on the GPU's visited tables, which derive everything
//! this crate prices beyond the host trace — per-round probes and
//! resets and, on request, every row the search gathers — from what
//! the loop asks of them. Host searches do none of this.

use crate::trace::{AccessLog, IterAccess, SimRecord, SimRound, SimTrace};
use crate::visited::{HashPolicy, VisitedSet};
use cagra::search::buffer::SearchBuffer;
use cagra::search::kernel::Hook;
use cagra::search::planner::Mode;
use cagra::{CagraIndex, SearchParams, SearchScratch, ShardedIndex};
use dataset::VectorStore;
use knn::parallel::{default_threads, parallel_map_with};
use knn::topk::Neighbor;

/// One worker's GPU hash table under one [`HashPolicy`], recycled across
/// the searches it runs ([`search_with`]) without reallocating, with
/// the record of the last search ([`SimTable::record`]), access log
/// included when the table logs.
#[derive(Clone, Debug)]
pub struct SimTable {
    policy: HashPolicy,
    /// This search's forgettable table: `(bits, rounds between
    /// resets)`. `None` runs the standard table, sized per search.
    forgettable: Option<(u8, usize)>,
    set: VisitedSet,
    record: SimRecord,
    /// Cleared per-round log entries kept for the next search, so a
    /// logging table allocates nothing in steady state.
    spare: Vec<IterAccess>,
}

impl SimTable {
    /// A table under `policy`, logging every gathered row into its
    /// record's [`SimRecord::accesses`] when `log_accesses`.
    ///
    /// # Panics
    /// Panics on a forgettable policy with `bits` outside `4..=24` or a
    /// zero `reset_interval`.
    pub fn new(policy: HashPolicy, log_accesses: bool) -> Self {
        if let HashPolicy::Forgettable { bits, reset_interval } = policy {
            // ALLOW(panic): documented precondition (see `# Panics`).
            assert!(
                (4..=24).contains(&bits) && reset_interval > 0,
                "forgettable hash needs 4..=24 bits and a positive reset interval, got {policy:?}"
            );
        }
        // The table is a placeholder until the first search sizes it.
        let record =
            SimRecord { accesses: log_accesses.then(AccessLog::default), ..SimRecord::default() };
        SimTable { policy, forgettable: None, set: VisitedSet::new(4), record, spare: Vec::new() }
    }

    /// What the table recorded of the last search.
    pub fn record(&self) -> &SimRecord {
        &self.record
    }

    /// Pick the table `mode` runs: multi-CTA's lives in device memory
    /// and is the standard one whatever the policy.
    fn arm(&mut self, mode: Mode) {
        self.forgettable = match (self.policy, mode) {
            (HashPolicy::Forgettable { bits, reset_interval }, Mode::SingleCta) => {
                Some((bits, reset_interval.into()))
            }
            _ => None,
        };
    }
}

impl Hook for SimTable {
    fn begin(&mut self, _rows: usize, max_rounds: usize, round_slots: usize) {
        let bits = match self.forgettable {
            Some((bits, _)) => bits,
            None => VisitedSet::standard_bits(max_rounds, round_slots),
        };
        self.set.reset_to(bits);
        let record = &mut self.record;
        record.rounds.clear();
        record.hash_slots = self.set.capacity();
        record.hash_in_shared = self.forgettable.is_some();
        if let Some(log) = &mut record.accesses {
            log.init_scored.clear();
            // Reversed, so round `r` reuses last search's entry `r`.
            self.spare.extend(log.iterations.drain(..).rev().map(|mut entry| {
                entry.parents.clear();
                entry.scored.clear();
                entry
            }));
        }
    }

    /// Probes taken here after a round's first [`Hook::expand`] are that
    /// round's (the initialization's are not counted, nor a reset's,
    /// which never comes through here); first visits go to the log.
    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        let before = self.set.probes();
        let fresh = self.set.insert(id);
        if let Some(round) = self.record.rounds.last_mut() {
            round.probes += self.set.probes() - before;
        }
        if let (true, Some(log)) = (fresh, &mut self.record.accesses) {
            match log.iterations.last_mut() {
                Some(round) => round.scored.push(id),
                None => log.init_scored.push(id),
            }
        }
        fresh
    }

    fn expand(&mut self, round: usize, parents: &[u32], buf: &SearchBuffer) {
        let record = &mut self.record;
        if record.rounds.len() <= round {
            record.rounds.push(SimRound::default());
            if let Some(log) = &mut record.accesses {
                log.iterations.push(self.spare.pop().unwrap_or_default());
            }
        }
        let due = self
            .forgettable
            .is_some_and(|(_, interval)| round > 0 && round.is_multiple_of(interval));
        if due {
            self.set.reset(buf.topm_ids());
        }
        if let Some(current) = record.rounds.last_mut() {
            current.reset |= due;
        }
        if let Some(entry) = record.accesses.as_mut().and_then(|log| log.iterations.last_mut()) {
            entry.parents.extend_from_slice(parents);
        }
    }
}

/// [`CagraIndex::search_mode_with`] on `table` (multi-CTA always runs
/// the standard one): the results and the host trace land in
/// `scratch`, the table's record in [`SimTable::record`]. Recycling one
/// `table` and one scratch across queries reuses the hash table's
/// slots and, when it logs, the access log. Panics like
/// `search_mode_with`.
pub fn search_with<S: VectorStore>(
    index: &CagraIndex<S>,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    mode: Mode,
    table: &mut SimTable,
    scratch: &mut SearchScratch,
) {
    table.arm(mode);
    index.search_hooked(query, k, params, mode, scratch, table);
    let set = &table.set;
    let om = obs::metrics();
    om.search_probe_len.record(table.record.total_hash_probes());
    om.search_hash_occupancy_permille.record((set.len() as u64 * 1000) / set.capacity() as u64);
}

/// Panic on a request [`CagraIndex::validate_shape`] rejects: the
/// contract of the traced entries below.
fn validate<S: VectorStore>(index: &CagraIndex<S>, dim: usize, k: usize, params: &SearchParams) {
    let valid = index.validate_shape(dim, k, params);
    // ALLOW(panic): documented contract of the panicking traced entries.
    valid.unwrap_or_else(|e| panic!("{e}"));
}

/// [`CagraIndex::try_search_batch`] on the GPU's visited table under
/// `policy`, with the traces [`crate::simulate_batch`] prices: query
/// `qi` runs [`search_with`] with seed
/// [`SearchParams::seed_for_query`]`(qi)` on one recycled table and
/// scratch per thread. Panics on the inputs that entry rejects and the
/// policies [`SimTable::new`] refuses.
pub fn search_batch_traced<S: VectorStore, Q: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Q,
    k: usize,
    params: &SearchParams,
    mode: Mode,
    policy: HashPolicy,
) -> Vec<(Vec<Neighbor>, SimTrace)> {
    validate(index, queries.dim(), k, params);
    let state = || (SearchScratch::new(), SimTable::new(policy, false), vec![0.0; queries.dim()]);
    let run = |(scratch, table, query): &mut (SearchScratch, SimTable, Vec<f32>), qi: usize| {
        queries.get_into(qi, query);
        let p = SearchParams { seed: params.seed_for_query(qi), ..*params };
        search_with(index, query, k, &p, mode, table, scratch);
        let trace = SimTrace { host: scratch.trace().clone(), sim: table.record().clone() };
        (scratch.results().to_vec(), trace)
    };
    obs::metrics().search_batches.inc();
    parallel_map_with(queries.len(), default_threads(), state, run)
}

/// [`ShardedIndex::search`] on the GPU's visited table under `policy`,
/// with each shard's trace for [`crate::simulate_sharded_batch`]: every
/// shard runs [`search_with`] on one table and one scratch. Panics like
/// [`search_batch_traced`].
pub fn search_sharded_traced<S: VectorStore>(
    index: &ShardedIndex<S>,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    mode: Mode,
    policy: HashPolicy,
) -> (Vec<Neighbor>, Vec<SimTrace>) {
    let mut table = SimTable::new(policy, false);
    let mut scratch = SearchScratch::new();
    index.search_each(k, |shard| {
        validate(shard, query.len(), k, params);
        search_with(shard, query, k, params, mode, &mut table, &mut scratch);
        let trace = SimTrace { host: scratch.trace().clone(), sim: table.record().clone() };
        (scratch.results().to_vec(), trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagra::GraphConfig;
    use dataset::synth::{Family, SynthSpec};
    use distance::Metric;

    #[test]
    fn expansion_probes_match_the_recorded_rounds() {
        let spec = SynthSpec { dim: 8, n: 800, queries: 6, family: Family::Gaussian, seed: 5 };
        let (base, queries) = spec.generate();
        let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
        let p = SearchParams::for_k(10);
        let forgettable = HashPolicy::Forgettable { bits: 8, reset_interval: 1 };
        let mut scratch = SearchScratch::new();
        let mut untraced = SearchScratch::new();
        untraced.set_record_trace(false);
        for policy in [forgettable, HashPolicy::Standard] {
            for mode in [Mode::SingleCta, Mode::MultiCta] {
                let label = format!("{policy:?}/{mode:?}");
                // Multi-CTA runs the standard table whatever the policy.
                let resets = policy != HashPolicy::Standard && mode == Mode::SingleCta;
                let mut table = SimTable::new(policy, true);
                for qi in 0..queries.len() {
                    search_with(&index, queries.row(qi), 10, &p, mode, &mut table, &mut scratch);
                    let (trace, record) = (scratch.trace(), table.record().clone());
                    assert_eq!(record.rounds.len(), trace.iteration_count(), "{label}");
                    for (r, (it, round)) in trace.iterations.iter().zip(&record.rounds).enumerate()
                    {
                        // Every filled slot is one insert of at least one probe.
                        assert!(round.probes >= it.candidates, "{label}: round {r} probes");
                        assert_eq!(round.reset, resets && r > 0, "{label}: round {r} reset");
                    }
                    let log = record.accesses.as_ref().expect("the table logs");
                    assert_eq!(log.init_scored.len() as u64, trace.init_distances, "{label}");
                    assert_eq!(log.iterations.len(), trace.iteration_count(), "{label}");
                    let widest = trace.num_workers * trace.search_width;
                    for (it, access) in trace.iterations.iter().zip(&log.iterations) {
                        assert_eq!(access.scored.len() as u64, it.distances_computed, "{label}");
                        assert!(access.parents.len() <= widest, "{label}: parents");
                    }
                    // The table counts them itself, so the caller's
                    // trace flag stays off.
                    search_with(&index, queries.row(qi), 10, &p, mode, &mut table, &mut untraced);
                    assert!(untraced.trace().iterations.is_empty(), "trace recording turned on");
                    assert_eq!(table.record().rounds, record.rounds, "{label} untraced");
                    assert_eq!(table.record().accesses, record.accesses, "{label} untraced");
                }
            }
        }
    }
}
