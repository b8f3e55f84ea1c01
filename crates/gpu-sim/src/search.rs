//! Simulated searches: `cagra`'s loop, reached through its hidden
//! [`Hook`], run on the GPU's visited tables and, on request, logging
//! every row it gathers — what this crate prices. Host searches do
//! neither.

use crate::visited::{HashPolicy, VisitedSet};
use cagra::search::buffer::SearchBuffer;
use cagra::search::kernel::Hook;
use cagra::search::planner::Mode;
use cagra::search::trace::{AccessLog, IterAccess, SearchTrace};
use cagra::{CagraIndex, SearchParams, SearchScratch, ShardedIndex};
use dataset::{Dataset, VectorStore};
use knn::topk::Neighbor;

/// One worker's GPU hash table under one [`HashPolicy`], recycled across
/// the searches it runs ([`search_with`]) without reallocating, and its
/// optional access log, which each search hands to its trace.
#[derive(Clone, Debug)]
pub struct SimTable {
    policy: HashPolicy,
    /// This search's forgettable table: `(bits, rounds between
    /// resets)`. `None` runs the standard table, sized per search.
    forgettable: Option<(u8, usize)>,
    set: VisitedSet,
    log: Option<AccessLog>,
    /// Probe steps that were not part of an expansion: the random
    /// initialization's, up to the first [`Hook::forget`], and each
    /// reset's re-registrations. `None` until that first call.
    uncounted: Option<u64>,
}

impl SimTable {
    /// A table under `policy`, logging every gathered row into the
    /// trace's [`SearchTrace::accesses`] when `log_accesses`.
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
        let (set, log) = (VisitedSet::new(4), log_accesses.then(AccessLog::default));
        SimTable { policy, forgettable: None, set, log, uncounted: None }
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

    /// The last search's expansion probes, as its trace's rounds count them.
    fn expansion_probes(&self) -> u64 {
        self.uncounted.map_or(0, |skip| self.set.probes() - skip)
    }
}

impl Hook for SimTable {
    fn begin(&mut self, _rows: usize, max_rounds: usize, round_slots: usize) {
        let bits = match self.forgettable {
            Some((bits, _)) => bits,
            None => VisitedSet::standard_bits(max_rounds, round_slots),
        };
        self.set.reset_to(bits);
        self.uncounted = None;
    }

    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        self.set.insert(id)
    }

    fn probes(&self) -> u64 {
        self.set.probes()
    }

    fn forget(&mut self, round: usize, buf: &SearchBuffer) -> bool {
        let set = &mut self.set;
        // The kernel calls this right before each expansion, so every
        // probe before the first call was the initialization's.
        let mut uncounted = *self.uncounted.get_or_insert(set.probes());
        let due = self
            .forgettable
            .is_some_and(|(_, interval)| round > 0 && round.is_multiple_of(interval));
        if due {
            let before = set.probes();
            set.reset(buf.topm_ids());
            uncounted += set.probes() - before;
        }
        self.uncounted = Some(uncounted);
        due
    }

    fn log(&mut self, round: Option<usize>, parents: &[u32], scored: &[u32]) {
        let Some(log) = &mut self.log else { return };
        let Some(round) = round else { return log.init_scored.extend_from_slice(scored) };
        if log.iterations.len() <= round {
            log.iterations.resize_with(round + 1, IterAccess::default);
        }
        if let Some(entry) = log.iterations.get_mut(round) {
            entry.parents.extend_from_slice(parents);
            entry.scored.extend_from_slice(scored);
        }
    }

    fn finish(&mut self, trace: &mut SearchTrace) {
        trace.accesses = self.log.as_mut().map(std::mem::take);
        let set = &self.set;
        trace.hash_slots = set.capacity();
        trace.hash_in_shared = self.forgettable.is_some();
        let om = obs::metrics();
        om.search_probe_len.record(self.expansion_probes());
        om.search_hash_occupancy_permille.record((set.len() as u64 * 1000) / set.capacity() as u64);
    }
}

/// [`CagraIndex::search_mode_with`] on `table` (multi-CTA always runs
/// the standard one): the trace carries the table and, if `table` logs
/// them, [`SearchTrace::accesses`]. Recycling one `table` and one
/// scratch across queries reuses the hash table's slots. Panics like
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
}

/// [`CagraIndex::try_search_batch`] on the GPU's visited table under
/// `policy`, with the traces [`crate::simulate_batch`] prices. Panics
/// on the inputs that entry rejects and the policies [`SimTable::new`]
/// refuses.
pub fn search_batch_traced<S: VectorStore, Q: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Q,
    k: usize,
    params: &SearchParams,
    mode: Mode,
    policy: HashPolicy,
) -> Vec<(Vec<Neighbor>, SearchTrace)> {
    let mut table = SimTable::new(policy, false);
    table.arm(mode);
    let out = index.try_search_batch_hooked(queries, k, params, Some(mode), true, || table.clone());
    // ALLOW(panic): documented contract of this panicking entry.
    let out = out.unwrap_or_else(|e| panic!("{e}"));
    out.neighbors.into_iter().zip(out.traces).collect()
}

/// [`ShardedIndex::search`] on the GPU's visited table under `policy`,
/// with each shard's trace for [`crate::simulate_sharded_batch`].
/// Panics like [`search_batch_traced`].
pub fn search_sharded_traced<S: VectorStore>(
    index: &ShardedIndex<S>,
    query: &[f32],
    k: usize,
    params: &SearchParams,
    mode: Mode,
    policy: HashPolicy,
) -> (Vec<Neighbor>, Vec<SearchTrace>) {
    let one = Dataset::from_flat(query.to_vec(), query.len());
    index.search_each(k, |shard| {
        search_batch_traced(shard, &one, k, params, mode, policy).pop().unwrap_or_default()
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
        for (policy, mode) in
            [(forgettable, Mode::SingleCta), (HashPolicy::Standard, Mode::MultiCta)]
        {
            let mut table = SimTable::new(policy, false);
            for qi in 0..queries.len() {
                search_with(&index, queries.row(qi), 10, &p, mode, &mut table, &mut scratch);
                let trace = scratch.trace();
                assert!(trace.total_hash_probes() > 0, "{policy:?}: query {qi} probed nothing");
                let probes = trace.total_hash_probes();
                assert_eq!(table.expansion_probes(), probes, "{policy:?}");
                // The table counts them itself, so the caller's trace
                // flag stays off.
                search_with(&index, queries.row(qi), 10, &p, mode, &mut table, &mut untraced);
                assert!(untraced.trace().iterations.is_empty(), "trace recording turned on");
                assert_eq!(table.expansion_probes(), probes, "{policy:?} untraced");
            }
        }
    }
}
