//! Golden parity for the search kernel: FNV-1a digests over result
//! ids, distance bits, every `SearchTrace` field, the simulated table's
//! record (`gpu_sim::SimRecord`) and its `AccessLog`, interleaved in
//! one word stream,
//! for a grid of metric x relabel x `search_width` x `num_cta` x
//! `max_iterations` x (k, itopk) x both modes, plus one PQ +
//! `rerank_depth` leg, in two tables. Any change to what the loop
//! computes, counts or logs — not just to what it returns — fails one.
//! Data comes from an integer LCG so the digests do not depend on the
//! host's libm.
//!
//! * `SIMULATED` runs the GPU's hash table, adding a hash-policy axis
//!   to the grid (one `gpu_sim::SimTable` per cell; the PQ leg runs the
//!   forgettable 2^11-slot table). Its constants were
//!   generated from the two-file kernel (`single_cta.rs` +
//!   `multi_cta.rs`) at commit `c107c51`, by running this digest there
//!   and copying the table a mismatch prints.
//! * `HOST` pins the host's search, on the same grid without the hash
//!   axis. The host entry logs no accesses, so the digest is taken on
//!   the standard table with the log on, and leaves out the four words
//!   only a hash table has: each round's probes and reset flag, the
//!   slot count and the shared-memory placement. Its constants were
//!   generated at commit
//!   `e90c9e0`, where every search ran a hash table, by running this
//!   digest there with `HashPolicy::Standard` in every cell.
//!
//! Every `Standard` cell and every `HOST` cell is also checked against
//! the host entry (`search_mode_with`, the dense visited set) on a
//! recycled scratch: the same ids, distance bits and non-table trace
//! fields, from a table that never filled.

use cagra_repro::cagra::{RelabelStrategy, SearchScratch};
use cagra_repro::dataset::pq::{self, PqConfig};
use cagra_repro::gpu_sim::{search_with, SimRecord, SimTable};
use cagra_repro::prelude::*;

const SIMULATED: [(&str, u64); 13] = [
    ("SquaredL2/plain/SingleCta", 0x871f4936e523b27c),
    ("SquaredL2/plain/MultiCta", 0xfcfb6e2573ca829f),
    ("SquaredL2/rcm/SingleCta", 0x1ce3056a35703e34),
    ("SquaredL2/rcm/MultiCta", 0xfe76ff21a4eded4e),
    ("Cosine/plain/SingleCta", 0x70eecf6b75baf160),
    ("Cosine/plain/MultiCta", 0x3d82f4ace37e9249),
    ("Cosine/rcm/SingleCta", 0x73c190f453c468f8),
    ("Cosine/rcm/MultiCta", 0xf5bd2544535024d0),
    ("InnerProduct/plain/SingleCta", 0x250947fd903cc0f0),
    ("InnerProduct/plain/MultiCta", 0x7466c2b782de5b01),
    ("InnerProduct/rcm/SingleCta", 0x72000ba08265ef68),
    ("InnerProduct/rcm/MultiCta", 0x87e8fef21cd89616),
    ("SquaredL2/pq-rerank/both", 0xdaeb217f568fc89c),
];

const HOST: [(&str, u64); 13] = [
    ("SquaredL2/plain/SingleCta", 0xb969d6fac533d96c),
    ("SquaredL2/plain/MultiCta", 0x07fb42554d12f780),
    ("SquaredL2/rcm/SingleCta", 0x0ef5832c34d1f2f4),
    ("SquaredL2/rcm/MultiCta", 0x61cb10a0a0ce64a9),
    ("Cosine/plain/SingleCta", 0xd6a107cf5414d618),
    ("Cosine/plain/MultiCta", 0x54a2d2750960c53a),
    ("Cosine/rcm/SingleCta", 0xb72ad44b45a215b0),
    ("Cosine/rcm/MultiCta", 0x0de9a301d45d193b),
    ("InnerProduct/plain/SingleCta", 0xb8a70842a037a0d8),
    ("InnerProduct/plain/MultiCta", 0xa4ad983d94c1728e),
    ("InnerProduct/rcm/SingleCta", 0x6ae33dd3ab650a5c),
    ("InnerProduct/rcm/MultiCta", 0x6561e125cef0f705),
    ("SquaredL2/pq-rerank/both", 0x9be4de0fcc5eda45),
];

const N: usize = 600;
const DIM: usize = 16;
const QUERIES: usize = 3;

/// One grid cell: `k`, the parameters, and the hash policy the search
/// is simulated under (`None`: the host's search).
type Cell = (usize, SearchParams, Option<HashPolicy>);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[u32]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|&id| self.word(id as u64));
    }

    /// Everything one search left in the scratch and in `record`;
    /// `table` adds the four words only a hash table has.
    fn absorb(&mut self, scratch: &SearchScratch, record: &SimRecord, table: bool) {
        self.search(scratch, Some((record, table)));
        let log = record.accesses.as_ref().expect("access recording is on");
        self.ids(&log.init_scored);
        self.word(log.iterations.len() as u64);
        for it in &log.iterations {
            self.ids(&it.parents);
            self.ids(&it.scored);
        }
    }

    /// [`Fnv::absorb`] without the access log; without a record, the
    /// host trace's words alone.
    fn search(&mut self, scratch: &SearchScratch, record: Option<(&SimRecord, bool)>) {
        let table = record.filter(|&(_, table)| table).map(|(r, _)| r);
        self.word(scratch.results().len() as u64);
        for nb in scratch.results() {
            self.word(nb.id as u64);
            self.word(nb.dist.to_bits() as u64);
        }
        let t = scratch.trace();
        for w in [t.init_distances, t.iterations.len() as u64] {
            self.word(w);
        }
        for (i, it) in t.iterations.iter().enumerate() {
            let round = table.map(|r| r.rounds[i]);
            self.word(it.candidates);
            self.word(it.distances_computed);
            if let Some(round) = round {
                self.word(round.probes);
            }
            self.word(it.sort_len);
            if let Some(round) = round {
                self.word(round.reset as u64);
            }
        }
        for w in [t.itopk, t.search_width, t.degree, t.num_workers] {
            self.word(w as u64);
        }
        if let Some(r) = table {
            self.word(r.hash_slots as u64);
            self.word(r.hash_in_shared as u64);
        }
        if let Some((r, _)) = record {
            self.word(r.serial_queue as u64);
        }
        self.word(t.scratch_reused as u64);
    }
}

/// The host-trace digest of one search, without the table's record.
fn one(scratch: &SearchScratch) -> u64 {
    let mut h = Fnv::new();
    h.search(scratch, None);
    h.0
}

/// `rows` clustered vectors in [-1, 1]^DIM (8 centres + uniform noise,
/// offset so inner products are not symmetric around zero).
fn lcg_rows(rows: usize, mut state: u64) -> Dataset {
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let centres: Vec<f32> = (0..8 * DIM).map(|_| unit() * 1.6 - 0.7).collect();
    let mut flat = Vec::with_capacity(rows * DIM);
    for r in 0..rows {
        let c = (r * 7 + r / 5) % 8;
        flat.extend((0..DIM).map(|j| centres[c * DIM + j] + (unit() - 0.5) * 0.6));
    }
    Dataset::from_flat(flat, DIM)
}

fn copy_of(d: &Dataset) -> Dataset {
    Dataset::from_flat(d.as_flat().to_vec(), d.dim())
}

/// Every cell of the knob grid, once per entry of `policies`.
fn grid(policies: &[Option<HashPolicy>]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (k, itopk) in [(10, 64), (5, 200)] {
        for &policy in policies {
            for search_width in [1, 2] {
                for num_cta in [1, 16] {
                    for max_iterations in [0, 5] {
                        let base = SearchParams::for_k(k);
                        let knobs = SearchParams { itopk, search_width, num_cta, ..base };
                        cells.push((k, SearchParams { max_iterations, ..knobs }, policy));
                    }
                }
            }
        }
    }
    cells
}

/// Digest of `modes` x `cells` x `queries` on one index, all on one
/// recycled scratch with batch-style per-query seeds. A cell on the
/// standard table is also run through the host entry, on a second
/// recycled scratch, and must match it.
fn digest<S: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Dataset,
    modes: &[Mode],
    cells: &[Cell],
) -> u64 {
    let mut h = Fnv::new();
    let mut scratch = SearchScratch::new();
    let mut host = SearchScratch::new();
    for &mode in modes {
        for &(k, p, policy) in cells {
            let standard = policy.unwrap_or(HashPolicy::Standard) == HashPolicy::Standard;
            let mut table = SimTable::new(policy.unwrap_or(HashPolicy::Standard), true);
            for qi in 0..queries.len() {
                let p = SearchParams { seed: p.seed_for_query(qi), ..p };
                search_with(index, queries.row(qi), k, &p, mode, &mut table, &mut scratch);
                h.absorb(&scratch, table.record(), policy.is_some());
                if standard {
                    index.search_mode_with(queries.row(qi), k, &p, mode, &mut host);
                    let label = format!("{mode:?} k {k} query {qi} {p:?}");
                    assert_eq!(one(&host), one(&scratch), "host differs from standard: {label}");
                    let slots = table.record().hash_slots as u64;
                    let t = scratch.trace();
                    assert!(t.total_distances() < slots, "table filled: {label}");
                }
            }
        }
    }
    h.0
}

/// Digests of the whole grid of `cells`, then of the PQ leg run under
/// `pq_policy`, labelled as in the golden tables.
fn digests(cells: &[Cell], pq_policy: Option<HashPolicy>) -> Vec<(String, u64)> {
    let base = lcg_rows(N, 17);
    let queries = lcg_rows(QUERIES, 99);
    let config = GraphConfig::new(16);
    let mut got: Vec<(String, u64)> = Vec::new();
    for metric in [Metric::SquaredL2, Metric::Cosine, Metric::InnerProduct] {
        let (plain, _) = CagraIndex::build(copy_of(&base), metric, &config);
        let mut rcm = CagraIndex::from_parts(copy_of(&base), plain.graph().clone(), plain.metric());
        rcm.relabel(RelabelStrategy::Rcm);
        assert!(rcm.id_map().is_some(), "RCM must actually permute this graph");
        for (layout, index) in [("plain", &plain), ("rcm", &rcm)] {
            for mode in [Mode::SingleCta, Mode::MultiCta] {
                let label = format!("{metric:?}/{layout}/{mode:?}");
                got.push((label, digest(index, &queries, &[mode], cells)));
            }
        }
    }

    // Two-phase leg: ADC traversal over PQ codes, exact rerank.
    let (exact, _) = CagraIndex::build(copy_of(&base), Metric::SquaredL2, &config);
    let mut index = CagraIndex::from_parts(
        pq::build(&base, &PqConfig::new(4)),
        exact.graph().clone(),
        Metric::SquaredL2,
    );
    index.set_rerank_store(Box::new(copy_of(&base)));
    let two_phase = [(10, SearchParams { rerank_depth: 32, ..SearchParams::for_k(10) }, pq_policy)];
    let both = [Mode::SingleCta, Mode::MultiCta];
    got.push(("SquaredL2/pq-rerank/both".to_string(), digest(&index, &queries, &both, &two_phase)));
    got
}

fn assert_golden(got: &[(String, u64)], golden: &[(&str, u64)], table: &str) {
    let same = got.len() == golden.len()
        && got.iter().zip(golden).all(|((gl, gd), (wl, wd))| gl == wl && gd == wd);
    let rows: String = got.iter().map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n")).collect();
    assert!(same, "search digests differ from the {table} table; this run computed:\n{rows}");
}

#[test]
fn merged_kernel_reproduces_the_two_file_kernels_bit_for_bit() {
    let policies = [
        Some(HashPolicy::Standard),
        Some(HashPolicy::Forgettable { bits: 8, reset_interval: 1 }),
        Some(HashPolicy::Forgettable { bits: 9, reset_interval: 2 }),
    ];
    let pq_policy = Some(HashPolicy::Forgettable { bits: 11, reset_interval: 1 });
    assert_golden(&digests(&grid(&policies), pq_policy), &SIMULATED, "SIMULATED");
}

#[test]
fn host_table_reproduces_the_standard_hash_table_bit_for_bit() {
    assert_golden(&digests(&grid(&[None]), None), &HOST, "HOST");
}
