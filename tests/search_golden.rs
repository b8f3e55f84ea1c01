//! Golden parity for the search kernel: FNV-1a digests over result
//! ids, distance bits, every `SearchTrace` field and the `AccessLog`,
//! for a grid of metric x relabel x hash policy x `search_width` x
//! `num_cta` x `max_iterations` x (k, itopk) x both modes, plus one
//! PQ + `rerank_depth` leg.
//!
//! The constants were generated from the two-file kernel
//! (`single_cta.rs` + `multi_cta.rs`) at commit `c107c51`, by running
//! this file there (`cargo test --test search_golden`; it calls only
//! `search_mode_with`, whose signature the merge did not touch) and
//! copying the table a mismatch prints. Any change to what the loop
//! computes, counts or logs — not just to what it returns — fails it.
//! Data comes from an integer LCG so the digests do not depend on the
//! host's libm.

use cagra_repro::cagra::{RelabelStrategy, SearchScratch};
use cagra_repro::dataset::pq::{self, PqConfig};
use cagra_repro::prelude::*;

const GOLDEN: [(&str, u64); 13] = [
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

const N: usize = 600;
const DIM: usize = 16;
const QUERIES: usize = 3;

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

    /// Everything one search left in the scratch.
    fn absorb(&mut self, scratch: &SearchScratch) {
        self.word(scratch.results().len() as u64);
        for nb in scratch.results() {
            self.word(nb.id as u64);
            self.word(nb.dist.to_bits() as u64);
        }
        let t = scratch.trace();
        for w in [t.init_distances, t.iterations.len() as u64] {
            self.word(w);
        }
        for it in &t.iterations {
            for w in [it.candidates, it.distances_computed, it.hash_probes, it.sort_len] {
                self.word(w);
            }
            self.word(it.hash_reset as u64);
        }
        for w in [t.itopk, t.search_width, t.degree, t.num_workers, t.hash_slots] {
            self.word(w as u64);
        }
        for flag in [t.hash_in_shared, t.serial_queue, t.scratch_reused] {
            self.word(flag as u64);
        }
        let log = t.accesses.as_ref().expect("access recording is on");
        self.ids(&log.init_scored);
        self.word(log.iterations.len() as u64);
        for it in &log.iterations {
            self.ids(&it.parents);
            self.ids(&it.scored);
        }
    }
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

/// `(k, params)` for every cell of the knob grid.
fn grid() -> Vec<(usize, SearchParams)> {
    let policies = [
        HashPolicy::Standard,
        HashPolicy::Forgettable { bits: 8, reset_interval: 1 },
        HashPolicy::Forgettable { bits: 9, reset_interval: 2 },
    ];
    let mut cells = Vec::new();
    for (k, itopk) in [(10, 64), (5, 200)] {
        for hash in policies {
            for search_width in [1, 2] {
                for num_cta in [1, 16] {
                    for max_iterations in [0, 5] {
                        let base = SearchParams::for_k(k);
                        let knobs = SearchParams { itopk, hash, search_width, num_cta, ..base };
                        cells.push((k, SearchParams { max_iterations, ..knobs }));
                    }
                }
            }
        }
    }
    cells
}

/// Digest of `modes` x `cells` x `queries` on one index, all on one
/// recycled scratch with batch-style per-query seeds.
fn digest<S: VectorStore>(
    index: &CagraIndex<S>,
    queries: &Dataset,
    modes: &[Mode],
    cells: &[(usize, SearchParams)],
) -> u64 {
    let mut h = Fnv::new();
    let mut scratch = SearchScratch::new();
    scratch.set_record_accesses(true);
    for &mode in modes {
        for &(k, p) in cells {
            for qi in 0..queries.len() {
                let p = SearchParams { seed: p.seed_for_query(qi), ..p };
                index.search_mode_with(queries.row(qi), k, &p, mode, &mut scratch);
                h.absorb(&scratch);
            }
        }
    }
    h.0
}

#[test]
fn merged_kernel_reproduces_the_two_file_kernels_bit_for_bit() {
    let base = lcg_rows(N, 17);
    let queries = lcg_rows(QUERIES, 99);
    let config = GraphConfig::new(16);
    let cells = grid();
    let mut got: Vec<(String, u64)> = Vec::new();
    for metric in [Metric::SquaredL2, Metric::Cosine, Metric::InnerProduct] {
        let (plain, _) = CagraIndex::build(copy_of(&base), metric, &config);
        let mut rcm = CagraIndex::from_parts(copy_of(&base), plain.graph().clone(), plain.metric());
        rcm.relabel(RelabelStrategy::Rcm);
        assert!(rcm.id_map().is_some(), "RCM must actually permute this graph");
        for (layout, index) in [("plain", &plain), ("rcm", &rcm)] {
            for mode in [Mode::SingleCta, Mode::MultiCta] {
                let label = format!("{metric:?}/{layout}/{mode:?}");
                got.push((label, digest(index, &queries, &[mode], &cells)));
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
    let two_phase = [(10, SearchParams { rerank_depth: 32, ..SearchParams::for_k(10) })];
    let both = [Mode::SingleCta, Mode::MultiCta];
    got.push(("SquaredL2/pq-rerank/both".to_string(), digest(&index, &queries, &both, &two_phase)));

    let same = got.len() == GOLDEN.len()
        && got.iter().zip(GOLDEN).all(|((gl, gd), (wl, wd))| gl == wl && *gd == wd);
    let table: String = got.iter().map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n")).collect();
    assert!(same, "search digests differ from the golden table; this run computed:\n{table}");
}
