//! The committed per-crate unsafe budget: a ratchet that makes any
//! change to the workspace's unsafe surface a conscious, reviewed
//! diff of `crates/analyze/unsafe_budget.toml`.
//!
//! The format, exact-match diffing, and canonical rendering live in
//! the generic [`crate::ledger`] engine shared by all passes; this
//! module contributes the unsafe-specific [`ledger::Schema`] and the
//! [`Counts`]-typed API the audit front-end uses.

use crate::audit::{Counts, Site};
use crate::ledger::{self, Tallies};
use std::collections::BTreeMap;

/// Buckets whose budget is an explicit commitment to ZERO unsafe:
/// the canonical render always emits their section (with the
/// rationale) even though they tally no sites, so the first `unsafe`
/// introduced there shows up in review as a budget diff rather than
/// as a brand-new, easy-to-wave-through section.
pub const PINNED_ZERO: &[(&str, &str)] = &[
    (
        "crates/dataset",
        "# Stores are the other half of the joint relabeling: `permuted` must\n\
         # copy every f32/f16/int8 row to its new slot exactly once, in safe\n\
         # indexed loops, so a bad permutation panics instead of aliasing rows.\n",
    ),
    (
        "crates/gpu-sim",
        "# The transaction model is arithmetic over recorded access logs; it\n\
         # has no performance excuse for unsafe, and its counts feed CI\n\
         # assertions (the locality lane), so it must stay trivially auditable.\n",
    ),
    (
        "crates/graph",
        "# Relabeling moves every adjacency row through index permutations; a\n\
         # bug here silently corrupts results rather than crashing. Safe\n\
         # indexing means an out-of-bounds composition panics at the fault\n\
         # instead of reading a stale row.\n",
    ),
    (
        "crates/serve",
        "# The serving layer must stay free of unsafe: it is the long-lived,\n\
         # network-facing surface, and every concurrency primitive it needs\n\
         # (Mutex/Condvar handshake, mpsc responses, long-lived worker threads)\n\
         # exists in safe std.\n",
    ),
];

/// The unsafe pass's budget-file schema.
pub const SCHEMA: ledger::Schema = ledger::Schema {
    file: "unsafe_budget.toml",
    header: "# Per-crate unsafe budget, enforced by `cargo run -p analyze -- audit`.\n\
             # The audit requires an EXACT match: growing a count needs review of the\n\
             # new unsafe (with its SAFETY justification), shrinking one ratchets the\n\
             # budget down so removed unsafe cannot silently return. Regenerate with\n\
             # `cargo run -p analyze -- budget-write` and commit the diff.\n",
    keys: &["blocks", "fns", "impls", "traits"],
    pinned_zero: PINNED_ZERO,
    grow_hint: "review the new unsafe",
    write_cmd: "cargo run -p analyze -- budget-write",
};

fn to_counts(v: &[usize]) -> Counts {
    Counts { blocks: v[0], fns: v[1], impls: v[2], traits: v[3] }
}

fn to_vec(c: &Counts) -> Vec<usize> {
    vec![c.blocks, c.fns, c.impls, c.traits]
}

fn typed(t: Tallies) -> BTreeMap<String, Counts> {
    t.into_iter().map(|(k, v)| (k, to_counts(&v))).collect()
}

fn untyped(t: &BTreeMap<String, Counts>) -> Tallies {
    t.iter().map(|(k, c)| (k.clone(), to_vec(c))).collect()
}

/// Parse the budget file. Returns bucket → expected counts, or a
/// human-readable error naming the offending line.
pub fn parse(text: &str) -> Result<BTreeMap<String, Counts>, String> {
    ledger::parse(&SCHEMA, text).map(typed)
}

/// Tally audited sites into per-bucket counts.
pub fn tally(sites: &[Site]) -> BTreeMap<String, Counts> {
    let mut out: BTreeMap<String, Counts> = BTreeMap::new();
    for site in sites {
        out.entry(site.bucket()).or_default().add(site.kind);
    }
    out
}

/// Render the canonical budget file for the given tallies (what
/// `analyze budget-write` commits). Zero-count buckets are omitted
/// unless pinned in [`PINNED_ZERO`].
pub fn render(tallies: &BTreeMap<String, Counts>) -> String {
    ledger::render(&SCHEMA, &untyped(tallies))
}

/// Compare actual tallies against the committed budget. Returns a
/// list of violations (empty = pass).
pub fn diff(actual: &BTreeMap<String, Counts>, budget: &BTreeMap<String, Counts>) -> Vec<String> {
    ledger::diff(&SCHEMA, &untyped(actual), &untyped(budget))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let mut t = BTreeMap::new();
        t.insert("crates/knn".to_string(), Counts { blocks: 7, fns: 2, impls: 3, traits: 0 });
        t.insert("shims/bytes".to_string(), Counts { blocks: 1, fns: 0, impls: 0, traits: 1 });
        t.insert("crates/empty".to_string(), Counts::default()); // omitted from render
        let parsed = parse(&render(&t)).unwrap();
        t.remove("crates/empty");
        // Pinned-zero buckets are always rendered (and parse back as
        // explicit zeros), unlike ordinary zero-count buckets.
        for (name, _) in PINNED_ZERO {
            t.insert(name.to_string(), Counts::default());
        }
        assert_eq!(parsed, t);
    }

    #[test]
    fn pinned_zero_bucket_with_real_sites_renders_its_tally() {
        let mut t = BTreeMap::new();
        t.insert("crates/serve".to_string(), Counts { blocks: 2, ..Counts::default() });
        let rendered = render(&t);
        assert!(rendered.contains("[\"crates/serve\"]\nblocks = 2"));
        assert!(rendered.contains("must stay free of unsafe"), "rationale comment kept");
    }

    #[test]
    fn diff_flags_growth_and_shrinkage_separately() {
        let mut actual = BTreeMap::new();
        actual.insert("crates/knn".to_string(), Counts { blocks: 5, ..Counts::default() });
        let mut budget = BTreeMap::new();
        budget.insert("crates/knn".to_string(), Counts { blocks: 4, fns: 1, ..Counts::default() });
        let problems = diff(&actual, &budget);
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("grew to 5"));
        assert!(problems[1].contains("shrank to 0"));
    }

    #[test]
    fn diff_catches_buckets_missing_from_either_side() {
        let mut actual = BTreeMap::new();
        actual.insert("crates/new".to_string(), Counts { fns: 1, ..Counts::default() });
        assert_eq!(diff(&actual, &BTreeMap::new()).len(), 1, "unbudgeted bucket must fail");
        assert_eq!(diff(&BTreeMap::new(), &actual).len(), 1, "vanished bucket must fail");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("blocks = 1\n").is_err(), "key before any section");
        assert!(parse("[\"a\"]\nblocks = -1\n").is_err(), "negative count");
        assert!(parse("[\"a\"]\nwat = 3\n").is_err(), "unknown key");
        assert!(parse("[\"a\"]\n[\"a\"]\n").is_err(), "duplicate section");
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let t = parse("# header\n\n[\"crates/x\"] # trailing\nblocks = 2 # two\n").unwrap();
        assert_eq!(t["crates/x"].blocks, 2);
    }
}
