//! The generic budget engine behind every pass's committed ledger.
//!
//! A budget file is a ratchet: per-bucket integer counts that the
//! audit requires to match **exactly** in both directions. Counts
//! above budget mean new debt landed without review; counts below
//! budget mean debt was paid down and the ratchet must be tightened
//! so it cannot silently creep back. The unsafe audit proved the
//! pattern (`unsafe_budget.toml`); this module generalizes it so the
//! panic-path, hot-path-allocation, lock-order, and determinism
//! passes each get the same file format, exact-match diffing, and
//! canonical (deterministically sorted) rendering for the price of a
//! [`Schema`].
//!
//! The format is the same small TOML subset the unsafe budget uses
//! (quoted-key sections, integer values, `#` comments), parsed here
//! without any dependency since the workspace builds offline.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// What a pass's budget file looks like and how its diffs read.
pub struct Schema {
    /// Budget file name under `crates/analyze/` (used in errors).
    pub file: &'static str,
    /// Header comment block, written verbatim at the top of the file.
    pub header: &'static str,
    /// Count keys, in render order (e.g. `["unwraps", "expects"]`).
    pub keys: &'static [&'static str],
    /// Buckets whose budget is an explicit commitment to ZERO, with a
    /// rationale comment: always rendered even when they tally no
    /// sites, so the first violation shows up in review as a budget
    /// diff rather than a brand-new, easy-to-wave-through section.
    pub pinned_zero: &'static [(&'static str, &'static str)],
    /// What growing a count means ("review the new unsafe").
    pub grow_hint: &'static str,
    /// Command that regenerates the file.
    pub write_cmd: &'static str,
}

/// Per-bucket counts, parallel to [`Schema::keys`]. The `BTreeMap`
/// keeps every consumer — render, diff, JSON report — deterministically
/// sorted by bucket name.
pub type Tallies = BTreeMap<String, Vec<usize>>;

/// Parse a budget file against `schema`. Returns bucket → counts, or
/// a human-readable error naming the offending line.
pub fn parse(schema: &Schema, text: &str) -> Result<Tallies, String> {
    let mut out = Tallies::new();
    let mut section: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("{}:{}: {msg}: `{raw}`", schema.file, idx + 1);
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim().trim_matches('"').to_string();
            if out.insert(name.clone(), vec![0; schema.keys.len()]).is_some() {
                return Err(err("duplicate section"));
            }
            section = Some(name);
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| err("expected `key = value`"))?;
        let value: usize =
            value.trim().parse().map_err(|_| err("expected a non-negative integer"))?;
        let section = section.as_ref().ok_or_else(|| err("key outside any [section]"))?;
        let counts = out.get_mut(section).ok_or_else(|| err("section vanished"))?;
        match schema.keys.iter().position(|k| *k == key.trim()) {
            Some(slot) => counts[slot] = value,
            None => {
                return Err(err(&format!("unknown key (expected {})", schema.keys.join("/"))));
            }
        }
    }
    Ok(out)
}

/// Render the canonical budget file: header, then each bucket sorted
/// by name (zero-count buckets omitted unless pinned), each key on
/// its own line in schema order. Byte-stable for a given tally.
pub fn render(schema: &Schema, tallies: &Tallies) -> String {
    let mut s = String::from(schema.header);
    let mut buckets: BTreeMap<&str, &[usize]> = tallies
        .iter()
        .filter(|(_, c)| c.iter().sum::<usize>() > 0)
        .map(|(name, c)| (name.as_str(), c.as_slice()))
        .collect();
    let zeros = vec![0usize; schema.keys.len()];
    for (name, _) in schema.pinned_zero {
        buckets.entry(name).or_insert(&zeros);
    }
    for (bucket, c) in buckets {
        s.push('\n');
        if let Some((_, rationale)) = schema.pinned_zero.iter().find(|(name, _)| *name == bucket) {
            s.push_str(rationale);
        }
        let _ = writeln!(s, "[\"{bucket}\"]");
        for (key, v) in schema.keys.iter().zip(c) {
            let _ = writeln!(s, "{key} = {v}");
        }
    }
    s
}

/// Compare actual tallies against the committed budget. Returns a
/// list of violations (empty = pass), sorted by bucket.
pub fn diff(schema: &Schema, actual: &Tallies, budget: &Tallies) -> Vec<String> {
    let mut problems = Vec::new();
    let zeros = vec![0usize; schema.keys.len()];
    let buckets: BTreeSet<&String> = actual.keys().chain(budget.keys()).collect();
    for bucket in buckets {
        let a = actual.get(bucket.as_str()).unwrap_or(&zeros);
        let b = budget.get(bucket.as_str()).unwrap_or(&zeros);
        for (key, (&av, &bv)) in schema.keys.iter().zip(a.iter().zip(b)) {
            if av > bv {
                problems.push(format!(
                    "{bucket}: {key} grew to {av} (budget {bv}) — {}, then `{}`",
                    schema.grow_hint, schema.write_cmd
                ));
            } else if av < bv {
                problems.push(format!(
                    "{bucket}: {key} shrank to {av} (budget {bv}) — ratchet the budget \
                     down with `{}`",
                    schema.write_cmd
                ));
            }
        }
    }
    problems
}

/// The keys of a pinned-zero bucket's `counts` that break its
/// commitment: every nonzero count except the one under a key named
/// `allowed` (sites carrying a reviewed `ALLOW` annotation).
pub fn pinned_zero_violations(schema: &Schema, counts: &[usize]) -> Vec<&'static str> {
    schema
        .keys
        .iter()
        .zip(counts)
        .filter(|(key, &count)| **key != "allowed" && count > 0)
        .map(|(key, _)| *key)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Schema = Schema {
        file: "demo_budget.toml",
        header: "# demo header\n",
        keys: &["alphas", "betas"],
        pinned_zero: &[("crates/pinned", "# pinned rationale\n")],
        grow_hint: "review the new debt",
        write_cmd: "cargo run -p analyze -- budget-write --pass demo",
    };

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let mut t = Tallies::new();
        t.insert("crates/b".into(), vec![2, 0]);
        t.insert("crates/a".into(), vec![0, 3]);
        t.insert("crates/empty".into(), vec![0, 0]); // omitted
        let parsed = parse(&S, &render(&S, &t)).unwrap();
        t.remove("crates/empty");
        t.insert("crates/pinned".into(), vec![0, 0]);
        assert_eq!(parsed, t);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut t = Tallies::new();
        t.insert("crates/z".into(), vec![1, 0]);
        t.insert("crates/a".into(), vec![1, 0]);
        let r = render(&S, &t);
        let a = r.find("crates/a").unwrap();
        let p = r.find("crates/pinned").unwrap();
        let z = r.find("crates/z").unwrap();
        assert!(a < p && p < z, "sections must sort by bucket name");
        assert_eq!(r, render(&S, &t), "render must be deterministic");
        assert!(r.contains("# pinned rationale"));
    }

    #[test]
    fn diff_flags_growth_shrinkage_and_missing_buckets() {
        let mut actual = Tallies::new();
        actual.insert("crates/x".into(), vec![5, 0]);
        let mut budget = Tallies::new();
        budget.insert("crates/x".into(), vec![4, 1]);
        let problems = diff(&S, &actual, &budget);
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("alphas grew to 5"));
        assert!(problems[0].contains("review the new debt"));
        assert!(problems[1].contains("betas shrank to 0"));
        assert_eq!(diff(&S, &actual, &Tallies::new()).len(), 1, "unbudgeted bucket fails");
        assert_eq!(diff(&S, &Tallies::new(), &actual).len(), 1, "vanished bucket fails");
    }

    #[test]
    fn pinned_zero_exempts_only_the_allowed_key() {
        // Without an `allowed` key every count is pinned, the last too.
        let four = Schema { keys: &["blocks", "fns", "impls", "traits"], ..S };
        assert_eq!(pinned_zero_violations(&four, &[0, 0, 0, 1]), ["traits"]);
        assert!(pinned_zero_violations(&four, &[0, 0, 0, 0]).is_empty());
        let allowing = Schema { keys: &["allocs", "allowed"], ..S };
        assert!(pinned_zero_violations(&allowing, &[0, 3]).is_empty());
        assert_eq!(pinned_zero_violations(&allowing, &[2, 3]), ["allocs"]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse(&S, "alphas = 1\n").is_err(), "key before any section");
        assert!(parse(&S, "[\"a\"]\nalphas = -1\n").is_err(), "negative count");
        assert!(parse(&S, "[\"a\"]\nwat = 3\n").is_err(), "unknown key");
        assert!(parse(&S, "[\"a\"]\n[\"a\"]\n").is_err(), "duplicate section");
    }
}
