//! The panic-path audit: inventory every way non-test code can panic
//! — `unwrap`/`expect` calls, `panic!`-family macros, `assert!`-family
//! macros, and slice indexing — with per-crate budgets and two hard
//! pinned-zero buckets:
//!
//! * `crates/serve` — the long-lived network-facing surface; a panic
//!   there is caught per request, but it still fails that request and
//!   throws away the worker's scratch, so the serving layer must be
//!   panic-free or carry an explicit per-site justification;
//! * `zone:cagra-try-search` — every function in `crates/cagra`
//!   textually reachable from the `try_search*` entry points. The
//!   typed-error API promises `Result`, not panics; sites on that
//!   path are attributed to the zone bucket (instead of
//!   `crates/cagra`) and must each be fixed or `ALLOW(panic)`ed.
//!
//! `debug_assert!` is deliberately *not* counted: it vanishes in
//! release builds, and the workspace uses it (behind
//! `debug_invariants`) precisely as the panic-free alternative for
//! hot-path invariants.

use super::{live_occurrences, next_nonspace, Finding, PassResult, SCOPES};
use crate::ledger;
use crate::syntax::{find_allow, Workspace};
use std::path::Path;

pub const KEYS: &[&str] = &["unwraps", "expects", "panics", "asserts", "indexing", "allowed"];

/// The reachability zone's bucket name.
pub const ZONE: &str = "zone:cagra-try-search";

pub const SCHEMA: ledger::Schema = ledger::Schema {
    file: "panic_budget.toml",
    header: "# Per-crate panic-path budget, enforced by `cargo run -p analyze -- audit\n\
             # --pass panic`. Counts every unwrap/expect, panic!-family macro,\n\
             # assert!-family macro, and slice-indexing site in non-test code; sites\n\
             # carrying an adjacent `ALLOW(panic): <reason>` comment count under\n\
             # `allowed` instead. The audit requires an EXACT match; regenerate with\n\
             # `cargo run -p analyze -- budget-write --pass panic` and commit the diff.\n",
    keys: KEYS,
    pinned_zero: &[
        (
            ZONE,
            "# Everything reachable from the try_search* entry points: the typed-\n\
             # error API contract says search failures surface as SearchError, so\n\
             # any residual panic here must be individually ALLOW(panic)-justified\n\
             # (the `allowed` count) — never an anonymous site.\n",
        ),
        (
            "crates/serve",
            "# A panic in the serving layer fails its request: the serve worker\n\
             # catches it, answers Disconnected and replaces its scratch. The service\n\
             # must degrade via ServeError instead. Lock poisoning recovery is the one\n\
             # family of ALLOW(panic)-documented exceptions.\n",
        ),
    ],
    grow_hint: "review the new panic path (or fix it)",
    write_cmd: "cargo run -p analyze -- budget-write --pass panic",
};

/// `try_search*` roots that define the pinned zone.
fn is_zone_root(name: &str) -> bool {
    name.starts_with("try_search")
}

/// Traversal boundaries for the zone. Two kinds of name stop the
/// reachability walk:
///
/// * `new` — a hub the textual resolver cannot disambiguate: nearly
///   every `new(` on the query path is `Vec::new`/`Arc::new`/a std
///   constructor, but resolving it to *local* constructors (which
///   legitimately assert preconditions and call half the crate) would
///   drag the whole build pipeline into the zone. The query path is
///   allocation-flat by contract (the hot-path alloc lint enforces
///   it), so skipping `new` edges loses nothing real.
/// * the compaction entries — where the dynamic index's *write* path
///   begins. The read contract the zone audits ends at the snapshot:
///   a panic inside compaction aborts that compaction before the
///   epoch publish, so readers keep serving the old snapshot, and the
///   build/optimize pipeline it invokes is budgeted per-crate like
///   every other build-side caller.
fn is_zone_barrier(name: &str) -> bool {
    name == "new" || name == "compact_once" || name == "compactor_loop"
}

/// Run the pass over a loaded workspace.
pub fn run(ws: &Workspace) -> PassResult {
    let zone = super::reachable_fns(ws, "crates/cagra", &is_zone_root, &is_zone_barrier);
    let mut findings = Vec::new();
    for file in &ws.files {
        let code = file.masks.code.as_bytes();
        let in_zone = |pos: usize| {
            file.bucket == "crates/cagra"
                && file.enclosing_fn(pos).is_some_and(|f| zone.contains(&f.name))
        };
        let mut push = |pos: usize, line: usize, key: &'static str, what: String| {
            let bucket = if in_zone(pos) { ZONE.to_string() } else { file.bucket.clone() };
            let allow = find_allow("panic", line, &file.code_lines, &file.comment_lines);
            findings.push(Finding {
                path: file.rel.clone(),
                line: line + 1,
                bucket,
                key,
                what,
                allow,
            });
        };
        // Method calls: the word followed by `(`. Word-boundary
        // matching already excludes unwrap_or/expect_err/etc.
        for (word, key) in [("unwrap", "unwraps"), ("expect", "expects")] {
            for (pos, line) in live_occurrences(file, word) {
                if next_nonspace(code, pos + word.len()) == Some(b'(') {
                    push(pos, line, key, format!("`.{word}()`"));
                }
            }
        }
        // Macros: the word followed by `!`.
        for (word, key) in [
            ("panic", "panics"),
            ("unreachable", "panics"),
            ("todo", "panics"),
            ("unimplemented", "panics"),
            ("assert", "asserts"),
            ("assert_eq", "asserts"),
            ("assert_ne", "asserts"),
        ] {
            for (pos, line) in live_occurrences(file, word) {
                if next_nonspace(code, pos + word.len()) == Some(b'!') {
                    push(pos, line, key, format!("`{word}!`"));
                }
            }
        }
        // Slice indexing: `[` immediately preceded by an identifier
        // byte, `)`, or `]` — an index expression, as opposed to array
        // types/literals and `#[..]` attributes. One finding per line
        // (chained accesses on a line share a fix).
        if !file.is_test_file {
            let mut last_line = usize::MAX;
            for (i, &b) in code.iter().enumerate() {
                if b != b'[' || i == 0 {
                    continue;
                }
                let p = code[i - 1];
                let indexes = p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']';
                if !indexes || file.in_test_code(i) {
                    continue;
                }
                let line = file.line_of(i);
                if line == last_line {
                    continue;
                }
                last_line = line;
                push(i, line, "indexing", "slice indexing".to_string());
            }
        }
    }
    let problems = super::pinned_zero_breaches(&SCHEMA, &findings);
    PassResult { findings, problems }
}

/// Load the workspace and run (the CLI entry point).
pub fn run_root(root: &Path) -> std::io::Result<PassResult> {
    Ok(run(&Workspace::load(root, SCOPES)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::SourceFile;
    use std::path::Path;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace { files: files.iter().map(|(p, s)| SourceFile::parse(Path::new(p), s)).collect() }
    }

    #[test]
    fn counts_each_panic_family() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(v: &[u32]) -> u32 {\n    let a = v.first().unwrap();\n    let b = v.last().expect(\"nonempty\");\n    assert!(a < b);\n    if *a == 9 { panic!(\"nine\") }\n    v[0]\n}\n",
        )]);
        let r = run(&w);
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t["crates/x"], vec![1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn unwrap_or_variants_and_debug_asserts_do_not_count() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(v: Option<u32>) -> u32 {\n    debug_assert!(true);\n    v.unwrap_or(0) + v.unwrap_or_else(|| 1) + v.unwrap_or_default()\n}\n",
        )]);
        assert!(run(&w).findings.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let w = ws_of(&[
            ("crates/x/tests/it.rs", "fn t(v: &[u32]) { v[0]; v.first().unwrap(); }\n"),
            (
                "crates/x/src/lib.rs",
                "fn live() {}\n#[cfg(test)]\nmod t {\n    fn u(v: &[u32]) { v.first().unwrap(); }\n}\n",
            ),
        ]);
        assert!(run(&w).findings.is_empty());
    }

    #[test]
    fn allow_moves_a_site_to_allowed_and_bare_allow_is_flagged() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(v: &[u32]) -> u32 {\n    // ALLOW(panic): v is non-empty by construction in new().\n    let a = v.first().unwrap();\n    *a + v.last().unwrap() // ALLOW(panic)\n}\n",
        )]);
        let r = run(&w);
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t["crates/x"], vec![1, 0, 0, 0, 0, 1], "bare ALLOW still counts as a site");
        let problems = super::super::check(&SCHEMA, &r, Some(&ledger::render(&SCHEMA, &t)));
        assert_eq!(problems.len(), 1, "the bare ALLOW is the only violation");
        assert!(problems[0].contains("bare ALLOW"));
    }

    #[test]
    fn try_search_zone_attributes_sites_to_the_zone_bucket() {
        let w = ws_of(&[(
            "crates/cagra/src/lib.rs",
            "pub fn try_search(v: &[u32]) -> u32 { kernel(v) }\nfn kernel(v: &[u32]) -> u32 { v[0] }\nfn build_side(v: &[u32]) -> u32 { v[1] }\n",
        )]);
        let r = run(&w);
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t[ZONE], vec![0, 0, 0, 0, 1, 0], "kernel indexing lands in the zone");
        assert_eq!(t["crates/cagra"], vec![0, 0, 0, 0, 1, 0], "build side stays per-crate");
        assert_eq!(r.problems.len(), 1, "un-ALLOWed zone site breaches the pin");
        assert!(r.problems[0].contains("zone:cagra-try-search"));
    }

    #[test]
    fn serve_is_pinned_zero() {
        let w =
            ws_of(&[("crates/serve/src/lib.rs", "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n")]);
        let r = run(&w);
        assert_eq!(r.problems.len(), 1);
        assert!(r.problems[0].contains("crates/serve"));
    }

    #[test]
    fn indexing_counts_once_per_line_and_skips_attributes() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "#[derive(Clone)]\nstruct S;\nfn f(v: &[u32], m: &[Vec<u32>]) -> u32 {\n    let t: [u32; 2] = [v[0], m[1][2]];\n    t[0]\n}\n",
        )]);
        let r = run(&w);
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t["crates/x"][4], 2, "one finding per line with indexing");
    }
}
