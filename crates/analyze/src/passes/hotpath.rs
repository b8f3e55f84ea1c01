//! The hot-path allocation lint: a committed list of hot functions
//! (`crates/analyze/hot_paths.toml` — search inner loops, ADC gang
//! scoring, the batcher claim) whose bodies must not allocate.
//!
//! The workspace's perf story is scratch reuse: every per-query
//! allocation was hoisted into `SearchScratch`/arena types in earlier
//! PRs, and this pass keeps them from creeping back. Flagged tokens:
//! `vec![..]`, `<alloc type>::new` / `with_capacity`, `to_vec`,
//! `to_owned`, `to_string`, `format!`, `collect`, `clone`, and
//! `Box::new`. A site that allocates deliberately (e.g. handing a
//! response buffer to the caller) carries `ALLOW(alloc): <reason>`.

use super::{live_occurrences, next_nonspace, Finding, PassResult, SCOPES};
use crate::ledger;
use crate::syntax::{find_allow, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

pub const KEYS: &[&str] = &["allocs", "allowed"];

pub const SCHEMA: ledger::Schema = ledger::Schema {
    file: "alloc_budget.toml",
    header: "# Allocation budget for the hot functions listed in hot_paths.toml,\n\
             # enforced by `cargo run -p analyze -- audit --pass alloc`. Counts\n\
             # allocation-family tokens (vec!/new/with_capacity/to_vec/collect/\n\
             # clone/format!/Box::new/..) inside those bodies; sites with an\n\
             # adjacent `ALLOW(alloc): <reason>` count under `allowed`. EXACT\n\
             # match required; regenerate with\n\
             # `cargo run -p analyze -- budget-write --pass alloc`.\n",
    keys: KEYS,
    pinned_zero: &[],
    grow_hint: "hoist the allocation into scratch (or justify it)",
    write_cmd: "cargo run -p analyze -- budget-write --pass alloc",
};

/// Types whose `::new` / `::with_capacity` allocate.
const ALLOC_TYPES: &[&str] =
    &["Vec", "VecDeque", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Method-call words that allocate.
const ALLOC_CALLS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];

/// Macro words that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Parse `hot_paths.toml`: `["crates/<name>"]` sections each holding
/// a `functions = ["a", "b", ..]` array (multi-line allowed).
pub fn parse_hot_paths(text: &str) -> Result<BTreeMap<String, BTreeSet<String>>, String> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut section: Option<String> = None;
    let mut in_array = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("hot_paths.toml:{}: {msg}: `{raw}`", idx + 1);
        if !in_array {
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().trim_matches('"').to_string();
                if out.insert(name.clone(), BTreeSet::new()).is_some() {
                    return Err(err("duplicate section"));
                }
                section = Some(name);
                continue;
            }
            let (key, value) =
                line.split_once('=').ok_or_else(|| err("expected `functions = [..]`"))?;
            if key.trim() != "functions" {
                return Err(err("unknown key (expected functions)"));
            }
            let value = value.trim();
            let Some(rest) = value.strip_prefix('[') else {
                return Err(err("expected `[` to open the array"));
            };
            in_array = !consume_names(rest, &mut out, &section, &err)?;
        } else {
            in_array = !consume_names(line, &mut out, &section, &err)?;
        }
    }
    if in_array {
        return Err("hot_paths.toml: unterminated functions array".to_string());
    }
    Ok(out)
}

/// Pull quoted names out of one array-line; returns true when the
/// closing `]` was seen.
fn consume_names(
    line: &str,
    out: &mut BTreeMap<String, BTreeSet<String>>,
    section: &Option<String>,
    err: &dyn Fn(&str) -> String,
) -> Result<bool, String> {
    let section = section.as_ref().ok_or_else(|| err("array outside any [section]"))?;
    let (body, closed) = match line.split_once(']') {
        Some((body, _)) => (body, true),
        None => (line, false),
    };
    for item in body.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let name = item.trim_matches('"');
        if name == item || name.is_empty() {
            return Err(err("expected a quoted function name"));
        }
        out.get_mut(section).ok_or_else(|| err("section vanished"))?.insert(name.to_string());
    }
    Ok(closed)
}

/// Run the pass over a loaded workspace with a parsed hot-fn config.
pub fn run(ws: &Workspace, hot: &BTreeMap<String, BTreeSet<String>>) -> PassResult {
    let mut findings = Vec::new();
    let mut problems = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for file in &ws.files {
        let Some(hot_fns) = hot.get(&file.bucket) else { continue };
        let code = file.masks.code.as_bytes();
        for f in &file.fns {
            if !hot_fns.contains(&f.name) || file.in_test_code(f.body.start) {
                continue;
            }
            seen.insert((file.bucket.clone(), f.name.clone()));
            let in_body = |pos: usize| -> bool { f.body.contains(&pos) };
            let mut push = |line: usize, what: String| {
                let allow = find_allow("alloc", line, &file.code_lines, &file.comment_lines);
                findings.push(Finding {
                    path: file.rel.clone(),
                    line: line + 1,
                    bucket: file.bucket.clone(),
                    key: "allocs",
                    what,
                    allow,
                });
            };
            for word in ALLOC_CALLS {
                for (pos, line) in live_occurrences(file, word) {
                    if in_body(pos) && next_nonspace(code, pos + word.len()) == Some(b'(') {
                        push(line, format!("`.{word}()` in hot fn `{}`", f.name));
                    }
                }
            }
            for word in ALLOC_MACROS {
                for (pos, line) in live_occurrences(file, word) {
                    if in_body(pos) && next_nonspace(code, pos + word.len()) == Some(b'!') {
                        push(line, format!("`{word}!` in hot fn `{}`", f.name));
                    }
                }
            }
            for ctor in ["new", "with_capacity"] {
                for (pos, line) in live_occurrences(file, ctor) {
                    if !in_body(pos) || !file.masks.code[..pos].ends_with("::") {
                        continue;
                    }
                    let before = &file.masks.code[..pos - 2];
                    if ALLOC_TYPES.iter().any(|t| {
                        before.ends_with(t)
                            && !before[..before.len() - t.len()]
                                .ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                    }) {
                        push(line, format!("`::{ctor}` alloc in hot fn `{}`", f.name));
                    }
                }
            }
        }
    }
    // A listed function that no longer exists is config rot: the lint
    // would silently stop covering it.
    for (bucket, fns) in hot {
        for name in fns {
            if !seen.contains(&(bucket.clone(), name.clone())) {
                problems.push(format!(
                    "hot_paths.toml: `{name}` not found in {bucket} non-test code — \
                     remove it or fix the name"
                ));
            }
        }
    }
    PassResult { findings, problems }
}

/// Load workspace + config and run (the CLI entry point).
pub fn run_root(root: &Path) -> std::io::Result<PassResult> {
    let ws = Workspace::load(root, SCOPES)?;
    let path = root.join("crates/analyze/hot_paths.toml");
    let text = std::fs::read_to_string(&path)?;
    match parse_hot_paths(&text) {
        Ok(hot) => Ok(run(&ws, &hot)),
        Err(e) => Ok(PassResult { findings: Vec::new(), problems: vec![e] }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::SourceFile;
    use std::path::Path;

    fn hot(bucket: &str, fns: &[&str]) -> BTreeMap<String, BTreeSet<String>> {
        let mut m = BTreeMap::new();
        m.insert(bucket.to_string(), fns.iter().map(|s| s.to_string()).collect());
        m
    }

    fn ws_of(src: &str) -> Workspace {
        Workspace { files: vec![SourceFile::parse(Path::new("crates/x/src/lib.rs"), src)] }
    }

    #[test]
    fn flags_allocs_only_in_listed_fns() {
        let w = ws_of(
            "fn hot(v: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    out.extend(v.iter().cloned());\n    let s = v.to_vec();\n    out\n}\nfn cold() -> Vec<u32> { vec![1, 2] }\n",
        );
        let r = run(&w, &hot("crates/x", &["hot"]));
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t["crates/x"], vec![2, 0], "Vec::new + to_vec; cold fn ignored");
        assert!(r.problems.is_empty());
    }

    #[test]
    fn allow_alloc_moves_to_allowed() {
        let w = ws_of(
            "fn hot(v: &[u32]) -> Vec<u32> {\n    // ALLOW(alloc): response buffer is handed to the caller.\n    v.to_vec()\n}\n",
        );
        let t = super::super::tally(KEYS, &run(&w, &hot("crates/x", &["hot"])).findings);
        assert_eq!(t["crates/x"], vec![0, 1]);
    }

    #[test]
    fn unknown_listed_fn_is_config_rot() {
        let w = ws_of("fn hot() {}\n");
        let r = run(&w, &hot("crates/x", &["hot", "gone"]));
        assert_eq!(r.problems.len(), 1);
        assert!(r.problems[0].contains("`gone`"));
    }

    #[test]
    fn hot_paths_config_parses_multiline_arrays() {
        let text = "# hot fns\n[\"crates/x\"]\nfunctions = [\n    \"alpha\", # inner loop\n    \"beta\",\n]\n[\"crates/y\"]\nfunctions = [\"gamma\"]\n";
        let hot = parse_hot_paths(text).unwrap();
        assert_eq!(hot["crates/x"].len(), 2);
        assert!(hot["crates/y"].contains("gamma"));
        assert!(parse_hot_paths("functions = [\"a\"]\n").is_err(), "array needs a section");
        assert!(parse_hot_paths("[\"crates/x\"]\nfunctions = [\n").is_err(), "unterminated");
    }

    #[test]
    fn ctor_detection_requires_alloc_type_prefix() {
        let w = ws_of(
            "fn hot() {\n    let a = Scratch::new();\n    let b = Vec::with_capacity(8);\n    let c = MyVec::new();\n}\n",
        );
        let t = super::super::tally(KEYS, &run(&w, &hot("crates/x", &["hot"])).findings);
        assert_eq!(t["crates/x"], vec![1, 0], "only Vec::with_capacity; MyVec/Scratch are fine");
    }
}
