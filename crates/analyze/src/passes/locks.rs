//! The lock-order pass: inventory every `.lock()` acquisition in
//! non-test code, approximate each critical section's extent, build
//! the inter-procedural lock acquisition graph, and enforce two
//! rules:
//!
//! * **no cycles** — if lock A is ever held while acquiring lock B
//!   and (possibly through calls) lock B while acquiring A, two
//!   threads can deadlock. Cycles are hard failures, never budgeted.
//! * **no allocation or I/O under a lock** — the serving layer's
//!   latency contract assumes critical sections are O(queue op);
//!   an allocator stall or syscall under the batcher mutex blocks
//!   every submitter and every serve worker. Sites carry `ALLOW(lock): <reason>` when the
//!   path is provably cold.
//!
//! Lock identity is textual: the receiver identifier before `.lock()`
//! (`self.inner.lock()` → `inner`, `self.rows[v].lock()` → `rows`),
//! scoped by crate bucket. Critical sections extend from the
//! acquisition to the end of the enclosing block for `let`-bound
//! guards (truncated at `drop(guard)`), or to the end of the
//! statement for temporary guards.

use super::{live_occurrences, next_nonspace, Finding, PassResult, SCOPES};
use crate::ledger;
use crate::syntax::{find_allow, match_brace, next_token, word_occurrences, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

pub const KEYS: &[&str] = &["acquisitions", "nested", "alloc_io", "allowed"];

pub const SCHEMA: ledger::Schema = ledger::Schema {
    file: "lock_budget.toml",
    header: "# Lock-order budget, enforced by `cargo run -p analyze -- audit --pass\n\
             # lock`. Counts every `.lock()` acquisition in non-test code, nested\n\
             # acquisitions (a lock taken while another is held), and alloc/I/O\n\
             # tokens inside critical sections; `ALLOW(lock): <reason>` sites count\n\
             # under `allowed`. Acquisition-order cycles fail the audit outright and\n\
             # are never budgeted. EXACT match required; regenerate with\n\
             # `cargo run -p analyze -- budget-write --pass lock`.\n",
    keys: KEYS,
    pinned_zero: &[],
    grow_hint: "review the new critical section",
    write_cmd: "cargo run -p analyze -- budget-write --pass lock",
};

/// Alloc/I/O method-call words flagged inside critical sections.
const BAD_CALLS: &[&str] =
    &["collect", "clone", "to_vec", "to_owned", "to_string", "channel", "spawn", "read_to_string"];

/// Alloc/I/O macro words flagged inside critical sections.
const BAD_MACROS: &[&str] = &["vec", "format", "println", "eprintln", "print", "write", "writeln"];

/// One acquisition site with its critical-section extent.
struct Acquisition {
    /// `bucket/receiver` lock identity.
    lock: String,
    /// Byte offset of the `lock` word.
    pos: usize,
    /// Critical section byte range (acquisition → release point).
    crit: std::ops::Range<usize>,
}

/// The receiver identifier before `.lock(` at `dot` (the `.`'s
/// offset), skipping one `[..]` index group: `rows[v].lock` → `rows`.
fn receiver(code: &[u8], dot: usize) -> Option<String> {
    let mut i = dot;
    if i == 0 {
        return None;
    }
    if code[i - 1] == b']' {
        let mut depth = 0usize;
        while i > 0 {
            i -= 1;
            match code[i] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = i;
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = end;
    while start > 0 && is_word(code[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(String::from_utf8_lossy(&code[start..end]).into_owned())
}

/// End (exclusive) of the innermost `{..}` block containing `pos`.
fn enclosing_block_end(code: &[u8], pos: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    for (i, &b) in code.iter().enumerate().take(pos) {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
    }
    match stack.last() {
        Some(&open) => match_brace(code, open),
        None => code.len(),
    }
}

/// Offset just past the `;` ending the statement containing `pos`
/// (depth-aware, so `;` inside nested braces/parens don't end it).
fn statement_end(code: &[u8], pos: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i < code.len() {
        match code[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return i; // statement is the block's tail expression
                }
                depth -= 1;
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Whether the statement containing `pos` is a `let` binding; if so,
/// return the bound name (skipping `mut` and destructuring noise).
fn let_binding(code: &[u8], pos: usize) -> Option<String> {
    let mut start = pos;
    while start > 0 && !matches!(code[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let (tok, after) = next_token(code, start)?;
    if tok != "let" {
        return None;
    }
    let (mut name, mut at) = next_token(code, after)?;
    if name == "mut" {
        (name, at) = next_token(code, at)?;
    }
    let _ = at;
    name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_').then_some(name)
}

/// Find the matching `)` for the `(` at `open`; returns the offset
/// after it (or `code.len()` when unbalanced).
fn match_paren(code: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in code.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Whether the call chain starting at the `lock` word at `pos` yields
/// the guard itself as the statement's value: `.lock()` followed only
/// by guard adapters (`unwrap`/`expect`/`unwrap_or_else`) and then
/// `;` or `?`. `let n = q.lock().unwrap().len();` fails this — the
/// guard is a temporary dropped at the statement's end.
fn chain_yields_guard(code: &[u8], pos: usize) -> bool {
    let mut i = pos + 4; // past "lock"
    loop {
        match next_nonspace_at(code, i) {
            Some((j, b'(')) => i = match_paren(code, j),
            _ => return false,
        }
        loop {
            match next_nonspace_at(code, i) {
                Some((_, b';')) => return true,
                Some((j, b'?')) => i = j + 1,
                Some((j, b'.')) => {
                    let Some((word, after)) = next_token(code, j + 1) else { return false };
                    if !matches!(word.as_str(), "unwrap" | "expect" | "unwrap_or_else") {
                        return false;
                    }
                    i = after;
                    break; // expect another paren group
                }
                _ => return false,
            }
        }
    }
}

/// First non-whitespace byte at/after `from`, with its offset.
fn next_nonspace_at(code: &[u8], mut from: usize) -> Option<(usize, u8)> {
    while from < code.len() {
        if !code[from].is_ascii_whitespace() {
            return Some((from, code[from]));
        }
        from += 1;
    }
    None
}

/// Critical-section extent for an acquisition at `pos` (offset of the
/// `lock` word).
fn critical_section(code: &[u8], pos: usize) -> std::ops::Range<usize> {
    let end = match let_binding(code, pos).filter(|_| chain_yields_guard(code, pos)) {
        Some(guard) => {
            let block_end = enclosing_block_end(code, pos);
            // `drop(guard)` releases early — but only when it sits at
            // the same brace depth as the acquisition. A drop inside a
            // nested branch (early-return shed paths) may never run,
            // so it must not shrink the section for the code after it.
            let code_str = std::str::from_utf8(code).unwrap_or("");
            let same_depth = |d: usize| {
                code[pos..d].iter().fold(0i32, |acc, &b| match b {
                    b'{' => acc + 1,
                    b'}' => acc - 1,
                    _ => acc,
                }) == 0
            };
            word_occurrences(code_str, "drop")
                .into_iter()
                .filter(|&d| d > pos && d < block_end && same_depth(d))
                .find(|&d| {
                    next_token(code, d + 4)
                        .filter(|(t, _)| t == "(")
                        .and_then(|(_, after)| next_token(code, after))
                        .is_some_and(|(t, _)| t == guard)
                })
                .unwrap_or(block_end)
        }
        None => statement_end(code, pos),
    };
    pos..end.max(pos)
}

/// Direct lock acquisitions per file: `(fn-or-file scope, sites)`.
fn acquisitions(code: &str, file: &crate::syntax::SourceFile) -> Vec<Acquisition> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (pos, _) in live_occurrences(file, "lock") {
        if next_nonspace(bytes, pos + 4) != Some(b'(') {
            continue;
        }
        if pos == 0 || bytes[pos - 1] != b'.' {
            continue; // `lock(..)` free fn or `lock:` field — not an acquisition
        }
        let Some(recv) = receiver(bytes, pos - 1) else { continue };
        out.push(Acquisition {
            lock: format!("{}/{recv}", file.bucket),
            pos,
            crit: critical_section(bytes, pos),
        });
    }
    out
}

/// Run the pass over a loaded workspace.
pub fn run(ws: &Workspace) -> PassResult {
    let mut findings = Vec::new();
    let mut problems = Vec::new();
    // Phase 1: direct acquisitions everywhere, and per-bucket
    // fn-name → locks-acquired (for inter-procedural edges).
    let mut per_file: Vec<Vec<Acquisition>> = Vec::new();
    let mut fn_locks: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for file in &ws.files {
        let acqs = acquisitions(&file.masks.code, file);
        for a in &acqs {
            if let Some(f) = file.enclosing_fn(a.pos) {
                fn_locks
                    .entry((file.bucket.clone(), f.name.clone()))
                    .or_default()
                    .insert(a.lock.clone());
            }
        }
        per_file.push(acqs);
    }
    // Propagate to a fixed point: a fn "acquires" what its callees
    // (same bucket, name-resolved) acquire.
    let mut call_edges: Vec<((String, String), (String, String))> = Vec::new();
    for file in &ws.files {
        for f in &file.fns {
            if file.in_test_code(f.body.start) {
                continue;
            }
            let body = &file.masks.code[f.body.clone()];
            for callee in fn_locks.keys().map(|(_, n)| n.clone()).collect::<BTreeSet<_>>() {
                if callee != f.name && !word_occurrences(body, &callee).is_empty() {
                    call_edges.push((
                        (file.bucket.clone(), f.name.clone()),
                        (file.bucket.clone(), callee),
                    ));
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for (caller, callee) in &call_edges {
            let Some(callee_locks) = fn_locks.get(callee).cloned() else { continue };
            let caller_locks = fn_locks.entry(caller.clone()).or_default();
            for l in callee_locks {
                changed |= caller_locks.insert(l);
            }
        }
        if !changed {
            break;
        }
    }
    // Phase 2: per critical section — nested acquisitions, call-edges
    // into lock-acquiring fns, and alloc/I/O tokens.
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (file, acqs) in ws.files.iter().zip(&per_file) {
        let code = &file.masks.code;
        let bytes = code.as_bytes();
        for a in acqs {
            let line = file.line_of(a.pos);
            let allow = find_allow("lock", line, &file.code_lines, &file.comment_lines);
            findings.push(Finding {
                path: file.rel.clone(),
                line: line + 1,
                bucket: file.bucket.clone(),
                key: "acquisitions",
                what: format!("lock acquisition `{}`", a.lock),
                allow,
            });
            // Nested direct acquisitions.
            for b in acqs {
                if b.pos > a.pos && a.crit.contains(&b.pos) {
                    edges.entry(a.lock.clone()).or_default().insert(b.lock.clone());
                    let bline = file.line_of(b.pos);
                    let ballow = find_allow("lock", bline, &file.code_lines, &file.comment_lines);
                    findings.push(Finding {
                        path: file.rel.clone(),
                        line: bline + 1,
                        bucket: file.bucket.clone(),
                        key: "nested",
                        what: format!("`{}` acquired while `{}` is held", b.lock, a.lock),
                        allow: ballow,
                    });
                }
            }
            // Inter-procedural: calls (in this bucket) that acquire.
            let crit_code = &code[a.crit.clone()];
            for ((bucket, name), locks) in &fn_locks {
                if *bucket != file.bucket || locks.is_empty() {
                    continue;
                }
                if word_occurrences(crit_code, name).is_empty() {
                    continue;
                }
                for l in locks {
                    if *l != a.lock {
                        edges.entry(a.lock.clone()).or_default().insert(l.clone());
                    }
                }
            }
            // Alloc/I/O tokens under the lock.
            let mut flag = |pos: usize, what: String| {
                let fline = file.line_of(pos);
                let fallow = find_allow("lock", fline, &file.code_lines, &file.comment_lines);
                findings.push(Finding {
                    path: file.rel.clone(),
                    line: fline + 1,
                    bucket: file.bucket.clone(),
                    key: "alloc_io",
                    what,
                    allow: fallow,
                });
            };
            for word in BAD_CALLS {
                for pos in word_occurrences(crit_code, word) {
                    let abs = a.crit.start + pos;
                    if next_nonspace(bytes, abs + word.len()) == Some(b'(') {
                        flag(abs, format!("`{word}(..)` while `{}` is held", a.lock));
                    }
                }
            }
            for word in BAD_MACROS {
                for pos in word_occurrences(crit_code, word) {
                    let abs = a.crit.start + pos;
                    if next_nonspace(bytes, abs + word.len()) == Some(b'!') {
                        flag(abs, format!("`{word}!` while `{}` is held", a.lock));
                    }
                }
            }
        }
    }
    // Cycles in the acquisition graph are deadlocks waiting for the
    // right interleaving: hard failures.
    problems.extend(find_cycles(&edges));
    PassResult { findings, problems }
}

/// DFS cycle detection over the acquisition graph; reports each cycle
/// once, as the lock path that closes it.
fn find_cycles(edges: &BTreeMap<String, BTreeSet<String>>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for start in edges.keys() {
        if done.contains(start.as_str()) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<(&str, bool)> = vec![(start, false)];
        while let Some((node, leaving)) = stack.pop() {
            if leaving {
                path.pop();
                on_path.remove(node);
                done.insert(node);
                continue;
            }
            if on_path.contains(node) {
                let from = path.iter().position(|n| *n == node).unwrap_or(0);
                problems.push(format!(
                    "lock-order cycle: {} -> {node} — two threads taking these in \
                     opposite orders deadlock",
                    path[from..].join(" -> ")
                ));
                continue;
            }
            if done.contains(node) {
                continue;
            }
            path.push(node);
            on_path.insert(node);
            stack.push((node, true));
            if let Some(nexts) = edges.get(node) {
                for next in nexts {
                    stack.push((next, false));
                }
            }
        }
    }
    problems
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
    fn counts_acquisitions_and_alloc_under_lock() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(&self) -> Vec<u32> {\n    let g = self.queue.lock().unwrap();\n    g.iter().cloned().collect()\n}\n",
        )]);
        let r = run(&w);
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t["crates/x"], vec![1, 0, 1, 0], "one acquisition, one collect under lock");
    }

    #[test]
    fn drop_releases_the_critical_section() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(&self) -> Vec<u32> {\n    let g = self.queue.lock().unwrap();\n    let n = g.len();\n    drop(g);\n    (0..n).collect()\n}\n",
        )]);
        let t = super::super::tally(KEYS, &run(&w).findings);
        assert_eq!(t["crates/x"], vec![1, 0, 0, 0], "collect happens after drop(g)");
    }

    #[test]
    fn nested_acquisition_and_cycle_detection() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn ab(&self) {\n    let a = self.a.lock();\n    let b = self.b.lock();\n}\nfn ba(&self) {\n    let b = self.b.lock();\n    let a = self.a.lock();\n}\n",
        )]);
        let r = run(&w);
        let t = super::super::tally(KEYS, &r.findings);
        assert_eq!(t["crates/x"][1], 2, "one nested acquisition per fn");
        assert_eq!(r.problems.len(), 1, "a->b and b->a is one reported cycle");
        assert!(r.problems[0].contains("cycle"));
    }

    #[test]
    fn interprocedural_edges_close_cycles() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn outer(&self) {\n    let a = self.a.lock();\n    self.inner_b();\n}\nfn inner_b(&self) {\n    let b = self.b.lock();\n    self.take_a();\n}\nfn take_a(&self) {\n    let a = self.a.lock();\n}\n",
        )]);
        let r = run(&w);
        assert!(!r.problems.is_empty(), "a -> b -> a through calls is a cycle");
    }

    #[test]
    fn temporary_guard_critical_section_is_one_statement() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(&self) -> usize {\n    let n = self.queue.lock().unwrap().len();\n    (0..n).collect::<Vec<_>>().len()\n}\n",
        )]);
        let t = super::super::tally(KEYS, &run(&w).findings);
        assert_eq!(t["crates/x"], vec![1, 0, 0, 0], "collect is outside the one-statement crit");
    }

    #[test]
    fn allow_lock_exempts_cold_path_allocs() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(&self) {\n    let mut g = self.cache.lock().unwrap();\n    // ALLOW(lock): cold path — cache insert happens once per shape.\n    g.push(compute().to_vec());\n}\n",
        )]);
        let t = super::super::tally(KEYS, &run(&w).findings);
        assert_eq!(t["crates/x"], vec![1, 0, 0, 1]);
    }

    #[test]
    fn receiver_sees_through_index_expressions() {
        let w = ws_of(&[(
            "crates/x/src/lib.rs",
            "fn f(&self, v: usize) {\n    let g = self.rows[v].lock();\n}\n",
        )]);
        let r = run(&w);
        assert!(r.findings[0].what.contains("crates/x/rows"));
    }

    #[test]
    fn test_code_locks_are_ignored() {
        let w = ws_of(&[(
            "crates/x/tests/it.rs",
            "fn t(&self) { let g = self.a.lock(); let b = self.b.lock(); }\n",
        )]);
        assert!(run(&w).findings.is_empty());
    }
}
