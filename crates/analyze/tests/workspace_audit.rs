//! Runs the real static-analysis suite over the real workspace as part
//! of tier-1 `cargo test`, so an undocumented `unsafe`, a new panic
//! path, a hot-loop allocation, a lock-order regression, an
//! order-sensitive construct, or an unreviewed budget drift fails the
//! ordinary test run — not just the dedicated CI lane.

#[test]
fn workspace_audit_is_clean() {
    let root = analyze::workspace_root();
    match analyze::run_audit(&root) {
        Ok(sites) => assert!(!sites.is_empty(), "audit found no unsafe at all — scan is broken"),
        Err(problems) => panic!(
            "unsafe audit failed with {} problem(s):\n  {}",
            problems.len(),
            problems.join("\n  ")
        ),
    }
}

#[test]
fn budget_file_is_canonical() {
    // `budget-write` output must be byte-identical to the committed
    // file, so formatting drift can't mask a count change in review.
    let root = analyze::workspace_root();
    let sites = analyze::audit_workspace(&root).expect("walk workspace");
    let expected = analyze::budget::render(&analyze::budget::tally(&sites));
    let committed = std::fs::read_to_string(analyze::budget_path(&root)).expect("read budget");
    assert_eq!(committed, expected, "run `cargo run -p analyze -- budget-write` and commit");
}

#[test]
fn every_pass_is_clean() {
    let root = analyze::workspace_root();
    for pass in analyze::PASSES {
        let out = analyze::audit_pass(&root, pass).expect("run pass");
        assert!(
            out.problems.is_empty(),
            "{pass} audit failed with {} problem(s):\n  {}",
            out.problems.len(),
            out.problems.join("\n  ")
        );
    }
}

#[test]
fn every_budget_file_is_canonical() {
    // Each pass's `budget-write` output must be byte-identical to the
    // committed file, so formatting drift can't mask a count change.
    let root = analyze::workspace_root();
    for pass in analyze::PASSES {
        let schema = analyze::pass_schema(pass).expect("known pass");
        let out = analyze::audit_pass(&root, pass).expect("run pass");
        let expected = analyze::ledger::render(schema, &out.tallies);
        let committed = std::fs::read_to_string(analyze::pass_budget_path(&root, schema))
            .unwrap_or_else(|e| panic!("read {}: {e}", schema.file));
        assert_eq!(committed, expected, "run `{}` and commit", schema.write_cmd);
    }
}

#[test]
fn pinned_zero_buckets_hold_in_committed_budgets() {
    // `crates/serve` and the try_search call graph must stay at zero
    // un-ALLOWed panic sites — in the committed file, not just the
    // live scan, so a hand-edited budget can't smuggle a site in.
    let root = analyze::workspace_root();
    for pass in analyze::PASSES {
        let schema = analyze::pass_schema(pass).expect("known pass");
        if schema.pinned_zero.is_empty() {
            continue;
        }
        let text = std::fs::read_to_string(analyze::pass_budget_path(&root, schema))
            .unwrap_or_else(|e| panic!("read {}: {e}", schema.file));
        let tallies = analyze::ledger::parse(schema, &text).expect("parse committed budget");
        for (bucket, _) in schema.pinned_zero {
            let counts = tallies.get(*bucket).unwrap_or_else(|| {
                panic!("{}: pinned bucket {bucket} missing from committed file", schema.file)
            });
            let broken = analyze::ledger::pinned_zero_violations(schema, counts);
            assert!(
                broken.is_empty(),
                "{}: pinned-zero bucket {bucket} has un-ALLOWed {broken:?}: {counts:?}",
                schema.file
            );
        }
    }
}
