//! Drives the `eval all --out-dir` path (`eval::record::record`) over
//! a two-run slice of the registry at n = 300, with one bogus id in
//! front to show a failing run is reported without stopping the rest.

use eval::experiments::Run;
use eval::record::{record, recorded_runs};
use std::path::Path;

/// `"key": value` from one flat manifest row (no parser in the
/// workspace; `record` writes one run per line).
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let tail = row.split(&format!("\"{key}\": ")).nth(1).unwrap_or_else(|| panic!("{key}: {row}"));
    tail.split([',', '}']).next().unwrap().trim_matches('"')
}

#[test]
fn out_dir_path_writes_one_file_per_run_and_a_manifest() {
    let mut runs = vec![("no-such-experiment", Run { stem: "bogus", n: 300, queries: 20 })];
    runs.extend(
        recorded_runs().into_iter().take(2).map(|(id, r)| (id, Run { n: 300, queries: 20, ..r })),
    );
    let dir = std::env::temp_dir().join(format!("eval_record_{}", std::process::id()));
    let failed = record(Path::new(env!("CARGO_BIN_EXE_eval")), &runs, &dir).unwrap();
    assert_eq!(failed, 1, "only the bogus id fails");

    for (id, run) in &runs[1..] {
        let text = std::fs::read_to_string(dir.join(format!("{}.txt", run.stem))).unwrap();
        assert!(text.starts_with("# context: n=300 queries=20 k=10 "), "{text}");
        assert!(text.contains(&format!("[{id} done in ")), "{id} did not finish:\n{text}");
    }

    let manifest = std::fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
    assert_eq!(manifest.matches('{').count(), manifest.matches('}').count());
    assert_eq!(manifest.matches('[').count(), manifest.matches(']').count());
    assert!(!field(&manifest, "commit").is_empty());
    assert!(field(&manifest, "threads").parse::<usize>().unwrap() >= 1);
    let rows: Vec<&str> = manifest.lines().filter(|l| l.contains("\"stem\"")).collect();
    assert_eq!(rows.len(), runs.len());
    for (row, (id, run)) in rows.iter().zip(&runs) {
        assert_eq!(field(row, "id"), *id);
        assert_eq!(field(row, "stem"), run.stem);
        assert_eq!(field(row, "n"), "300");
        assert_eq!(field(row, "queries"), "20");
        assert!(field(row, "seconds").parse::<f64>().unwrap() >= 0.0);
        assert_eq!(field(row, "exit"), if run.stem == "bogus" { "2" } else { "0" });
    }
    std::fs::remove_dir_all(&dir).ok();
}
