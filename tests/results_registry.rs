//! `results/*.txt` and `eval`'s experiment table describe each other:
//! every committed file is a recorded run (or a named one-off), every
//! recorded run has its file, and the scale in the file's
//! `# context:` line is the scale in the table.

use eval::record::recorded_runs;
use std::collections::BTreeMap;
use std::path::Path;

/// Scale runs kept out of `eval all` (19 runs, about 6 minutes on 2
/// cores; each of these alone takes longer), with the command that
/// produced each file and the scale its `# context:` line records.
const ONE_OFF: &[(&str, usize, usize, &str)] = &[
    ("ext_pq", 1_000_000, 200, "eval ext-pq --n 1000000"),
    ("ext_pq_m48_250k", 250_000, 200, "CAGRA_PQ_M=48 eval ext-pq --n 250000"),
    ("ext_relabel_n100k", 100_000, 4000, "eval ext-relabel --n 100000 --queries 4000"),
    ("ext_knn_crossover", 64_000, 200, "eval ext-knn-crossover --n 64000"),
];

#[test]
fn every_results_file_is_a_recorded_run_at_its_recorded_scale() {
    let mut expected: BTreeMap<String, (usize, usize, String)> = recorded_runs()
        .into_iter()
        .map(|(id, r)| (r.stem.to_string(), (r.n, r.queries, format!("eval {id}"))))
        .collect();
    for &(stem, n, queries, command) in ONE_OFF {
        let clash = expected.insert(stem.to_string(), (n, queries, command.to_string()));
        assert!(clash.is_none(), "{stem} is both a recorded run and a one-off");
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for entry in std::fs::read_dir(&dir).expect("results/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let (n, queries, command) = expected
            .remove(&stem)
            .unwrap_or_else(|| panic!("results/{stem}.txt has no recorded run in eval's table"));
        let text = std::fs::read_to_string(&path).unwrap();
        let context = text.lines().next().unwrap_or_default();
        assert!(
            context.starts_with(&format!("# context: n={n} queries={queries} ")),
            "results/{stem}.txt says `{context}`, the table says n={n} queries={queries} ({command})"
        );
    }
    assert!(expected.is_empty(), "recorded runs without a results/ file: {expected:?}");
}
