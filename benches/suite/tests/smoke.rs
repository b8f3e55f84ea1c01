//! Runs the real binary: `--print-benchmark-json` against the
//! committed file, and a `--quick` pass of all four workloads in both
//! trace modes against the names that file declares.

use std::process::Command;

fn suite(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_suite")).args(args).output().expect("run suite");
    (out.status.success(), String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// The `"name": "…"` values of one array of `BENCHMARK.json`.
fn names(json: &str, section: &str) -> Vec<String> {
    let from = json.find(&format!("\"{section}\": [")).expect("section present");
    let body = &json[from..];
    let body = &body[..body.find("\n  ]").expect("section ends")];
    body.split("{\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn print_benchmark_json_is_the_committed_file() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let (ok, printed) = suite(&["--print-benchmark-json"]);
    assert!(ok);
    assert_eq!(printed, committed);
}

#[test]
fn quick_smoke_of_all_four_workloads_in_both_trace_modes() {
    let (_, json) = suite(&["--print-benchmark-json"]);
    let workloads = names(&json, "workloads");
    assert_eq!(workloads.len(), 4);
    // One run at a time: each keeps two threads busy.
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let started = std::time::Instant::now();
            let (ok, out) = suite(&["--workload", w, "--seed", "5", "--trace", trace, "--quick"]);
            let last = out.lines().last().unwrap_or("");
            assert!(ok, "{w} --trace {trace} failed:\n{out}");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{w}: {last}");
            assert!(last.contains("\"failed\": 0, "), "{w}: {last}");
            let declared = names(&json, section);
            assert_eq!(last.matches("{\"value\": ").count(), declared.len(), "{w}: {last}");
            for name in &declared {
                assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{w} lacks {name}");
            }
            assert!(!last.contains("NaN") && !last.contains("inf"), "{w}: {last}");
            let took = started.elapsed().as_secs_f64();
            assert!(trace == "1" || took <= 3.0, "{w} --quick took {took:.1} s");
        }
        let spans = format!("{}/target/trace-{w}.tsv", env!("CARGO_MANIFEST_DIR"));
        let spans = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        assert!(spans.starts_with("id\tparent\trequest\tname\tstart_ns\tend_ns\n"));
        assert!(spans.lines().count() > 10, "{w}: a handful of spans at least");
    }
}
