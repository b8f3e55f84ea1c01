//! `suite check`: the self-agreement test. Two sets of runs of this
//! same binary, interleaved (A, B, A, B, …) so a drifting host hits
//! both alike, over the same seeds; every workload × end-to-end metric
//! cell must agree with itself the way the driver asks: each set's
//! interquartile range within the metric's bound of its median
//! (`setup_s` excepted) and the two medians within the bound of each
//! other. `--repeat 10` is the driver's own acceptance test.

use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats;
use std::process::{Command, ExitCode};

/// `correct` and the named values of a run's last output line.
pub fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let (_, metrics) = line.split_once("\"metrics\": {")?;
    let mut out = Vec::new();
    let mut pieces = metrics.split("{\"value\": ");
    let mut name_side = pieces.next()?;
    for piece in pieces {
        let name = name_side.rsplit('"').nth(1)?;
        let number = piece.split(',').next()?;
        out.push((name.to_string(), number.trim().parse().ok()?));
        name_side = piece;
    }
    Some((correct, out))
}

/// One run in a child process, as the driver makes it; the values come
/// back in the order of [`END_TO_END`].
fn child_run(workload: &str, seed: u64, quick: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"]);
    if quick {
        cmd.arg("--quick");
    } else {
        cmd.args(["--seconds", &RUN_SECONDS.to_string()]);
    }
    let output = cmd.output().map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let (correct, metrics) =
        parse_result(last).ok_or_else(|| format!("{workload} seed {seed}: no result line"))?;
    if !output.status.success() || !correct {
        return Err(format!("{workload} seed {seed}: run failed: {last}"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            metrics
                .iter()
                .find(|(name, _)| name == m.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{workload} seed {seed}: {} missing", m.name))
        })
        .collect()
}

pub fn run(repeat: usize, seed: u64, quick: bool) -> ExitCode {
    // values[set][workload][metric] holds one value per repeat.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    for i in 0..repeat {
        for (set, label) in ["A", "B"].into_iter().enumerate() {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                eprintln!("check: repeat {}/{repeat} set {label} {}", i + 1, w.name);
                match child_run(w.name, seed + i as u64, quick) {
                    Ok(run) => {
                        for (mi, v) in run.into_iter().enumerate() {
                            values[set][wi][mi].push(v);
                        }
                    }
                    Err(msg) => {
                        eprintln!("check: {msg}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    println!(
        "| workload | metric | median A | q1–q3 A | spread A | median B | spread B | B vs A | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let (mut cells, mut within_half, mut disagree) = (0, 0, 0);
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][wi][mi], &values[1][wi][mi]);
            let [q1, med_a, q3] = stats::quartiles(a);
            let med_b = stats::quartiles(b)[1];
            let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
            let diff = if med_a == 0.0 { 0.0 } else { (med_b - med_a) / med_a.abs() };
            // Set-up time is judged on its medians only, as the driver does.
            let widest = if m.name == "setup_s" {
                diff.abs()
            } else {
                diff.abs().max(spread_a).max(spread_b)
            };
            let verdict = if widest > m.bound {
                disagree += 1;
                "DISAGREES"
            } else if widest <= m.bound / 2.0 {
                within_half += 1;
                "ok"
            } else {
                "ok (over half)"
            };
            cells += 1;
            println!(
                "| {} | {} | {med_a:.4} | {q1:.4}–{q3:.4} | {:.2}% | {med_b:.4} | {:.2}% | {:+.2}% | {:.0}% | {verdict} |",
                w.name,
                m.name,
                spread_a * 100.0,
                spread_b * 100.0,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!(
        "\n{cells} cells, {repeat} runs a set: {disagree} disagree, {within_half} inside half their bound"
    );
    if disagree == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "qps": {"value": 1234.5678, "unit": "queries/s"}, "bytes_per_vector": {"value": 512, "unit": "B"}}}"#;
        let (correct, metrics) = parse_result(line).expect("parses");
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("setup_s".to_string(), 0.5),
                ("qps".to_string(), 1234.5678),
                ("bytes_per_vector".to_string(), 512.0)
            ]
        );
        assert!(!parse_result(&line.replace("true", "false")).expect("parses").0);
        assert!(parse_result("not a result").is_none());
    }
}
