//! `suite`: the benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! suite --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! suite check [--repeat N] [--seed S] [--quick]
//! suite --print-benchmark-json
//! ```
//!
//! A run prints its phases and cells as text and, as the last line of
//! standard output, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes the span file). See README.md.

mod common;
mod probes;
mod sched;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workloads;

use common::{Ctx, Outcome, RECALL_FLOOR};
use spec::{WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: suite --workload <build_deep|serve_tcp_glove|serve_open_pq|churn_mixed> \
[--seed N] [--seconds S] [--trace 0|1] [--quick]
       suite check [--repeat N] [--seed S] [--quick]
       suite --print-benchmark-json";

pub struct RunArgs {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

enum Command {
    Run(RunArgs),
    Check { repeat: usize, seed: u64, quick: bool },
    PrintBenchmarkJson,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, None, false, false);
    let mut repeat = 5usize;
    let check = args.first().is_some_and(|a| a == "check");
    let mut it = args.iter().skip(usize::from(check));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-benchmark-json" => return Ok(Command::PrintBenchmarkJson),
            "--quick" => quick = true,
            "--workload" => {
                let name = value()?;
                workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" if check => {
                repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if repeat < 2 {
                    return Err("--repeat must be at least 2".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if check {
        return Ok(Command::Check { repeat, seed, quick });
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if quick { 1.5 } else { f64::from(RUN_SECONDS) });
    Ok(Command::Run(RunArgs { workload, seed, seconds, trace, quick }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::PrintBenchmarkJson) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Check { repeat, seed, quick }) => selfcheck::run(repeat, seed, quick),
        Ok(Command::Run(run_args)) => run(&run_args),
        Err(msg) => {
            eprintln!("suite: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where the traced run leaves its spans and `serve_open_pq` its
/// bundle: the crate's own (ignored) `target/`, inside the checkout.
pub fn target_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

fn run(args: &RunArgs) -> ExitCode {
    let w = args.workload;
    // The thread budget is enforced, not assumed: three busy threads on
    // two cores make a reader's p99 the scheduler's timeslice.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.busy_threads > cores {
        eprintln!(
            "suite: {} keeps {} threads busy but the host has {cores}",
            w.name, w.busy_threads
        );
        return ExitCode::from(2);
    }
    // No other thread exists yet, so changing the environment is sound.
    std::env::set_var("CAGRA_THREADS", w.cagra_threads.to_string());

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        tracer: trace::Tracer::new(args.trace),
    };
    if !args.quick {
        common::warm_host(w.busy_threads);
    }
    let mut out = workloads::run(w.name, &ctx);
    let attempted: u64 = out.phases.iter().map(|p| p.tally.sent).sum();
    let failed: u64 = out.phases.iter().map(|p| p.tally.failed).sum();
    let values = out.e2e.values();
    let correct = failed == 0
        && attempted > 0
        && out.e2e.recall_at_10 >= RECALL_FLOOR
        && values.iter().all(|v| v.is_finite() && *v > 0.0);

    println!(
        "workload {} seed {} seconds {} trace {} cores {cores} CAGRA_THREADS {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.cagra_threads
    );
    for p in &out.phases {
        println!(
            "phase {:<16} sent {:>7} ok {:>7} failed {:>3} samples {:>7}",
            p.name, p.tally.sent, p.tally.ok, p.tally.failed, p.samples
        );
    }
    for ((m, v), n) in END_TO_END.iter().zip(values).zip(out.samples) {
        println!("cell {:<18} {v:>14.4} {:<10} samples {n}", m.name, m.unit);
    }
    if out.e2e.recall_at_10 < RECALL_FLOOR {
        println!("FAILED: recall_at_10 {} is below the floor {RECALL_FLOOR}", out.e2e.recall_at_10);
    }

    let metrics: Vec<String> = if args.trace {
        finish_trace(&ctx, w.name, &mut out, attempted, failed);
        PER_LAYER.iter().map(|m| metric_json(m.name, out.layers.get(m.name), m.unit)).collect()
    } else {
        END_TO_END.iter().zip(values).map(|(m, v)| metric_json(m.name, v, m.unit)).collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The traced run's tail: operation counts into `loadgen.*`, the span
/// file, and the self-time table that shows which layer did the work.
fn finish_trace(ctx: &Ctx, workload: &str, out: &mut Outcome, attempted: u64, failed: u64) {
    out.layers.set("loadgen.sent", attempted as f64);
    out.layers.set("loadgen.ok", (attempted - failed) as f64);
    out.layers.set("loadgen.failed", failed as f64);
    out.layers.set("loadgen.samples", out.phases.iter().map(|p| p.samples).sum::<usize>() as f64);
    let spans = ctx.tracer.spans();
    let path = target_dir().join(format!("trace-{workload}.tsv"));
    match trace::write_tsv(&path, &spans) {
        Ok(()) => println!("trace {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("suite: cannot write {}: {e}", path.display()),
    }
    let totals = trace::self_times(&spans);
    let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
    println!(
        "span {:<28} {:>7} {:>11} {:>11} {:>6}",
        "name", "calls", "total_ms", "self_ms", "self%"
    );
    for (name, t) in &totals {
        println!(
            "span {name:<28} {:>7} {:>11.3} {:>11.3} {:>6.2}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self.max(1) as f64
        );
    }
}
