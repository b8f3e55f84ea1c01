//! Experiment driver: `eval <experiment-id>... | all | list`.
//!
//! Scale comes from the `--n/--queries/--batch` flags; `eval all
//! --out-dir <dir>` instead runs every recorded run of the registry
//! at the scale its committed `results/` file was produced at.
//!
//! ```text
//! cargo run -p eval --release -- fig13 --n 8000
//! cargo run -p eval --release -- all --out-dir results
//! cargo run -p eval --release -- fig10 --metrics-out metrics.json
//! ```

use eval::context::ExpContext;
use eval::experiments::{self, Experiment};
use eval::record;
use std::path::PathBuf;

const USAGE: &str = "usage: eval <experiment-id>... | all [--out-dir DIR] | list \
                     [--n N] [--queries Q] [--batch B] [--k K] [--seed S] [--metrics-out FILE]";

enum Command {
    List,
    Run(Vec<&'static Experiment>),
    Record(PathBuf),
}

struct Args {
    ctx: ExpContext,
    metrics_out: Option<String>,
    command: Command,
}

/// Turn the command line into a fully resolved command, so a typo in
/// the last id is reported before the first experiment starts.
fn resolve(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut ctx = ExpContext::default();
    let (mut ids, mut all, mut list, mut flags) = (Vec::new(), false, false, false);
    let mut metrics_out = None;
    let mut out_dir = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut number = || {
            flags = true;
            it.next().and_then(|s| s.parse::<usize>().ok()).ok_or(format!("{a} needs a number"))
        };
        match a.as_str() {
            "--n" => ctx.n = number()?,
            "--queries" => ctx.queries = number()?,
            "--batch" => ctx.batch_target = number()?,
            "--k" => ctx.k = number()?,
            "--seed" => ctx.seed = number()? as u64,
            "--metrics-out" => metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?),
            "--out-dir" => out_dir = Some(it.next().ok_or("--out-dir needs a path")?),
            "list" => list = true,
            "all" => all = true,
            id => ids.push(experiments::find(id).ok_or(format!("unknown experiment: {id}"))?),
        }
    }
    let command = if list {
        Command::List
    } else if let Some(dir) = out_dir {
        if !all || !ids.is_empty() || flags || metrics_out.is_some() {
            return Err("--out-dir goes with `all` alone: every recorded run uses the scale \
                        in the registry"
                .to_string());
        }
        Command::Record(PathBuf::from(dir))
    } else {
        if all {
            ids.extend(experiments::TABLE);
        }
        if ids.is_empty() {
            let known: Vec<&str> = experiments::TABLE.iter().map(|e| e.id).collect();
            return Err(format!("{USAGE}\nexperiments: {}", known.join(", ")));
        }
        Command::Run(ids)
    };
    Ok(Args { ctx, metrics_out, command })
}

fn main() {
    let Args { ctx, metrics_out, command } =
        resolve(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let experiments = match command {
        Command::List => {
            for e in experiments::TABLE {
                println!("{}", e.id);
            }
            return;
        }
        Command::Record(dir) => {
            let failed = std::env::current_exe()
                .and_then(|exe| record::record(&exe, &record::recorded_runs(), &dir))
                .unwrap_or_else(|e| {
                    eprintln!("cannot record into {}: {e}", dir.display());
                    std::process::exit(1);
                });
            std::process::exit(if failed == 0 { 0 } else { 1 });
        }
        Command::Run(experiments) => experiments,
    };
    println!(
        "# context: n={} queries={} k={} batch_target={} seed={}",
        ctx.n, ctx.queries, ctx.k, ctx.batch_target, ctx.seed
    );
    for e in experiments {
        let t0 = std::time::Instant::now();
        (e.runner)(&ctx);
        println!("[{} done in {:.1} s]", e.id, t0.elapsed().as_secs_f64());
    }
    if let Some(path) = metrics_out {
        let snap = obs::metrics().snapshot();
        if let Err(e) = std::fs::write(&path, snap.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\n{}", snap.render());
        println!("[metrics written to {path}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve_str(line: &str) -> Result<Args, String> {
        resolve(line.split_whitespace().map(String::from))
    }

    #[test]
    fn a_typo_in_any_position_is_rejected_before_anything_runs() {
        assert_eq!(resolve_str("fig3 fgi4").err().unwrap(), "unknown experiment: fgi4");
        assert_eq!(resolve_str("all fgi4 --n 300").err().unwrap(), "unknown experiment: fgi4");
    }

    #[test]
    fn ids_resolve_in_order_and_flags_set_the_scale() {
        let args = resolve_str("fig9 --n 8000 table1 --queries 50").unwrap();
        assert_eq!((args.ctx.n, args.ctx.queries), (8000, 50));
        let Command::Run(exps) = args.command else { panic!("expected a run") };
        assert_eq!(exps.iter().map(|e| e.id).collect::<Vec<_>>(), ["fig9", "table1"]);
        let Command::Run(all) = resolve_str("all").unwrap().command else { panic!() };
        assert_eq!(all.len(), experiments::TABLE.len());
    }

    #[test]
    fn out_dir_goes_with_all_alone() {
        assert!(matches!(resolve_str("all --out-dir d").unwrap().command, Command::Record(_)));
        for line in ["fig3 --out-dir d", "--out-dir d", "all fig3 --out-dir d"] {
            assert!(resolve_str(line).is_err(), "{line}");
        }
        // The registry is the one source of scale for recorded runs.
        assert!(resolve_str("all --out-dir d --n 300").is_err());
        assert!(resolve_str("all --out-dir").is_err());
    }

    #[test]
    fn no_experiment_is_a_usage_error_and_list_wins() {
        assert!(resolve_str("--n 300").err().unwrap().starts_with("usage:"));
        assert!(resolve_str("list fgi4x").is_err(), "list does not excuse a typo");
        assert!(matches!(resolve_str("fig3 list").unwrap().command, Command::List));
    }
}
