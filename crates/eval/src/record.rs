//! `eval all --out-dir <dir>`: regenerate the committed `results/`
//! files, one child process per recorded run.
//!
//! Each run re-executes the `eval` binary as `eval <id> --n N
//! --queries Q` with stdout redirected to `<dir>/<stem>.txt`, so the
//! experiments keep printing with `println!` and one run's panic or
//! memory high-water mark cannot take the rest down. A failing run is
//! reported and the others still run; `MANIFEST.json` records what
//! produced each file.

use crate::experiments::{Run, TABLE};
use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Every recorded run of the registry, paired with its experiment id.
pub fn recorded_runs() -> Vec<(&'static str, Run)> {
    TABLE.iter().flat_map(|e| e.recorded.iter().map(|r| (e.id, *r))).collect()
}

/// Execute `runs` through the `eval` binary at `exe`, writing
/// `<out_dir>/<stem>.txt` per run and `<out_dir>/MANIFEST.json`.
/// Returns the number of runs that did not exit 0.
pub fn record(exe: &Path, runs: &[(&str, Run)], out_dir: &Path) -> io::Result<usize> {
    std::fs::create_dir_all(out_dir)?;
    let mut rows = Vec::with_capacity(runs.len());
    let mut failed = 0;
    for (id, run) in runs {
        let path = out_dir.join(format!("{}.txt", run.stem));
        eprintln!("=== {id} --n {} --queries {} > {} ===", run.n, run.queries, path.display());
        let t0 = Instant::now();
        let status = Command::new(exe)
            .arg(id)
            .args(["--n", &run.n.to_string(), "--queries", &run.queries.to_string()])
            .stdout(Stdio::from(File::create(&path)?))
            .status()?;
        let seconds = t0.elapsed().as_secs_f64();
        // A signal death has no code; -1 keeps the field a number.
        let exit = status.code().unwrap_or(-1);
        if exit != 0 {
            failed += 1;
            eprintln!("FAILED: {id} ({}) exited {exit}", run.stem);
        }
        rows.push(format!(
            "    {{\"id\": \"{id}\", \"stem\": \"{}\", \"n\": {}, \"queries\": {}, \
             \"seconds\": {seconds:.1}, \"exit\": {exit}}}",
            run.stem, run.n, run.queries
        ));
    }
    let manifest = format!(
        "{{\n  \"commit\": \"{}\",\n  \"threads\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        source_commit(),
        knn::parallel::default_threads(),
        rows.join(",\n")
    );
    std::fs::write(out_dir.join("MANIFEST.json"), manifest)?;
    Ok(failed)
}

/// `git describe` of the checkout this binary was compiled from
/// (`<sha>` or `<sha>-dirty`), or `unknown` outside a git checkout.
fn source_commit() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "describe", "--always", "--dirty", "--abbrev=40"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
