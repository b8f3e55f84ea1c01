//! `cagra-cli` — command-line front end for the CAGRA reproduction.
//!
//! Subcommands mirror a production vector-index workflow over the
//! standard TexMex file formats:
//!
//! ```text
//! cagra-cli synth  --preset deep --n 10000 --queries 100 --out-dir work/
//! cagra-cli gt     --base work/base.fvecs --queries work/queries.fvecs --k 10 --out work/gt.ivecs
//! cagra-cli build  --base work/base.fvecs --degree 32 --out work/graph.cagra
//! cagra-cli search --base work/base.fvecs --graph work/graph.cagra \
//!                  --queries work/queries.fvecs --k 10 --gt work/gt.ivecs
//! cagra-cli stats  --graph work/graph.cagra
//! cagra-cli serve  --index work/index.cgix --addr 127.0.0.1:7878
//! ```
//!
//! `bundle --pq M` stores vectors as `M`-byte product-quantized codes
//! with the full-precision rows appended as a memory-mapped rerank
//! tail (format v3); `search`/`serve` then accept `--rerank D` to
//! traverse over LUT-based approximate distances and re-score the top
//! `D` candidates exactly.
//!
//! `serve` runs the online query service: single-query TCP requests
//! wait in one bounded FIFO (`--queue-cap`; a full queue sheds with a
//! typed `Overloaded`) until one of `--threads` serve workers claims
//! them. `--self-test N --clients C` drives N requests through the
//! bound server and exits — a one-command serving smoke.
//!
//! Each command accepts only the flags [`args::USAGE`] lists for it; any
//! other flag is an error that names it.

pub mod args;
pub mod commands;

pub use args::Args;

/// Entry point shared by the binary and the integration tests.
/// Returns an error message suitable for printing to stderr.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (cmd, args) = args::parse(argv)?;
    match cmd.as_str() {
        "synth" => commands::synth(&args),
        "gt" => commands::ground_truth(&args),
        "build" => commands::build(&args),
        "bundle" => commands::bundle(&args),
        "search" => commands::search(&args),
        "serve" => commands::serve(&args),
        "stats" => commands::stats(&args),
        other => Err(format!("unknown command '{other}'. {}", args::USAGE)),
    }
}
