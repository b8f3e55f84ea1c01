//! Experiment harness for the CAGRA reproduction.
//!
//! Each module under [`experiments`] regenerates one table or figure
//! of the paper (see DESIGN.md's per-experiment index); the `eval`
//! binary dispatches to them by id (`cargo run -p eval --release --
//! fig13`). Shared machinery: workload loading with ground-truth
//! caching ([`context`]), recall ([`recall`]), recall↔QPS sweeps
//! ([`sweep`]) and plain-text tables ([`report`]); [`record`] is the
//! `eval all --out-dir` path that regenerates `results/`.

pub mod context;
pub mod experiments;
pub mod recall;
pub mod record;
pub mod report;
pub mod sweep;

pub use context::{ExpContext, Workload};
pub use recall::recall_at_k;
pub use report::Table;
