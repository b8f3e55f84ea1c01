//! CAGRA — the paper's primary contribution, reimplemented in Rust.
//!
//! Two halves, mirroring the paper's structure:
//!
//! * **Graph construction** (Sec. III): build a `d_init`-degree k-NN
//!   graph with NN-Descent, then optimize it into a fixed-degree-`d`
//!   directed graph via rank-based edge reordering, pruning, reverse
//!   edge addition, and an interleaved merge. See [`build`] and
//!   [`optimize`].
//! * **Search** (Sec. IV): an iterative traversal over a contiguous
//!   buffer holding an internal top-M list and a `p x d` candidate
//!   list, a *visited* set (one stamp per graph row) and MSB-flag
//!   parent tracking — one loop, [`search::kernel`], run in either of
//!   two hardware mappings: single-CTA (one worker per query, large
//!   batches) or multi-CTA (several workers cooperating on one query).
//!   [`search::planner`] encodes the Fig. 7 dispatch rule.
//!
//! The GPU model — its standard and "forgettable" visited hash tables,
//! the memory-access log, team sizes, occupancy and transactions —
//! lives in the separate `gpu-sim` crate, which runs the same loop
//! through a hidden hook on its own visited tables and prices the
//! [`search::trace::SearchTrace`] it records together with what those
//! tables record.
//!
//! ```
//! use cagra::{CagraIndex, GraphConfig, SearchParams};
//! use dataset::synth::{Family, SynthSpec};
//! use distance::Metric;
//!
//! let (base, queries) =
//!     SynthSpec { dim: 16, n: 500, queries: 1, family: Family::Gaussian, seed: 1 }.generate();
//! let (index, report) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8));
//! assert!(report.total().as_nanos() > 0);
//! let hits = index.search(queries.row(0), 5, &SearchParams::for_k(5));
//! assert_eq!(hits.len(), 5);
//! ```

// See the workspace soundness policy (DESIGN.md "Soundness & analysis"):
// unsafe ops inside `unsafe fn` need their own `unsafe {}` + SAFETY.
// The only unsafe in this crate is the `mmap` module's file mapping
// (raw syscalls + borrowed slices over mapped pages), each block
// carrying its own SAFETY comment and counted in the analyze budget.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod build;
pub mod dynamic;
pub mod error;
pub mod index_io;
pub mod mmap;
pub mod optimize;
pub mod params;
pub mod search;
pub mod shard;

pub use build::{build_graph, BuildReport, BuildStats, GraphConfig};
pub use dynamic::{DynamicIndex, DynamicParams, DynamicStats};
pub use error::SearchError;
pub use graph::relabel::{IdMap, Permutation, RelabelStrategy};
pub use mmap::MmapVectors;
pub use params::{ReorderStrategy, SearchParams};
pub use search::index::{CagraIndex, SearchOutput};
pub use search::scratch::SearchScratch;
pub use shard::ShardedIndex;
