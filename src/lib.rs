//! # cagra-repro — a Rust reproduction of CAGRA (ICDE 2024)
//!
//! This facade crate re-exports the whole workspace so downstream
//! users can depend on one crate:
//!
//! * [`cagra`] — the paper's contribution: fixed-degree proximity
//!   graph construction (NN-Descent + rank-based reordering + reverse
//!   edges) and the iterative top-M search with single-/multi-CTA
//!   mappings.
//! * [`dataset`], [`distance`], [`graph`], [`knn`] — substrates:
//!   vector storage (FP32/FP16), metrics, graph analysis (SCC, 2-hop),
//!   exact k-NN and NN-Descent.
//! * [`gpu_sim`] — the timing-functional A100 model used in place of
//!   real CUDA hardware (see DESIGN.md for the substitution argument).
//! * [`hnsw`], [`nssg`], [`ggnn`], [`ganns`] — the paper's comparison
//!   methods, implemented from scratch.
//! * [`eval`] — the per-figure experiment harness
//!   (`cargo run -p eval --release -- all`).
//!
//! ## Quickstart
//!
//! ```
//! use cagra_repro::prelude::*;
//!
//! // 1k random 32-dim vectors.
//! let spec = SynthSpec { dim: 32, n: 1000, queries: 1, family: Family::Gaussian, seed: 7 };
//! let (base, queries) = spec.generate();
//!
//! // Build the CAGRA graph (degree 16) and search it.
//! let (index, _report) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(16));
//! let hits = index.search(queries.row(0), 5, &SearchParams::for_k(5));
//! assert_eq!(hits.len(), 5);
//! assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
//! ```

pub use cagra;
pub use dataset;
pub use distance;
pub use eval;
pub use ganns;
pub use ggnn;
pub use gpu_sim;
pub use graph;
pub use hnsw;
pub use knn;
pub use nssg;
pub use song;

/// The types most applications need.
pub mod prelude {
    pub use cagra::build::GraphConfig;
    pub use cagra::search::planner::Mode;
    pub use cagra::{CagraIndex, SearchParams};
    pub use dataset::synth::{Family, SynthSpec};
    pub use dataset::{Dataset, DatasetF16, VectorStore};
    pub use distance::Metric;
    pub use gpu_sim::HashPolicy;
    pub use knn::topk::Neighbor;
}
