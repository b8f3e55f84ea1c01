//! Timing-functional GPU model for the CAGRA reproduction.
//!
//! The paper's throughput results depend on GPU hardware effects —
//! 128-bit memory transactions split across software **teams**,
//! register-pressure-limited occupancy, shared- vs device-memory hash
//! tables, and CTA scheduling across SMs. This host has no GPU, so the
//! substitution (documented in DESIGN.md) is a first-order analytical
//! timing model layered on top of the *real* search execution:
//! `cagra`'s loop, run on the GPU's visited tables ([`search`]), records
//! a [`cagra::search::trace::SearchTrace`] of the operations a kernel
//! would perform; the tables add what only they see — probes, resets
//! and, on request, every gathered row — to make a [`SimTrace`], and
//! this crate converts those counts into simulated seconds on a
//! parameterized device.
//!
//! Recall numbers are therefore exact (the traversal really ran);
//! throughput numbers are model outputs calibrated to an A100-like
//! device and should be read for *shape* (who wins, where crossovers
//! fall), not absolute QPS.
//!
//! ```
//! use cagra::{CagraIndex, GraphConfig, SearchParams};
//! use cagra::search::planner::Mode;
//! use dataset::synth::{Family, SynthSpec};
//! use distance::Metric;
//! use gpu_sim::{search_batch_traced, simulate_batch, DeviceSpec, HashPolicy};
//!
//! let (base, queries) =
//!     SynthSpec { dim: 16, n: 400, queries: 4, family: Family::Gaussian, seed: 2 }.generate();
//! let (index, _) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(8));
//! // The simulated entry runs the GPU's visited table, here the paper's
//! // shared-memory forgettable one, so the trace can price it.
//! let policy = HashPolicy::Forgettable { bits: 11, reset_interval: 1 };
//! let params = SearchParams::for_k(5);
//! let out = search_batch_traced(&index, &queries, 5, &params, Mode::SingleCta, policy);
//! let traces: Vec<_> = out.into_iter().map(|(_, t)| t).collect();
//! let timing = simulate_batch(&DeviceSpec::a100(), &traces, 16, 4, 8, Mode::SingleCta);
//! assert!(timing.qps > 0.0);
//! ```

pub mod construction;
pub mod cost;
pub mod device;
pub mod exec;
pub mod kernels;
pub mod mem;
pub mod multi;
pub mod search;
pub mod trace;
pub mod visited;

pub use construction::{estimate_construction, ConstructionEstimate};
pub use cost::{cta_occupancy, KernelConfig, Occupancy};
pub use device::DeviceSpec;
pub use exec::{simulate_batch, BatchTiming};
pub use kernels::{traced_beam_search, BeamParams};
pub use mem::{replay_log, CacheModel, MemLayout, TxCounts};
pub use multi::{simulate_sharded_batch, MultiGpuTiming};
pub use search::{search_batch_traced, search_sharded_traced, search_with, SimTable};
pub use trace::{AccessLog, IterAccess, SimRecord, SimRound, SimTrace};
pub use visited::{HashPolicy, VisitedSet};
