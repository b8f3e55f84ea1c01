//! The kernel mapping a search runs (Sec. IV-A of the paper).
//!
//! Every host search states its mapping. The paper's Fig. 7 rule,
//! which picks one from the batch size and `itopk`, is a GPU occupancy
//! rule and lives with the device model (`gpu_sim::DeviceSpec::mapping`).

use serde::{Deserialize, Serialize};

/// Which kernel mapping to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// One CTA per query — large batches.
    SingleCta,
    /// Many CTAs per query — small batches or large top-M.
    MultiCta,
}
