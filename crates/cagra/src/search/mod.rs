//! CAGRA search (Sec. IV of the paper).
//!
//! On the GPU a contiguous buffer holds the internal top-M list and
//! the `p x d` candidate list; each iteration (1) merges sorted
//! candidates into the top-M list, (2) expands the neighbors of the
//! best not-yet-parented entries (tracked by an MSB flag on the stored
//! index), and (3) computes distances only for nodes not yet visited.
//! The host keeps only the top-M list ([`buffer`]) and admits each
//! scored candidate into it directly. That loop
//! lives once, in [`kernel`]; the paper's two hardware mappings are
//! *shapes* of it — how many workers share a query and one visited
//! set, how many parents and how long a list each worker gets —
//! selected by [`planner::Mode`]. The visited set is [`dense`]; the
//! GPU's hash tables live in `gpu-sim`, which runs the loop through
//! [`kernel::Hook`]. Every search states its mode; `gpu-sim` keeps
//! the Fig. 7 rule that picks one for a GPU. [`index`] is the public
//! entry.

pub mod buffer;
pub mod dense;
pub mod index;
pub mod kernel;
pub mod parent;
pub mod planner;
pub mod scratch;
pub mod trace;
