//! Online serving layer for CAGRA search (ISSUE 6).
//!
//! A long-lived query service that accepts **single-query** requests
//! from many concurrent clients and coalesces them into micro-batches
//! that workers share; the batch size is reported, not acted on — every
//! request runs its backend's one plan ([`SearchBackend::mapping`]:
//! multi-CTA on a static index).
//!
//! Layering, bottom to top:
//!
//! * [`batcher`] — bounded admission queue + deadline-aware
//!   micro-batch draining, handed to workers one request at a time.
//!   Pure queueing; no search logic.
//! * [`backend`] — the [`SearchBackend`] trait the service is generic
//!   over: a static [`cagra::CagraIndex`] (search only, constant
//!   epoch) or a mutable [`cagra::DynamicIndex`] (insert/delete, an
//!   epoch that bumps on every visible change and keys the shape
//!   cache).
//! * [`service`] — [`Service`] owns a backend and a pool of serve
//!   workers. Each worker claims one request at a time from the
//!   batcher, searches it under the backend's plan on the worker's own
//!   scratch and answers with results plus
//!   [`ResponseMeta`] (how the request was served). Two lone requests
//!   search on two cores at once, and a large batch is shared by
//!   whichever workers are free.
//! * [`tcp`] — a std::net front end speaking the length-prefixed
//!   binary frames of [`proto`], for out-of-process clients
//!   (`cli serve`). In-process callers (tests, benches, load
//!   generators) use [`Service`] directly and skip the socket.
//!
//! Admission control is load shedding, not buffering: a submit that
//! finds [`ServeConfig::queue_capacity`] requests already queued is
//! refused with [`ServeError::Overloaded`], which keeps time-in-queue
//! — and therefore tail latency — bounded no matter the offered load.
//!
//! Determinism contract: a request's neighbors depend only on the
//! query, `k` and the service's [`cagra::SearchParams`] — never on the
//! size or content of the batch it rode in, so an answer does not
//! depend on how busy the service is. The integration tests recompute
//! every served result bit-identically via
//! [`cagra::CagraIndex::search_mode`] under `Mode::MultiCta`.

pub mod backend;
pub mod batcher;
pub mod config;
pub mod error;
pub mod proto;
pub mod service;
pub mod tcp;

#[cfg(all(loom, test))]
mod loom_model;

pub use backend::SearchBackend;
pub use batcher::{Job, Response, ResponseMeta};
pub use config::ServeConfig;
pub use error::ServeError;
pub use service::{ResponseHandle, Service};
pub use tcp::{Client, ClientError, TcpServer};
