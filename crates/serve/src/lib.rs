//! Online serving layer for CAGRA search.
//!
//! A long-lived query service that accepts **single-query** requests
//! from many concurrent clients into one bounded FIFO. Every request is
//! searched alone, under its backend's one plan
//! ([`SearchBackend::mapping`]: multi-CTA on a static index).
//!
//! Layering, bottom to top:
//!
//! * [`batcher`] — the bounded admission FIFO that workers claim from
//!   one request at a time. Pure queueing; no search logic.
//! * [`backend`] — the [`SearchBackend`] trait the service is generic
//!   over: a static [`cagra::CagraIndex`] (search only) or a mutable
//!   [`cagra::DynamicIndex`] (insert/delete).
//! * [`service`] — [`Service`] owns a backend and a pool of serve
//!   workers. Each worker claims the oldest queued request, searches
//!   it under the backend's plan on the worker's own scratch and
//!   answers with results plus [`ResponseMeta`] (how the request was
//!   served). Two lone requests search on two cores at once.
//! * [`tcp`] — a std::net front end speaking the length-prefixed
//!   binary frames of [`proto`], for out-of-process clients
//!   (`cli serve`). In-process callers (tests, benches, load
//!   generators) use [`Service`] directly and skip the socket.
//!
//! Admission control is load shedding, not buffering: a submit that
//! finds [`ServeConfig::queue_capacity`] requests still unclaimed is
//! refused with [`ServeError::Overloaded`], which keeps time-in-queue
//! — and therefore tail latency — bounded no matter the offered load.
//! Time-in-queue runs until a worker claims the request, so it includes
//! waiting for a free worker.
//!
//! Determinism contract: a request's neighbors depend only on the
//! query, `k` and the service's [`cagra::SearchParams`] — never on what
//! else is queued, so an answer does not depend on how busy the service
//! is. The integration tests recompute every served result
//! bit-identically via [`cagra::CagraIndex::search_mode`] under
//! `Mode::MultiCta`.

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
