//! Typed serving errors.
//!
//! Admission control and shutdown produce their own variants; request
//! validation failures carry the underlying [`SearchError`] so TCP
//! clients and in-process callers see exactly why a shape was refused.

use cagra::SearchError;
use std::fmt;

/// Why a serving request was not answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request: the bounded queue already
    /// holds `depth` requests against a capacity of `capacity`.
    /// Callers should back off and retry; the service stays healthy.
    Overloaded {
        /// Queue depth observed at the rejection.
        depth: usize,
        /// Configured shedding threshold.
        capacity: usize,
    },
    /// The request shape (query dimension, `k`, parameters) failed
    /// validation. Rejected at admission — an invalid request never
    /// enters the batcher.
    Invalid(SearchError),
    /// The backend does not implement the requested operation (e.g.
    /// `insert` against a static index). Carries the operation name.
    Unsupported(&'static str),
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// No worker answered: the request's search panicked, or the
    /// service went away before answering (shutdown race).
    Disconnected,
    /// The service configuration itself is unusable.
    BadConfig(&'static str),
    /// The OS refused to start a serve worker thread.
    SpawnFailed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "overloaded: queue depth {depth} at capacity {capacity}")
            }
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::Unsupported(op) => {
                write!(f, "operation '{op}' is not supported by this backend")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Disconnected => write!(f, "serve worker disconnected before responding"),
            ServeError::BadConfig(what) => write!(f, "bad serve config: {what}"),
            ServeError::SpawnFailed => write!(f, "failed to spawn a serve worker thread"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SearchError> for ServeError {
    fn from(e: SearchError) -> Self {
        ServeError::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let e = ServeError::Overloaded { depth: 9, capacity: 8 };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains('9'));
        let e = ServeError::Invalid(SearchError::ZeroK);
        assert!(e.to_string().contains("invalid request"));
        assert!(e.to_string().contains("k must be positive"));
        assert_eq!(ServeError::from(SearchError::ZeroK), ServeError::Invalid(SearchError::ZeroK));
    }
}
