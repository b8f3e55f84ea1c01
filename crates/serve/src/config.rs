//! Serving policy knobs.

use crate::error::ServeError;
use cagra::SearchParams;

/// Admission policy and search parameters for a [`crate::Service`].
///
/// Requests wait in one bounded FIFO; each idle serve worker claims the
/// oldest, with no coalescing window and no batches.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// No effect: nothing in `serve` reads it. Kept only because the
    /// benchmark suite reads it; ROADMAP 7(9) removes it.
    pub max_batch: usize,
    /// Admission-control shedding threshold (>= 1): a submit that finds
    /// this many admitted requests not yet claimed by a worker is
    /// rejected with [`ServeError::Overloaded`] instead of growing the
    /// queue, so tail latency stays bounded under overload.
    pub queue_capacity: usize,
    /// Search parameters shared by every request this service answers
    /// (`k` stays per-request). The seed is used as-is for every
    /// request, so a request's result does not depend on what else is
    /// queued.
    pub params: SearchParams,
    /// Serve workers (0 = the workspace default, `CAGRA_THREADS` /
    /// available parallelism). Each worker searches one request at a
    /// time, so this bounds the requests searched at once.
    pub worker_threads: usize,
}

impl ServeConfig {
    /// Defaults around [`SearchParams`]: a 1024-deep admission queue
    /// and the workspace default worker count.
    pub fn new(params: SearchParams) -> Self {
        ServeConfig { max_batch: 64, queue_capacity: 1024, params, worker_threads: 0 }
    }

    /// Reject configurations the service cannot run.
    pub fn validate(&self) -> Result<(), ServeError> {
        // A zero-deep queue would shed every request as `Overloaded`.
        if self.queue_capacity == 0 {
            return Err(ServeError::BadConfig("queue_capacity must be >= 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_a_zero_queue_is_rejected() {
        let c = ServeConfig::new(SearchParams::for_k(10));
        assert!(c.validate().is_ok());
        let zero_queue = ServeConfig { queue_capacity: 0, ..c };
        assert_eq!(
            zero_queue.validate(),
            Err(ServeError::BadConfig("queue_capacity must be >= 1"))
        );
    }
}
