//! Serving policy knobs.

use crate::error::ServeError;
use cagra::SearchParams;
use std::time::Duration;

/// Batching + admission policy for a [`crate::Service`].
///
/// The batching rule is *dispatch immediately when idle, batch when
/// loaded*: a request that arrives while a serve worker is idle is
/// claimed without artificial delay unless [`ServeConfig::max_wait`]
/// opens a coalescing window, and requests that accumulate while every
/// worker is busy are drained together as one batch (load builds
/// batches by itself). The window is deadline-aware — it is anchored at
/// the *oldest* queued request's arrival time, so time a request
/// already spent waiting behind busy workers counts against its
/// window.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Largest batch one drain may carry (>= 1).
    pub max_batch: usize,
    /// Coalescing window measured from the oldest queued request's
    /// arrival. `Duration::ZERO` (the default) drains the moment an
    /// idle worker sees work — minimum idle latency; a positive window
    /// trades added latency for larger batches at moderate load. The
    /// drain always happens early once `max_batch` is reached.
    pub max_wait: Duration,
    /// Admission-control shedding threshold (>= 1): a submit that finds this
    /// many requests already queued is rejected with
    /// [`ServeError::Overloaded`] instead of growing the queue, so
    /// tail latency stays bounded under overload.
    pub queue_capacity: usize,
    /// Search parameters shared by every request this service answers
    /// (`k` stays per-request). The seed is used as-is for every
    /// request, so a request's result does not depend on its position
    /// within whatever batch it happened to join.
    pub params: SearchParams,
    /// Serve workers (0 = the workspace default, `CAGRA_THREADS` /
    /// available parallelism). Each worker searches one request at a
    /// time, so this bounds the requests searched at once across
    /// batches: a batch is shared by whichever workers are free, and a
    /// new batch can start while the tail of the last one still runs.
    pub worker_threads: usize,
}

impl ServeConfig {
    /// Defaults around [`SearchParams`]: batches up to 64, immediate
    /// dispatch when idle, a 1024-deep admission queue.
    pub fn new(params: SearchParams) -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
            queue_capacity: 1024,
            params,
            worker_threads: 0,
        }
    }

    /// Reject configurations the service cannot run.
    pub fn validate(&self) -> Result<(), ServeError> {
        match (self.max_batch, self.queue_capacity) {
            (0, _) => Err(ServeError::BadConfig("max_batch must be >= 1")),
            // A zero-deep queue would shed every request as `Overloaded`.
            (_, 0) => Err(ServeError::BadConfig("queue_capacity must be >= 1")),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_zero_batch_is_rejected() {
        let c = ServeConfig::new(SearchParams::for_k(10));
        assert!(c.validate().is_ok());
        let zero_batch = ServeConfig { max_batch: 0, ..c };
        assert_eq!(zero_batch.validate(), Err(ServeError::BadConfig("max_batch must be >= 1")));
        let zero_queue = ServeConfig { queue_capacity: 0, ..c };
        assert_eq!(
            zero_queue.validate(),
            Err(ServeError::BadConfig("queue_capacity must be >= 1"))
        );
    }
}
