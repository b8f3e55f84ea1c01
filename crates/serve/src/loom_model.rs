//! `cfg(loom)` concurrency model of the batcher's submit/claim
//! handshake.
//!
//! The protocol under test: many producers call [`Batcher::submit`]
//! (bounded admission, Condvar notify) while two serve workers loop
//! [`Batcher::claim`] until close-and-drained. The properties that
//! must hold under *every* interleaving:
//!
//! 1. **Exactly-once delivery** — every admitted request is claimed by
//!    exactly one worker exactly once (no loss, no duplication), even
//!    when close races with in-flight submits.
//! 2. **Honest batch sizes** — every claim's `batch_size` is at most
//!    `max_batch` and equals the number of requests drained with it.
//! 3. **Bounded depth** — the queue never holds more than `capacity`
//!    entries, so admission control is airtight, not best-effort.
//! 4. **Clean termination** — a worker's `claim` returns `None` only
//!    after `close()` and once nothing is left to claim, and every
//!    submit observes either admission or `ShuttingDown` /
//!    `Overloaded` — never a hang.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p serve --lib loom`.
//! Under the offline `shims/loom` stand-in this is a bounded stress
//! run over the *real* `Batcher` (the shim's `loom::sync` is
//! `std::sync`, so the model exercises the production Mutex+Condvar
//! path directly); under the genuine loom crate the same source
//! compiles against the instrumented scheduler.

use crate::batcher::{Batcher, Job};
use crate::error::ServeError;
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn job(tag: u32) -> Job {
    Job { query: vec![tag as f32], k: 1, enqueued: Instant::now() }
}

/// Submit every tag in `tags`, retrying sheds; returns the admitted
/// tags.
fn produce(b: &Batcher, tags: std::ops::Range<u32>) -> Vec<u32> {
    let mut admitted = Vec::new();
    for tag in tags {
        // Under overload a submit may be rejected; the admission
        // decision itself must be typed and depth-bounded.
        loop {
            match b.submit(job(tag)) {
                Ok(_rx) => {
                    admitted.push(tag);
                    break;
                }
                Err(ServeError::Overloaded { depth, capacity }) => {
                    assert!(depth >= capacity, "shed below threshold");
                    thread::yield_now();
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    admitted
}

/// Exactly-once delivery, honest batch sizes and bounded depth with
/// three producers racing two workers.
#[test]
fn submit_claim_handshake_delivers_exactly_once() {
    loom::model(|| {
        const PRODUCERS: usize = 3;
        const WORKERS: usize = 2;
        const PER_PRODUCER: u32 = 8;
        const CAPACITY: usize = 4;
        const MAX_BATCH: usize = 3;
        let b = Arc::new(Batcher::new(CAPACITY));
        let closing = Arc::new(AtomicBool::new(false));

        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let b = Arc::clone(&b);
                let closing = Arc::clone(&closing);
                thread::spawn(move || {
                    // (tag, batch_size, drain instant) per claim.
                    let mut claimed = Vec::new();
                    while let Some(c) = b.claim(MAX_BATCH, Duration::ZERO) {
                        assert!(c.batch_size <= MAX_BATCH, "batch exceeded max_batch");
                        claimed.push((c.job.query[0] as u32, c.batch_size, c.dispatched));
                    }
                    assert!(closing.load(Ordering::SeqCst), "claim returned None before close");
                    claimed
                })
            })
            .collect();

        // Two spawned producers plus this thread as the third: with the
        // two workers that keeps the model at loom's five threads.
        let producers: Vec<_> = (1..PRODUCERS as u32)
            .map(|p| {
                let b = Arc::clone(&b);
                thread::spawn(move || produce(&b, p * PER_PRODUCER..(p + 1) * PER_PRODUCER))
            })
            .collect();
        let mut admitted = produce(&b, 0..PER_PRODUCER);
        for p in producers {
            admitted.extend(p.join().unwrap());
        }
        closing.store(true, Ordering::SeqCst);
        b.close();
        let claims: Vec<_> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();

        let mut seen: Vec<u32> = claims.iter().map(|&(tag, _, _)| tag).collect();
        admitted.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, admitted, "every admitted request must be claimed exactly once");
        assert_eq!(b.depth(), 0, "close-and-drain must leave the queue empty");

        // Drains are serialised by the batcher lock, so each one has
        // its own instant: group the claims by it.
        let mut drains: BTreeMap<Instant, (usize, usize)> = BTreeMap::new();
        for &(_, batch_size, dispatched) in &claims {
            let (size, count) = drains.entry(dispatched).or_insert((batch_size, 0));
            assert_eq!(*size, batch_size, "one drain reported two batch sizes");
            *count += 1;
        }
        for (size, count) in drains.values() {
            assert_eq!(size, count, "batch_size must equal the requests drained with it");
        }
    });
}

/// Close racing a submit while two workers wait in `claim`: the submit
/// either lands (and is claimed by one of them) or is refused as
/// ShuttingDown — never lost, never hung — and both workers exit.
#[test]
fn close_submit_race_never_loses_an_admitted_request() {
    loom::model(|| {
        let b = Arc::new(Batcher::new(8));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    let mut claimed = 0usize;
                    while b.claim(8, Duration::ZERO).is_some() {
                        claimed += 1;
                    }
                    claimed
                })
            })
            .collect();
        let submitter = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.submit(job(7)).map(|_rx| ()))
        };
        b.close();
        let outcome = submitter.join().unwrap();
        let claimed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        match outcome {
            Ok(()) => assert_eq!(claimed, 1, "admitted request vanished"),
            Err(ServeError::ShuttingDown) => assert_eq!(claimed, 0, "refused request was queued"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}
