//! `cfg(loom)` concurrency model of the admission FIFO's submit/claim
//! handshake.
//!
//! The protocol under test: producers call [`Batcher::submit`]
//! (bounded admission, Condvar notify) while two serve workers loop
//! [`Batcher::claim`] until close-and-empty. The properties that must
//! hold under *every* interleaving:
//!
//! 1. **Exactly-once delivery** — every admitted request is claimed by
//!    exactly one worker exactly once (no loss, no duplication), even
//!    when close races with in-flight submits.
//! 2. **FIFO per producer** — the requests one worker claims from one
//!    producer come in that producer's submit order.
//! 3. **Bounded admission** — the unclaimed count never exceeds
//!    `capacity` at any submit, and a shed reports exactly `capacity`.
//! 4. **Clean exit on close** — a worker's `claim` returns `None` only
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
use std::time::Instant;

const CAPACITY: usize = 4;
const PER_PRODUCER: u32 = 8;

fn job(tag: u32) -> Job {
    Job { query: vec![tag as f32], k: 1, enqueued: Instant::now() }
}

/// Submit every tag of producer `p` in order, retrying sheds; returns
/// the admitted tags.
fn produce(b: &Batcher, p: u32) -> Vec<u32> {
    let mut admitted = Vec::new();
    for tag in p * PER_PRODUCER..(p + 1) * PER_PRODUCER {
        loop {
            match b.submit(job(tag)) {
                Ok(_rx) => {
                    assert!(b.depth() <= CAPACITY, "unclaimed requests exceed the capacity");
                    admitted.push(tag);
                    break;
                }
                Err(ServeError::Overloaded { depth, capacity }) => {
                    assert_eq!((depth, capacity), (CAPACITY, CAPACITY), "shed off the threshold");
                    thread::yield_now();
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    admitted
}

/// Exactly-once delivery, per-producer order and bounded admission
/// with three producers racing two workers.
#[test]
fn submit_claim_handshake_delivers_exactly_once_in_order() {
    loom::model(|| {
        let b = Arc::new(Batcher::new(CAPACITY));
        let closing = Arc::new(AtomicBool::new(false));

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                let closing = Arc::clone(&closing);
                thread::spawn(move || {
                    let mut claimed = Vec::new();
                    while let Some(p) = b.claim() {
                        claimed.push(p.job.query[0] as u32);
                    }
                    assert!(closing.load(Ordering::SeqCst), "claim returned None before close");
                    claimed
                })
            })
            .collect();

        // Two spawned producers plus this thread as the third: with the
        // two workers that keeps the model at loom's five threads.
        let producers: Vec<_> = (1..3)
            .map(|p| {
                let b = Arc::clone(&b);
                thread::spawn(move || produce(&b, p))
            })
            .collect();
        let mut admitted = produce(&b, 0);
        for p in producers {
            admitted.extend(p.join().unwrap());
        }
        closing.store(true, Ordering::SeqCst);
        b.close();
        let claims: Vec<Vec<u32>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

        for claimed in &claims {
            for pair in claimed.windows(2) {
                let same_producer = pair[0] / PER_PRODUCER == pair[1] / PER_PRODUCER;
                assert!(!same_producer || pair[0] < pair[1], "out of order: {pair:?}");
            }
        }
        let mut seen: Vec<u32> = claims.concat();
        admitted.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, admitted, "every admitted request must be claimed exactly once");
        assert_eq!(b.depth(), 0, "close-and-drain must leave the queue empty");
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
                    while b.claim().is_some() {
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
