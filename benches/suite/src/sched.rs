//! Seeded schedules: open-loop Poisson arrivals and the churn writer's
//! operation list. `--seed` reaches the measured system only through
//! these and the data generators.

/// SplitMix64: small, seedable, and good enough for arrival gaps.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times in nanoseconds of a Poisson process of `rate` per second
/// over `seconds`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// One operation of the churn writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert row `pool` of the insert pool; the index must answer
    /// with external id `expect_id` (ids are sequential and the writer
    /// is the only mutator).
    Insert { pool: u32, expect_id: u32 },
    /// Delete an id that is live when the operation runs.
    Delete { id: u32 },
}

/// The writer's fixed schedule: `ops` operations, every tenth a delete
/// of a seeded pick among the ids live at that point, the rest inserts
/// in pool order. `n0` rows with ids `0..n0` are live at the start.
pub fn write_schedule(seed: u64, n0: u32, ops: usize) -> Vec<WriteOp> {
    let mut rng = Rng::new(seed ^ 0x5752_4954_4553);
    let mut live: Vec<u32> = (0..n0).collect();
    let mut next_id = n0;
    let mut pool = 0u32;
    (0..ops)
        .map(|i| {
            if i % 10 == 9 && !live.is_empty() {
                let id = live.swap_remove(rng.below(live.len()));
                WriteOp::Delete { id }
            } else {
                let op = WriteOp::Insert { pool, expect_id: next_id };
                live.push(next_id);
                pool += 1;
                next_id += 1;
                op
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = poisson_schedule(7, 400.0, 5.0);
        assert_eq!(a, poisson_schedule(7, 400.0, 5.0));
        assert_ne!(a, poisson_schedule(8, 400.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 5_000_000_000);
        // 2000 expected arrivals; five standard deviations is 224.
        assert!((a.len() as i64 - 2000).abs() < 224, "{} arrivals", a.len());
    }

    #[test]
    fn write_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = write_schedule(3, 100, 500);
        assert_eq!(a, write_schedule(3, 100, 500));
        assert_ne!(a, write_schedule(4, 100, 500));
    }

    #[test]
    fn write_schedule_is_nine_inserts_to_one_delete_of_a_live_id() {
        let ops = write_schedule(11, 50, 1000);
        let mut live: std::collections::BTreeSet<u32> = (0..50).collect();
        let (mut inserts, mut deletes) = (0u32, 0);
        for op in ops {
            match op {
                WriteOp::Insert { pool, expect_id } => {
                    assert_eq!(pool, inserts);
                    assert_eq!(expect_id, 50 + inserts);
                    assert!(live.insert(expect_id));
                    inserts += 1;
                }
                WriteOp::Delete { id } => {
                    assert!(live.remove(&id), "delete of a dead id {id}");
                    deletes += 1;
                }
            }
        }
        assert_eq!((inserts, deletes), (900, 100));
    }
}
