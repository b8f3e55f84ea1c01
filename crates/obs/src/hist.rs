//! Log-bucketed histogram with percentile readout.
//!
//! Values are binned log-linearly: 4 sub-buckets per power of two
//! (values 0..8 are exact), giving <= 12.5% relative error on any
//! reported quantile while keeping `record` to four relaxed atomic ops
//! (bucket, count and sum adds plus a `fetch_max`). `sum` and `max`
//! are tracked exactly.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 2;
/// Sub-buckets per power of two.
const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count: identity range + (exponent, sub) pairs. The
/// largest index, for `u64::MAX`, is `(63 - 1) * 4 + 3 = 251`.
const BUCKETS: usize = 252;

/// Bucket index for `v` (monotone in `v`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUBS {
        // 0..8 map to themselves — small counts are exact.
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
        let sub = (v >> (exp - SUB_BITS as u64)) & (SUBS - 1);
        ((exp - 1) * SUBS + sub) as usize
    }
}

/// Largest value falling into bucket `i` (the reported quantile value).
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * SUBS {
        i
    } else {
        let exp = i / SUBS + 1;
        let sub = i % SUBS;
        let width = 1u64 << (exp - SUB_BITS as u64);
        // Lower bound of the bucket plus its width, minus one.
        (1u64 << exp) + sub * width + (width - 1)
    }
}

/// A concurrent log-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (const — usable in statics).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Never report past the exact max.
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Forget all samples.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut samples: Vec<u64> = (0..200).collect();
        for shift in 3..64 {
            for off in [0u64, 1, 2, 3] {
                samples.push((1u64 << shift).saturating_add(off << (shift - 2)));
                samples.push((1u64 << shift).saturating_sub(1));
            }
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        let mut last = 0usize;
        for &v in &samples {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "v={v} i={i}");
            assert!(i >= last, "v={v}: index went backwards");
            last = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn upper_bound_contains_its_bucket() {
        for v in [8u64, 9, 15, 16, 100, 1000, 123_456, u64::MAX / 2] {
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "v={v} upper={upper}");
            // Relative error bound of the log-linear scheme.
            assert!((upper - v) as f64 <= 0.125 * v as f64 + 1.0, "v={v} upper={upper}");
        }
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        assert!((450..=600).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((900..=1000).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) == 1000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
