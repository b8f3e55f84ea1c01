//! Block statistics: every timing the suite reports is the median of
//! a statistic taken over consecutive fixed-size blocks of samples, so
//! a second-long slowdown of a shared host moves a few blocks and not
//! the reported number.

/// Samples per latency block: a block's p99 has ten samples beyond it.
pub const LATENCY_BLOCK: usize = 1000;

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice: a statistic with no samples is a harness
/// bug, not a value to report.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Percentile of a per-layer cell that may have caught no sample (a
/// delta that never grew large, a state a short run never reached):
/// 0, which is what an idle cell reports.
pub fn percentile_or_zero(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, p)
    }
}

/// Median with the two middle values averaged on even counts (block
/// statistics are few, so the interpolating form is the steadier one).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of the per-block values of a phase, or 0 when the phase
/// completed too little for one block — which fails the run, since an
/// end-to-end value must be positive.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The block statistic: cut `samples` into consecutive blocks of
/// `block`, take percentile `p` of each whole block, report the median
/// block. Fewer than two whole blocks are pooled into one.
pub fn block_percentile(samples: &[f64], block: usize, p: f64) -> f64 {
    if samples.len() < 2 * block {
        return percentile(samples, p);
    }
    let per_block: Vec<f64> = samples.chunks_exact(block).map(|c| percentile(c, p)).collect();
    median(&per_block)
}

/// Throughput of consecutive fixed-work blocks: `done` holds ascending
/// completion times in seconds, and each block of `block` completions
/// is timed from the completion before it to its last one. Too few
/// completions for one block are pooled into a single shorter one.
pub fn throughput_blocks(done: &[f64], block: usize) -> Vec<f64> {
    if let ([first, .., last], true) = (done, done.len() <= block) {
        return if last > first { vec![(done.len() - 1) as f64 / (last - first)] } else { vec![] };
    }
    let mut out = Vec::new();
    let mut at = 0;
    while at + block < done.len() {
        let dt = done[at + block] - done[at];
        if dt > 0.0 {
            out.push(block as f64 / dt);
        }
        at += block;
    }
    out
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), which is what the driver's acceptance
/// test uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let scaled = (i + 1) * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the
/// driver compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p99_of_a_thousand_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&samples, 99.0), 990.0);
        assert_eq!(percentile_sorted(&samples, 50.0), 500.0);
        assert_eq!(percentile_sorted(&samples, 100.0), 1000.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn block_statistic_is_the_median_of_whole_blocks() {
        // Three blocks whose p99 are 99, 1099 and 2099, then a partial
        // block of huge values that must be dropped.
        let mut samples = Vec::new();
        for b in 0..3 {
            samples.extend((1..=100).map(|i| f64::from(b * 1000 + i)));
        }
        samples.extend([1e9; 50]);
        assert_eq!(block_percentile(&samples, 100, 99.0), 1099.0);
        // One slow block does not move the median block.
        let mut noisy = samples.clone();
        for x in &mut noisy[..100] {
            *x *= 50.0;
        }
        assert_eq!(block_percentile(&noisy, 100, 99.0), 2099.0);
    }

    #[test]
    fn fewer_than_two_blocks_are_pooled() {
        let samples: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(block_percentile(&samples, 100, 99.0), percentile(&samples, 99.0));
        assert_eq!(block_percentile(&samples, 100, 99.0), 149.0);
    }

    #[test]
    fn even_median_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn throughput_blocks_time_fixed_work() {
        // 10 completions/s for two seconds, then 5/s.
        let mut done: Vec<f64> = (0..=20).map(|i| f64::from(i) * 0.1).collect();
        done.extend((1..=10).map(|i| 2.0 + f64::from(i) * 0.2));
        let blocks = throughput_blocks(&done, 10);
        assert_eq!(blocks.len(), 3);
        assert!((blocks[0] - 10.0).abs() < 1e-9 && (blocks[2] - 5.0).abs() < 1e-9);
        // Fewer completions than a block: one pooled block.
        assert_eq!(throughput_blocks(&done[..5], 10), vec![10.0]);
        assert!(throughput_blocks(&done[..1], 10).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
