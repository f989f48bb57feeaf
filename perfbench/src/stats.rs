//! Order statistics over timing samples.

/// Percentiles tried, highest first, when picking a tail percentile.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` when
/// there are no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Returns the value and how many samples
/// lie strictly beyond its rank.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((v[rank - 1], n - rank))
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`;
/// `None` when the sample is too small for any.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(samples, p)?;
        (beyond >= TAIL_MIN_BEYOND).then_some((p, value))
    })
}

/// `aggregate(block)` for each of `blocks` contiguous, near-equal blocks
/// of `samples`; one block per sample when there are fewer samples.
#[must_use]
pub fn block_aggregates<T>(
    samples: &[T],
    blocks: usize,
    aggregate: impl Fn(&[T]) -> f64,
) -> Vec<f64> {
    let n = samples.len();
    let b = blocks.min(n);
    (0..b)
        .map(|i| aggregate(&samples[i * n / b..(i + 1) * n / b]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 90.0), Some((90.0, 10)));
        assert_eq!(nearest_rank(&s, 99.0), Some((99.0, 1)));
        assert_eq!(nearest_rank(&s, 0.0), Some((1.0, 99)));
        assert_eq!(nearest_rank(&s, 100.0), Some((100.0, 0)));
    }

    #[test]
    fn block_aggregates_split_into_contiguous_blocks() {
        let mean = |b: &[f64]| b.iter().sum::<f64>() / b.len() as f64;
        let s = [1.0, 3.0, 10.0, 20.0, 5.0, 7.0];
        assert_eq!(block_aggregates(&s, 3, mean), [2.0, 15.0, 6.0]);
        assert_eq!(block_aggregates(&s, 1, mean), [46.0 / 6.0]);
        // More blocks than samples: one block per sample.
        assert_eq!(block_aggregates(&s, 10, mean), s);
        // Uneven split: 7 samples in 2 blocks of 3 and 4.
        let s = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(block_aggregates(&s, 2, mean), [1.0, 9.0]);
        assert!(block_aggregates(&[] as &[f64], 4, mean).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        // 40 samples support p75 (10 beyond); 39 support nothing.
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s), Some((75.0, 30.0)));
        assert_eq!(tail(&s[..39]), None);
        assert_eq!(tail(&[]), None);
    }
}
