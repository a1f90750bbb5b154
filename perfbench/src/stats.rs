//! Order statistics used by every reported timing.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, so a tail figure
//! is never read off a handful of outliers.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n` samples:
/// the smallest rank whose share of the sample reaches `q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "a percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// Sorts a copy ascending (NaN-free input) and returns it.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    nearest_rank(&sorted(values), 0.5)
}

/// Median of `(value, weight)` pairs: the smallest value whose
/// cumulative weight reaches half the total.
pub fn weighted_median(mut pairs: Vec<(f64, f64)>) -> f64 {
    assert!(!pairs.is_empty(), "a median of no samples");
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let mut acc = 0.0;
    for &(value, weight) in &pairs {
        acc += weight;
        if acc >= total / 2.0 {
            return value;
        }
    }
    pairs[pairs.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.95), 95.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.001), 1.0);
        // Odd count: the true middle; even count: the lower middle.
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 200 samples: p95 is rank 190, ten beyond — supported.
        assert_eq!(beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        // 199 samples: rank ceil(189.05) = 190, nine beyond — not.
        assert_eq!(beyond(199, 0.95), 9);
        assert!(!supports(199, 0.95));
        // p99 needs a thousand.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // The median of 21 has ten beyond; of 20, also ten (rank 10).
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn weighted_median_follows_the_weights() {
        assert_eq!(
            weighted_median(vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]),
            2.0
        );
        assert_eq!(weighted_median(vec![(1.0, 1.0), (9.0, 5.0)]), 9.0);
        assert_eq!(weighted_median(vec![(9.0, 1.0), (1.0, 5.0)]), 1.0);
    }
}
