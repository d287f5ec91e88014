//! Order statistics behind every reported number: the percentile rule,
//! and the median / quartile summary of per-slice values.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. `p` has at
/// most two decimals, so an exact `p·n/100` is a multiple of 1e-4; the
/// 1e-6 keeps binary rounding (99.9 · 1000 / 100 = 999.0000000000001)
/// from pushing a whole number up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Value at percentile `p` of an ascending slice (nearest rank).
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Does a sample of `n` have at least ten values beyond percentile `p`?
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The percentile rule: the highest of [`PERCENTILES`] with at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|&p| supports(n, p))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so spreads printed here match the driver's.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Median, interquartile range and count of a metric's per-slice values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        match values {
            [] => Self {
                median: 0.0,
                iqr: 0.0,
                n: 0,
            },
            [one] => Self {
                median: *one,
                iqr: 0.0,
                n: 1,
            },
            _ => {
                let [q1, q2, q3] = quartiles(values);
                Self {
                    median: q2,
                    iqr: q3 - q1,
                    n: values.len(),
                }
            }
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        // 20 samples: rank(50) = 10, ten beyond.
        assert_eq!(highest_supported(20), Some(50.0));
        // p99 of 1000: rank 990, ten beyond; of 999: rank 990, nine.
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        assert!(supports(100_000, 99.99) && !supports(99_999, 99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&v, 99.9), 999);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn summary_median_iqr_spread() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.n), (6.5, 12));
        // quantiles([1..12], n=4) == [3.25, 6.5, 9.75]
        assert_eq!(s.iqr, 6.5);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[4.0]).median, 4.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
