//! Sample summaries and percentiles.

use std::fmt;

/// Five-number-plus summary of a sample.
///
/// Quartiles use linear interpolation between order statistics (the same
/// convention as numpy's default), which is what the paper's box-whisker
/// fault plots (Fig. 7) need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains NaN.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of empty sample");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let std = if n >= 2 {
            let ss: f64 = sorted.iter().map(|x| (x - mean) * (x - mean)).sum();
            (ss / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std,
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            max: sorted[n - 1],
        }
    }

    /// Max-to-min ratio — the paper quotes "nearly 3x between the fastest
    /// and slowest execution" style spreads.
    pub fn spread(&self) -> f64 {
        self.max / self.min
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={:.4} q1={:.4} med={:.4} q3={:.4} max={:.4}",
            self.n, self.mean, self.std, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// The `p`-th percentile (0–100) of a sample, with linear interpolation.
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN, or `p` is outside `[0, 100]`.
///
/// ```rust
/// use pagesim_stats::percentile;
/// assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.5);
/// assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, p)
}

pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.138089935299395).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
    }

    #[test]
    fn single_element_summary() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 3.0);
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
        assert!((percentile(&xs, 75.0) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0];
        let mut last = f64::NEG_INFINITY;
        for p in 0..=100 {
            let v = percentile(&xs, p as f64);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn spread_is_max_over_min() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 5.0);
    }
}
