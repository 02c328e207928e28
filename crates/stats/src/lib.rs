//! # pagesim-stats
//!
//! Statistics used by the `pagesim` experiment harness to reproduce the
//! quantitative claims in the paper:
//!
//! * [`Summary`] — mean/std/min/max/quartiles of a sample (Fig. 1, 4, 6, 7,
//!   9, 10 report means and box-whisker fault distributions).
//! * [`percentile`] / [`LatencyHistogram`] — tail-latency CDFs
//!   (Fig. 3, 8, 12 report p50…p99.99 request latencies).
//! * [`linear_regression`] — OLS slope/intercept/r² (the paper reports
//!   r² > 0.98 for the faults↔runtime relationship on TPC-H, Fig. 2/5).
//! * [`welch_t_test`] — two-sample unequal-variance t-test (the paper's
//!   p < 0.01 / p > 0.05 significance claims in §V-B and §V-C).
//!
//! Everything is implemented from scratch on `f64` slices; no external
//! statistics crates are used.
//!
//! ```rust
//! use pagesim_stats::Summary;
//! let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! assert_eq!(s.min, 1.0);
//! assert_eq!(s.max, 4.0);
//! ```

mod histogram;
mod moments;
mod regression;
mod summary;
mod ttest;

pub use histogram::LatencyHistogram;
pub use moments::Moments;
pub use regression::{linear_regression, Regression};
pub use summary::{percentile, Summary};
pub use ttest::{welch_t_test, TTest};

/// Normalizes each value in `xs` by `base`.
///
/// Used pervasively by the figure harnesses ("normalized to Clock-LRU",
/// "normalized to default MG-LRU").
///
/// # Panics
///
/// Panics if `base` is zero or not finite.
pub fn normalize(xs: &[f64], base: f64) -> Vec<f64> {
    assert!(
        base.is_finite() && base != 0.0,
        "invalid normalization base"
    );
    xs.iter().map(|x| x / base).collect()
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_divides() {
        assert_eq!(normalize(&[2.0, 4.0], 2.0), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "invalid normalization base")]
    fn normalize_rejects_zero_base() {
        normalize(&[1.0], 0.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geometric_mean(&[2.0, 0.5]);
        assert!((g - 1.0).abs() < 1e-12);
    }
}
