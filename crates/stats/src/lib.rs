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
mod regression;
mod summary;
mod ttest;

pub use histogram::LatencyHistogram;
pub use regression::{linear_regression, Regression};
pub use summary::{percentile, Summary};
pub use ttest::{welch_t_test, TTest};
