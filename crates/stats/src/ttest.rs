//! Welch's unequal-variance t-test.
//!
//! The paper reports statistical significance of mean-runtime differences
//! between policies ("statistically significant in all cases (p < 0.01)" in
//! §V-C; "no statistically significant differences (p > 0.05)" in §V-B).
//! We implement the same test from scratch: Welch's t statistic with the
//! Welch–Satterthwaite degrees of freedom, and a two-sided p-value computed
//! through the regularized incomplete beta function.

/// Result of a two-sample Welch t-test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TTest {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Runs Welch's t-test on two samples.
///
/// # Panics
///
/// Panics if either sample has fewer than 2 points.
///
/// ```rust
/// use pagesim_stats::welch_t_test;
/// let a = [10.0, 11.0, 9.5, 10.5, 10.2, 9.8];
/// let b = [20.0, 21.0, 19.5, 20.5, 20.2, 19.8];
/// let r = welch_t_test(&a, &b);
/// assert!(r.p_value < 0.001); // clearly different means
/// ```
pub fn welch_t_test(a: &[f64], b: &[f64]) -> TTest {
    assert!(
        a.len() >= 2 && b.len() >= 2,
        "each sample needs >= 2 points"
    );
    let (ma, va, na) = mean_var(a);
    let (mb, vb, nb) = mean_var(b);
    let sa = va / na;
    let sb = vb / nb;
    let se2 = sa + sb;
    if se2 == 0.0 {
        // Identical constant samples: no evidence of difference.
        let equal = (ma - mb).abs() < f64::EPSILON;
        return TTest {
            t: if equal { 0.0 } else { f64::INFINITY },
            df: na + nb - 2.0,
            p_value: if equal { 1.0 } else { 0.0 },
        };
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / (sa * sa / (na - 1.0) + sb * sb / (nb - 1.0));
    let p_value = student_t_two_sided_p(t.abs(), df);
    TTest { t, df, p_value }
}

fn mean_var(xs: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0);
    (m, v, n)
}

/// Two-sided p-value for |t| with `df` degrees of freedom:
/// `P(|T| >= t) = I_{df/(df+t²)}(df/2, 1/2)`.
fn student_t_two_sided_p(t_abs: f64, df: f64) -> f64 {
    let x = df / (df + t_abs * t_abs);
    incomplete_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Regularized incomplete beta function `I_x(a, b)` via the Lentz continued
/// fraction (Numerical Recipes §6.4).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // even step
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // odd step
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for g in G {
        y += 1.0;
        ser += g / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        for (n, fact) in [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (5.0, 24.0),
            (7.0, 720.0),
        ] {
            let err: f64 = (ln_gamma(n) - f64::ln(fact)).abs();
            assert!(err < 1e-10, "ln_gamma({n})");
        }
    }

    #[test]
    fn incomplete_beta_known_values() {
        // I_x(1, 1) = x (uniform CDF)
        for x in [0.1, 0.5, 0.9] {
            assert!((incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
        // I_x(2, 2) = x²(3 - 2x)
        let x: f64 = 0.3;
        let expect = x * x * (3.0 - 2.0 * x);
        assert!((incomplete_beta(2.0, 2.0, x) - expect).abs() < 1e-12);
    }

    #[test]
    fn t_distribution_reference_points() {
        // For df = 10, t = 2.228 gives two-sided p ≈ 0.05 (standard table).
        let p = student_t_two_sided_p(2.228, 10.0);
        assert!((p - 0.05).abs() < 0.001, "p = {p}");
        // df = 1 (Cauchy): t = 1 gives p = 0.5.
        let p = student_t_two_sided_p(1.0, 1.0);
        assert!((p - 0.5).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn identical_samples_have_p_near_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = welch_t_test(&a, &a);
        assert!(r.t.abs() < 1e-12);
        assert!(r.p_value > 0.999);
    }

    #[test]
    fn clearly_different_means_are_significant() {
        let a: Vec<f64> = (0..20).map(|i| 10.0 + (i % 3) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..20).map(|i| 12.0 + (i % 3) as f64 * 0.1).collect();
        let r = welch_t_test(&a, &b);
        assert!(r.p_value < 1e-6);
        assert!(r.t < 0.0); // a < b
    }

    #[test]
    fn overlapping_noisy_samples_are_not_significant() {
        let a = [10.0, 12.0, 9.0, 11.0, 10.5, 9.5];
        let b = [10.2, 11.8, 9.1, 11.2, 10.4, 9.6];
        let r = welch_t_test(&a, &b);
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn constant_identical_samples() {
        let r = welch_t_test(&[5.0, 5.0, 5.0], &[5.0, 5.0, 5.0]);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn constant_different_samples() {
        let r = welch_t_test(&[5.0, 5.0, 5.0], &[6.0, 6.0, 6.0]);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn welch_df_between_min_and_sum() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 10.0, 3.0, 7.0, 5.0, 2.0, 8.0];
        let r = welch_t_test(&a, &b);
        assert!(r.df >= 4.0 && r.df <= 10.0, "df = {}", r.df);
    }
}
