//! Property tests for the statistics toolkit.

use proptest::prelude::*;

use pagesim_stats::{linear_regression, percentile, welch_t_test, LatencyHistogram, Summary};

fn naive_percentile(xs: &[f64], p: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

proptest! {
    /// `percentile` matches an independent naive implementation.
    #[test]
    fn percentile_matches_naive(
        xs in prop::collection::vec(-1e6f64..1e6, 2..200),
        p in 0.0f64..100.0,
    ) {
        let a = percentile(&xs, p);
        let b = naive_percentile(&xs, p);
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()));
    }

    /// Summary invariants hold for any sample.
    #[test]
    fn summary_orderings(xs in prop::collection::vec(-1e9f64..1e9, 1..300)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
    }

    /// The histogram's percentile error is bounded by its bucket geometry
    /// for any sample set.
    #[test]
    fn histogram_error_is_bounded(samples in prop::collection::vec(1u64..1_000_000_000, 10..500)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let approx = h.value_at_percentile(p) as f64;
            let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            let exact = sorted[idx] as f64;
            // 1/64 bucket resolution plus one-rank slack.
            let slack = exact * 0.04
                + (sorted[(idx + 1).min(sorted.len() - 1)] - sorted[idx.saturating_sub(1)]) as f64;
            prop_assert!(
                (approx - exact).abs() <= slack + 1.0,
                "p{p}: approx {approx} exact {exact}"
            );
        }
        prop_assert_eq!(h.count() as usize, samples.len());
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    /// Welch's t-test is symmetric and produces a valid p-value.
    #[test]
    fn welch_is_symmetric(
        a in prop::collection::vec(-100f64..100.0, 2..40),
        b in prop::collection::vec(-100f64..100.0, 2..40),
    ) {
        let ab = welch_t_test(&a, &b);
        let ba = welch_t_test(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        prop_assert!((ab.t + ba.t).abs() < 1e-9);
    }

    /// Shifting one sample away always shrinks the p-value (more evidence
    /// of difference).
    #[test]
    fn welch_p_shrinks_with_separation(base in prop::collection::vec(0f64..10.0, 5..30)) {
        prop_assume!(Summary::of(&base).std > 1e-6);
        let near: Vec<f64> = base.iter().map(|x| x + 0.1).collect();
        let far: Vec<f64> = base.iter().map(|x| x + 100.0).collect();
        let p_near = welch_t_test(&base, &near).p_value;
        let p_far = welch_t_test(&base, &far).p_value;
        prop_assert!(p_far <= p_near + 1e-12);
        prop_assert!(p_far < 1e-6);
    }

    /// Regression recovers exact affine relationships and r² stays in
    /// [0, 1] on noisy ones.
    #[test]
    fn regression_recovers_affine(
        xs in prop::collection::vec(-1000f64..1000.0, 3..100),
        slope in -100f64..100.0,
        intercept in -100f64..100.0,
    ) {
        let spread = Summary::of(&xs).std;
        prop_assume!(spread > 1e-3);
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let r = linear_regression(&xs, &ys);
        prop_assert!((r.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()) + 1e-6);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.r_squared));
    }
}

// ---------------------------------------------------------------------------
// Mergeable-accumulator laws. The sweep executor computes per-trial
// metrics on arbitrary workers and folds them in canonical order; these
// properties are what make the fold's result independent of how trials
// were partitioned across workers.

fn hist_of(xs: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &x in xs {
        h.record(x);
    }
    h
}

fn moments_of(xs: &[f64]) -> pagesim_stats::Moments {
    let mut m = pagesim_stats::Moments::new();
    for &x in xs {
        m.add(x);
    }
    m
}

proptest! {
    /// Histogram merge is commutative and associative *exactly*: the
    /// state is integer counters, so any merge tree over any partition
    /// of the samples yields bit-identical parts.
    #[test]
    fn histogram_merge_commutes_and_associates(
        a in prop::collection::vec(0u64..10_000_000_000, 0..200),
        b in prop::collection::vec(0u64..10_000_000_000, 0..200),
        c in prop::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab.to_parts(), ba.to_parts());

        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.to_parts(), a_bc.to_parts());
    }

    /// Merging any split of a sample equals recording it in one pass.
    #[test]
    fn histogram_merge_matches_any_partition(
        xs in prop::collection::vec(0u64..10_000_000_000, 0..300),
        cut_permille in 0u64..=1000,
    ) {
        let cut = (xs.len() as u64 * cut_permille / 1000) as usize;
        let mut merged = hist_of(&xs[..cut]);
        merged.merge(&hist_of(&xs[cut..]));
        prop_assert_eq!(merged.to_parts(), hist_of(&xs).to_parts());
    }

    /// Moments merge is commutative bit-exactly (the Chan update only
    /// uses symmetric sums and squared differences).
    #[test]
    fn moments_merge_commutes(
        a in prop::collection::vec(-1e9f64..1e9, 0..100),
        b in prop::collection::vec(-1e9f64..1e9, 0..100),
    ) {
        let (ma, mb) = (moments_of(&a), moments_of(&b));
        let ab = ma.merged(&mb);
        let ba = mb.merged(&ma);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.mean().to_bits(), ba.mean().to_bits());
        prop_assert_eq!(ab.variance().to_bits(), ba.variance().to_bits());
        prop_assert_eq!(ab.min().to_bits(), ba.min().to_bits());
        prop_assert_eq!(ab.max().to_bits(), ba.max().to_bits());
    }

    /// `to_parts` → `from_parts` reconstructs any reachable histogram
    /// exactly: same counts, same summary statistics, same percentiles.
    #[test]
    fn histogram_parts_roundtrip(
        xs in prop::collection::vec(0u64..10_000_000_000, 0..300),
    ) {
        let h = hist_of(&xs);
        let (sparse, sum, min, max) = h.to_parts();
        let back = LatencyHistogram::from_parts(&sparse, sum, min, max).unwrap();
        prop_assert_eq!(back.count(), h.count());
        prop_assert_eq!(back.min(), h.min());
        prop_assert_eq!(back.max(), h.max());
        prop_assert_eq!(back.mean().to_bits(), h.mean().to_bits());
        prop_assert_eq!(back.to_parts(), h.to_parts());
        if h.count() > 0 {
            for p in [0.0, 50.0, 99.0, 100.0] {
                prop_assert_eq!(back.value_at_percentile(p), h.value_at_percentile(p));
            }
        }
    }

    /// `to_parts` → `from_parts` reconstructs any reachable accumulator
    /// bit-for-bit, and `from_parts` accepts every reachable state.
    #[test]
    fn moments_parts_roundtrip(
        xs in prop::collection::vec(-1e9f64..1e9, 0..200),
    ) {
        let m = moments_of(&xs);
        let (n, mean, m2, min, max) = m.to_parts();
        let back = pagesim_stats::Moments::from_parts(n, mean, m2, min, max)
            .expect("reachable state must be accepted");
        prop_assert_eq!(back.count(), m.count());
        prop_assert_eq!(back.mean().to_bits(), m.mean().to_bits());
        prop_assert_eq!(back.variance().to_bits(), m.variance().to_bits());
        prop_assert_eq!(back.min().to_bits(), m.min().to_bits());
        prop_assert_eq!(back.max().to_bits(), m.max().to_bits());
    }

    /// Any partition of a sample merges to the single-pass statistics up
    /// to floating-point rounding, and min/max/count exactly.
    #[test]
    fn moments_merge_matches_any_partition(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        cut_permille in 0u64..=1000,
        cut2_permille in 0u64..=1000,
    ) {
        let cut = (xs.len() as u64 * cut_permille / 1000) as usize;
        let rest = xs.len() - cut;
        let cut2 = cut + (rest as u64 * cut2_permille / 1000) as usize;
        let merged = moments_of(&xs[..cut])
            .merged(&moments_of(&xs[cut..cut2]))
            .merged(&moments_of(&xs[cut2..]));
        let single = moments_of(&xs);
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.min().to_bits(), single.min().to_bits());
        prop_assert_eq!(merged.max().to_bits(), single.max().to_bits());
        let scale = 1.0 + single.mean().abs();
        prop_assert!((merged.mean() - single.mean()).abs() <= 1e-9 * scale);
        let vscale = 1.0 + single.variance().abs();
        prop_assert!((merged.variance() - single.variance()).abs() <= 1e-6 * vscale);
    }
}

// ---------------------------------------------------------------------------
// Percentile edge cases that random sampling rarely pins down exactly.

#[test]
fn histogram_single_bucket_percentiles_are_exact() {
    // Every sample in one bucket: min == max clamps the representative
    // value, so every percentile is the recorded value exactly.
    let mut h = LatencyHistogram::new();
    for _ in 0..1000 {
        h.record(123_457);
    }
    for p in [0.0, 0.1, 50.0, 99.99, 100.0] {
        assert_eq!(h.value_at_percentile(p), 123_457, "p{p}");
    }
}

#[test]
#[should_panic(expected = "empty")]
fn histogram_percentile_of_empty_rejected() {
    LatencyHistogram::from_parts(&[], 0, 0, 0)
        .unwrap()
        .value_at_percentile(50.0);
}

#[test]
fn percentile_of_singleton_is_the_element() {
    for p in [0.0, 37.5, 100.0] {
        assert_eq!(percentile(&[42.0], p), 42.0, "p{p}");
    }
}

// ---------------------------------------------------------------------------
// Sized histograms against a fixed-size reference. `LatencyHistogram`
// stores buckets only up to the highest one in use; this reference keeps
// all 3,712 buckets and must agree with it on every observable.

/// Bucket count of the full histogram: 58 majors × 64 linear sub-buckets,
/// covering samples below 2^63.
const REF_BUCKETS: usize = 3712;

struct RefHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl RefHistogram {
    fn new() -> Self {
        RefHistogram {
            counts: vec![0; REF_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < 6 {
            v as usize
        } else {
            let major = (msb - 5) as usize;
            major * 64 + ((v >> (msb - 6)) & 63) as usize
        }
    }

    fn value_of(idx: usize) -> u64 {
        let (major, sub) = (idx / 64, (idx % 64) as u64);
        if major == 0 {
            sub
        } else {
            let width = 1u64 << (major - 1);
            ((64 + sub) << (major - 1)) + width / 2
        }
    }

    fn record(&mut self, v: u64) {
        self.counts[Self::index_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &RefHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn parts(&self) -> (Vec<(u32, u64)>, u128, u64, u64) {
        let sparse = (0..REF_BUCKETS)
            .filter(|&i| self.counts[i] != 0)
            .map(|i| (i as u32, self.counts[i]))
            .collect();
        (sparse, self.sum, self.min, self.max)
    }

    fn percentile(&self, p: f64) -> u64 {
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Samples spread over every magnitude below 2^63: each is a random word
/// shifted down to a random bit width.
fn spread(draws: &[(u64, u32)], widths: std::ops::Range<u32>) -> Vec<u64> {
    let span = widths.end - widths.start;
    draws
        .iter()
        .map(|&(raw, w)| raw >> (64 - (widths.start + w % span)))
        .collect()
}

fn both_of(xs: &[u64]) -> (LatencyHistogram, RefHistogram) {
    let mut r = RefHistogram::new();
    for &x in xs {
        r.record(x);
    }
    (hist_of(xs), r)
}

fn agrees(h: &LatencyHistogram, r: &RefHistogram) -> Result<(), String> {
    prop_assert_eq!(h.to_parts(), r.parts());
    prop_assert_eq!(h.count(), r.total);
    if r.total == 0 {
        prop_assert_eq!((h.min(), h.max(), h.mean()), (0, 0, 0.0));
        return Ok(());
    }
    prop_assert_eq!(h.min(), r.min);
    prop_assert_eq!(h.max(), r.max);
    prop_assert_eq!(
        h.mean().to_bits(),
        (r.sum as f64 / r.total as f64).to_bits()
    );
    for (p, v) in h.tail_profile() {
        prop_assert_eq!(v, r.percentile(p), "p{}", p);
    }
    Ok(())
}

proptest! {
    /// Recording, merging in either order, and a parts round trip all
    /// agree with the fixed-size reference, for samples up to 2^63 and
    /// for histograms whose bucket ranges do not overlap.
    #[test]
    fn sized_histogram_matches_fixed_reference(
        low in prop::collection::vec((any::<u64>(), any::<u32>()), 0..120),
        high in prop::collection::vec((any::<u64>(), any::<u32>()), 0..120),
    ) {
        let (lo, hi) = (spread(&low, 1..24), spread(&high, 40..64));
        let (h_lo, r_lo) = both_of(&lo);
        let (h_hi, r_hi) = both_of(&hi);
        agrees(&h_lo, &r_lo)?;
        agrees(&h_hi, &r_hi)?;

        let mut r_all = RefHistogram::new();
        r_all.merge(&r_lo);
        r_all.merge(&r_hi);
        let mut lo_hi = h_lo.clone();
        lo_hi.merge(&h_hi);
        agrees(&lo_hi, &r_all)?;
        let mut hi_lo = h_hi.clone();
        hi_lo.merge(&h_lo);
        agrees(&hi_lo, &r_all)?;

        let (sparse, sum, min, max) = lo_hi.to_parts();
        let back = LatencyHistogram::from_parts(&sparse, sum, min, max)
            .expect("reachable parts decode");
        agrees(&back, &r_all)?;
    }
}

#[test]
fn from_parts_rejects_the_first_index_past_the_range() {
    let top = REF_BUCKETS as u32 - 1;
    assert!(LatencyHistogram::from_parts(&[(top, 1)], 0, 0, 0).is_some());
    assert!(LatencyHistogram::from_parts(&[(top + 1, 1)], 0, 0, 0).is_none());
    assert!(LatencyHistogram::from_parts(&[(0, 1), (top + 1, 0)], 0, 0, 0).is_none());
}

#[test]
fn the_largest_sample_lands_in_the_last_bucket() {
    let mut h = LatencyHistogram::new();
    h.record((1 << 63) - 1);
    let (sparse, ..) = h.to_parts();
    assert_eq!(sparse, vec![(REF_BUCKETS as u32 - 1, 1)]);
}
