//! Log-bucketed latency histogram.
//!
//! YCSB runs record one latency per request; at the paper's scale that is
//! 110 million samples. Storing each sample to compute p99.99 would be
//! wasteful, so we use an HDR-style histogram: logarithmic major buckets
//! with linear sub-buckets, giving a bounded relative error (< 1/64 ≈ 1.6%
//! by default) at any percentile. Buckets are stored only up to the
//! highest one in use, so memory follows the largest sample: about 8 KiB
//! when that is near a millisecond, 29 KiB at most.

use std::cell::RefCell;

const SUB_BUCKET_BITS: u32 = 6; // 64 linear sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A bounded-memory histogram of `u64` latency samples (nanoseconds).
///
/// ```rust
/// use pagesim_stats::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [100u64, 200, 300, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// // p50 is within the histogram's relative error of 300
/// let p50 = h.value_at_percentile(50.0);
/// assert!((p50 as f64 - 300.0).abs() / 300.0 < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    // buckets[major][sub]: major = floor(log2(v)) - SUB_BUCKET_BITS clamped,
    // flattened into one Vec that ends at the highest non-zero bucket (at
    // most BUCKETS long): an empty histogram allocates nothing.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const MAJORS: usize = 64 - SUB_BUCKET_BITS as usize; // value range up to 2^63
const BUCKETS: usize = MAJORS * SUB_BUCKETS;

impl LatencyHistogram {
    /// Creates an empty histogram covering `1 ..= 2^63` nanoseconds.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUB_BUCKET_BITS {
            // Values below 2^6 land in major 0 with exact resolution.
            v as usize
        } else {
            let major = (msb - SUB_BUCKET_BITS + 1) as usize;
            let shift = msb - SUB_BUCKET_BITS;
            let sub = ((v >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
            major * SUB_BUCKETS + sub
        }
    }

    /// Representative (upper-mid) value of bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        let major = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if major == 0 {
            sub
        } else {
            let shift = major as u32 + SUB_BUCKET_BITS - 1;
            // bucket covers [base, base + 2^(shift) ), report midpoint
            let base = (SUB_BUCKETS as u64 + sub) << (shift - SUB_BUCKET_BITS);
            base + (1u64 << (shift - SUB_BUCKET_BITS)) / 2
        }
    }

    /// Extends `counts` through bucket `idx` and counts one sample there:
    /// rare after the first samples, so kept out of `record`'s inlined body.
    #[cold]
    fn grow_and_count(&mut self, idx: usize) {
        assert!(
            idx < BUCKETS,
            "sample is past the 2^63 range (bucket {idx})"
        );
        self.counts.resize(idx + 1, 0);
        self.counts[idx] = 1;
    }

    /// Reserves room for every bucket, so that no later
    /// [`record`](Self::record) reallocates. The stored buckets still end
    /// at the highest one in use; [`shrink_to_fit`](Self::shrink_to_fit)
    /// gives the unused room back.
    pub fn reserve_all(&mut self) {
        self.counts.reserve_exact(BUCKETS - self.counts.len());
    }

    /// Frees the room [`reserve_all`](Self::reserve_all) set aside beyond
    /// the buckets in use.
    pub fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is at or past 2^63, the top of the bucket range.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        match self.counts.get_mut(idx) {
            Some(count) => *count += 1,
            None => self.grow_and_count(idx),
        }
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded sample; 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum recorded sample; 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// The approximate value at percentile `p` (0–100), within the
    /// histogram's relative error.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is outside `[0, 100]`.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        assert!(self.total > 0, "percentile of empty histogram");
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The histogram's full state as `(sparse buckets, sum, min, max)`.
    ///
    /// Sparse buckets are `(index, count)` pairs for every non-zero bucket
    /// in ascending index order. Together with the sample sum and the exact
    /// min/max this is everything [`LatencyHistogram`] stores, so
    /// [`from_parts`](LatencyHistogram::from_parts) reconstructs a
    /// byte-identical histogram — the cell cache serializes through this.
    pub fn to_parts(&self) -> (Vec<(u32, u64)>, u128, u64, u64) {
        let (sparse, sum, min, max) = self.sparse_parts();
        (sparse.collect(), sum, min, max)
    }

    /// [`to_parts`](LatencyHistogram::to_parts) with the sparse buckets
    /// left as an iterator, for a writer that streams them out.
    pub fn sparse_parts(&self) -> (impl Iterator<Item = (u32, u64)> + '_, u128, u64, u64) {
        let sparse = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c));
        (sparse, self.sum, self.min, self.max)
    }

    /// Rebuilds a histogram from [`to_parts`](LatencyHistogram::to_parts)
    /// output. Returns `None` if a bucket index is out of range or the
    /// counts overflow (corrupt or foreign data).
    pub fn from_parts(sparse: &[(u32, u64)], sum: u128, min: u64, max: u64) -> Option<Self> {
        Self::try_from_pairs(sparse.iter().map(|&pair| Some(pair)), sum, min, max)
    }

    /// Rebuilds a histogram from a stream of `(index, count)` pairs that a
    /// decoder produces as it reads them: a `None` item ends the stream
    /// and the result, so a decoder never has to collect its pairs first.
    ///
    /// The pairs may come in any order and may repeat an index; repeated
    /// counts add. Returns `None` if a pair is `None`, an index is at or
    /// past the bucket range, or a count or the total overflows `u64`.
    /// The buckets end at the highest one with a non-zero count, as
    /// [`record`](Self::record) leaves them.
    #[inline]
    pub fn try_from_pairs<I>(pairs: I, sum: u128, min: u64, max: u64) -> Option<Self>
    where
        I: IntoIterator<Item = Option<(u32, u64)>>,
    {
        thread_local! {
            /// Every bucket, all zero between calls. Counts add into it in
            /// any order, and the histogram then takes one exact-size copy
            /// of the buckets in use: no growth, so a sweep's decoding
            /// threads do not churn the allocator.
            static SCRATCH: RefCell<Vec<u64>> = RefCell::new(vec![0; BUCKETS]);
        }
        SCRATCH.with_borrow_mut(|scratch| {
            let mut total = 0u64;
            // One past the highest non-zero bucket.
            let mut top = 0;
            let added = pairs.into_iter().try_for_each(|pair| {
                let (idx, count) = pair?;
                let slot = scratch.get_mut(idx as usize)?;
                total = total.checked_add(count)?;
                // The total bounds every bucket, so this add fits; and a
                // rejection never leaves a count behind past `top`.
                *slot += count;
                if count != 0 {
                    top = top.max(idx as usize + 1);
                }
                Some(())
            });
            let counts = added.map(|()| scratch[..top].to_vec());
            scratch[..top].fill(0);
            Some(LatencyHistogram {
                counts: counts?,
                total,
                sum,
                // An empty histogram's sentinel min is u64::MAX; keep it.
                min: if total == 0 { u64::MAX } else { min },
                max,
            })
        })
    }

    /// Convenience: the tail profile the paper's figures use.
    ///
    /// Returns `(p, value)` pairs for p ∈ {50, 90, 99, 99.9, 99.99}.
    pub fn tail_profile(&self) -> Vec<(f64, u64)> {
        [50.0, 90.0, 99.0, 99.9, 99.99]
            .iter()
            .map(|&p| (p, self.value_at_percentile(p)))
            .collect()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::percentile_sorted;

    /// Exact percentile over raw samples, for cross-checking the histogram.
    fn exact_percentile(samples: &mut [u64], p: f64) -> u64 {
        samples.sort_unstable();
        let xs: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        percentile_sorted(&xs, p) as u64
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 1..=63u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 63);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let mut raw = Vec::new();
        let mut x = 1u64;
        // Geometric sweep across 12 orders of magnitude.
        while x < 1_000_000_000_000 {
            h.record(x);
            raw.push(x);
            x = x * 21 / 20 + 1;
        }
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let approx = h.value_at_percentile(p) as f64;
            let mut r = raw.clone();
            let exact = exact_percentile(&mut r, p) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(err < 0.05, "p{p}: approx {approx} exact {exact} err {err}");
        }
    }

    #[test]
    fn p100_is_exact_max() {
        let mut h = LatencyHistogram::new();
        h.record(123_456_789);
        h.record(7);
        assert_eq!(h.value_at_percentile(100.0), 123_456_789);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 300);
        assert_eq!(a.min(), 100);
        assert!((a.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn tail_profile_is_monotone() {
        let mut h = LatencyHistogram::new();
        let mut v = 17u64;
        for _ in 0..100_000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record((v >> 40).max(1));
        }
        let prof = h.tail_profile();
        for w in prof.windows(2) {
            assert!(w[1].1 >= w[0].1, "profile not monotone: {prof:?}");
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "2^63")]
    fn record_past_the_range_panics() {
        LatencyHistogram::new().record(1 << 63);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        LatencyHistogram::new().value_at_percentile(50.0);
    }

    #[test]
    fn parts_roundtrip_is_exact() {
        let mut h = LatencyHistogram::new();
        let mut v = 3u64;
        for _ in 0..10_000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record((v >> 33).max(1));
        }
        let (sparse, sum, min, max) = h.to_parts();
        let back = LatencyHistogram::from_parts(&sparse, sum, min, max).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.mean(), h.mean());
        for p in [50.0, 90.0, 99.0, 99.99] {
            assert_eq!(back.value_at_percentile(p), h.value_at_percentile(p));
        }
        // Empty roundtrip keeps reporting zeros.
        let (s, sum, min, max) = LatencyHistogram::new().to_parts();
        let e = LatencyHistogram::from_parts(&s, sum, min, max).unwrap();
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), 0);
        // Out-of-range bucket index is rejected.
        assert!(LatencyHistogram::from_parts(&[(u32::MAX, 1)], 0, 0, 0).is_none());
    }

    #[test]
    fn overflowing_counts_are_rejected_not_wrapped() {
        // Two buckets whose counts sum past u64::MAX overflow the total.
        let half = 1u64 << 63;
        assert!(LatencyHistogram::from_parts(&[(0, half), (1, half)], 0, 0, 0).is_none());
        // A repeated index overflows the bucket itself.
        assert!(LatencyHistogram::from_parts(&[(5, half), (5, half)], 0, 0, 0).is_none());
        // Right at the limit both still fit.
        let h = LatencyHistogram::from_parts(&[(0, half), (1, half - 1)], 0, 0, 0).unwrap();
        assert_eq!(h.count(), u64::MAX);
        let h = LatencyHistogram::from_parts(&[(5, half), (5, half - 1)], 0, 0, 0).unwrap();
        assert_eq!(h.to_parts().0, vec![(5, u64::MAX)]);
        // A rejected stream leaves no count behind for the next one.
        assert!(LatencyHistogram::from_parts(&[(0, half), (9, half)], 0, 0, 0).is_none());
        let h = LatencyHistogram::from_parts(&[(10, 1)], 0, 0, 0).unwrap();
        assert_eq!(h.to_parts().0, vec![(10, 1)]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn pair_stream_stops_at_the_first_failure() {
        let pairs = [Some((3, 1)), None, Some((4, 1))];
        assert!(LatencyHistogram::try_from_pairs(pairs, 0, 0, 0).is_none());
        // Unsorted and repeated pairs add up; zero counts size nothing.
        let pairs = [Some((9, 0)), Some((4, 2)), Some((1, 1)), Some((4, 3))];
        let h = LatencyHistogram::try_from_pairs(pairs, 0, 0, 0).unwrap();
        assert_eq!(h.to_parts().0, vec![(1, 1), (4, 5)]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        // For any value, the representative value of its bucket must be
        // within 1/64 relative error (plus rounding) of the value.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = LatencyHistogram::index_of(v);
            let rep = LatencyHistogram::value_of(idx);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.03 || v < 64, "v={v} rep={rep} err={err}");
            v = v * 3 / 2 + 1;
        }
    }
}
