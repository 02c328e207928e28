//! Zipfian item popularity, YCSB-style.
//!
//! Implements the Gray et al. zipfian generator used by YCSB (constant
//! θ = 0.99) plus the *scrambled* variant YCSB applies so popular items
//! are spread across the keyspace instead of clustered at low ids.
//! [`Zipfian`] and [`ScrambledZipfian`] are the definitions; the YCSB
//! streams draw from [`ZipfianTable`], which gives the same ranks without
//! a `pow` per draw.
//!
//! ## Ranks without a `pow` per draw
//!
//! A rank is a function of one 53-bit draw `m` (`random::<f64>()` is
//! `m / 2^53` for `m = next_u64() >> 11`): [`ZipfianDist::rank_of_draw`].
//! With `u = m / 2^53` and `uz = u · zeta(n)` it has three branches:
//! rank 0 while `uz < 1`, rank 1 while `uz < 1 + 0.5^θ`, and otherwise
//! `min(n · (η·u − η + 1)^α, n − 1)` truncated, with `α = 1/(1 − θ)`.
//!
//! `uz` rounds monotonically in `m`, so the two early branches are the
//! draws below two fixed draws, `m1` and `m2`, and become integer
//! compares. On the `pow` branch, `m >= m2`, the rank never decreases as
//! `m` grows:
//!
//! * `u` is exact, and `η·u`, `− η` and `+ 1` each round monotonically
//!   (η > 0 for `n > 2`; at `n = 2` it is NaN and the branch is constant);
//! * with α ≈ 100, one input ULP moves `pow`'s true result by about 100
//!   output ULPs, and libm's error is under one ULP, so rounding cannot
//!   reorder neighbouring inputs;
//! * `n ·`, the truncation and the `min` are monotone.
//!
//! So on that branch the rank is a step function of `m`, fixed by its
//! thresholds `T_k`, the least draw of rank `>= k`. [`ZipfianTable::new`]
//! finds each one from the analytic inverse of the warp, then gallops and
//! bisects against `rank_of_draw` itself; the search makes no
//! approximation, so every threshold, and the table, is exact. At small
//! `n` the `pow` branch can start below rank 2, which is why the early
//! branches stay compares rather than table entries.
//! `tests/zipf_table.rs` checks every threshold, and every draw within 64
//! of one, at the item counts the scales use.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use pagesim_engine::rng::splitmix64;

use crate::graph::{least_draw, DRAWS};

/// YCSB's default skew constant.
pub const YCSB_THETA: f64 = 0.99;

/// The constants of a zipfian distribution over `0..n` with parameter θ.
///
/// Computing them sums `n` powers (`zeta(n)`), so a workload computes them
/// once and hands a copy to every generator it seeds.
#[derive(Clone, Copy, Debug)]
pub struct ZipfianDist {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^θ`: rank 1's share relative to rank 0's.
    half_pow_theta: f64,
}

impl ZipfianDist {
    /// The distribution over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or θ is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty domain");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfianDist {
            n,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; domains in this simulator are ≤ a few million.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// The rank of a uniform draw `u` in `[0, 1)`: 0 is the most popular.
    fn rank(&self, u: f64) -> u64 {
        if self.below_one(u) {
            return 0;
        }
        if self.below_two(u) {
            return 1;
        }
        self.pow_rank(u)
    }

    /// The rank of the 53-bit draw `m` in `0..DRAWS`: the rank of the
    /// uniform draw `m / 2^53`, which is what `random::<f64>()` returns for
    /// `m = next_u64() >> 11`. This is the definition [`ZipfianTable`]
    /// tabulates.
    pub fn rank_of_draw(&self, m: u64) -> u64 {
        debug_assert!(m < DRAWS);
        self.rank(m as f64 / DRAWS as f64)
    }

    /// Whether `u` takes the rank-0 branch.
    fn below_one(&self, u: f64) -> bool {
        u * self.zetan < 1.0
    }

    /// Whether `u` takes the rank-0 or the rank-1 branch.
    fn below_two(&self, u: f64) -> bool {
        u * self.zetan < 1.0 + self.half_pow_theta
    }

    /// The rank of `u` on the `pow` branch.
    fn pow_rank(&self, u: f64) -> u64 {
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// Buckets of [`ZipfianTable`] per item. The thresholds crowd toward the
/// top of the draw range; 1, 2 and 4 buckets per item drained
/// `workloads/ycsb_request` at about the same speed.
const BUCKETS_PER_ITEM: u64 = 2;

/// The rank of every draw, as two compares and a table lookup.
///
/// `rank(m)` equals [`ZipfianDist::rank_of_draw`]`(m)` for every draw `m`
/// (see the module docs for why the table is exact).
#[derive(Clone, Debug)]
pub struct ZipfianTable {
    /// The least draw of the rank-1 branch (`DRAWS` if there is none).
    m1: u64,
    /// The least draw of the `pow` branch (`DRAWS` if there is none).
    m2: u64,
    /// `thresholds[k]` is the least draw `>= m2` whose rank is `>= k`, for
    /// `k in 0..=n`; `u64::MAX` when no draw reaches rank `k`, so
    /// `thresholds[n]` is a sentinel.
    thresholds: Vec<u64>,
    /// `buckets[b]` is the greatest `k` with `thresholds[k] <= b << shift`,
    /// or 0: no higher than the rank of any `pow`-branch draw in bucket
    /// `b`, the draws `b << shift ..`.
    buckets: Vec<u32>,
    shift: u32,
}

impl ZipfianTable {
    /// Tabulates `dist`'s ranks.
    ///
    /// # Panics
    ///
    /// Panics if the domain does not fit in a `u32`.
    pub fn new(dist: &ZipfianDist) -> Self {
        let n = dist.n;
        assert!(n <= u32::MAX as u64, "domain too large for a table");
        // The least draw leaving an early branch: draw 0 is rank 0, so
        // `pred(0)` is false.
        let least = |pred: &dyn Fn(u64) -> bool, guess: f64| {
            if pred(DRAWS - 1) {
                least_draw(0, (guess * DRAWS as f64) as u64, pred)
            } else {
                DRAWS
            }
        };
        let u = |m: u64| m as f64 / DRAWS as f64;
        let m1 = least(&|m| !dist.below_one(u(m)), 1.0 / dist.zetan);
        let m2 = least(
            &|m| !dist.below_two(u(m)),
            (1.0 + dist.half_pow_theta) / dist.zetan,
        );

        let mut thresholds = vec![u64::MAX; n as usize + 1];
        if m2 < DRAWS {
            let first = dist.rank_of_draw(m2);
            let last = dist.rank_of_draw(DRAWS - 1);
            thresholds[..=first as usize].fill(m2);
            for k in first + 1..=last {
                // Inverse of the warp: rank k starts where
                // (η·u − η + 1)^α = k / n, that is at
                // u = 1 − (1 − (k/n)^(1−θ)) / η. Start there, then search
                // exactly.
                let below = -((k as f64 / n as f64).ln() / dist.alpha).exp_m1();
                let guess = ((1.0 - below / dist.eta) * DRAWS as f64) as u64;
                thresholds[k as usize] = least_draw(m2, guess, |m| dist.rank_of_draw(m) >= k);
            }
        }

        let nbuckets = (BUCKETS_PER_ITEM * n).next_power_of_two();
        let shift = DRAWS.trailing_zeros() - nbuckets.trailing_zeros();
        let buckets = (0..nbuckets)
            .map(|b| {
                thresholds
                    .partition_point(|&t| t <= b << shift)
                    .saturating_sub(1) as u32
            })
            .collect();
        ZipfianTable {
            m1,
            m2,
            thresholds,
            buckets,
            shift,
        }
    }

    /// The rank of draw `m` in `0..DRAWS`. Past the two early branches it
    /// starts at the rank of `m`'s bucket, then steps over the thresholds
    /// at or below `m`.
    pub fn rank(&self, m: u64) -> u32 {
        debug_assert!(m < DRAWS);
        if m < self.m1 {
            return 0;
        }
        if m < self.m2 {
            return 1;
        }
        let mut r = self.buckets[(m >> self.shift) as usize] as usize;
        while m >= self.thresholds[r + 1] {
            r += 1;
        }
        r as u32
    }

    /// The least draw of the rank-1 branch, `DRAWS` if there is none.
    pub fn m1(&self) -> u64 {
        self.m1
    }

    /// The least draw of the `pow` branch, `DRAWS` if there is none.
    pub fn m2(&self) -> u64 {
        self.m2
    }

    /// Entry `k` is the least draw `>= m2` of rank `>= k`, for `k` in
    /// `0..=n`, or `u64::MAX` when no draw reaches rank `k`.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }
}

/// The item scrambled zipfian rank `rank` selects in `0..n`: YCSB's
/// scramble, a hash of the rank folded onto the keyspace.
pub fn item_of_rank(rank: u64, n: u64) -> u64 {
    splitmix64(rank) % n
}

/// A zipfian generator over `0..n` with parameter θ.
///
/// ```rust
/// use pagesim_workloads::zipf::Zipfian;
/// let mut z = Zipfian::new(1000, 0.99, 42);
/// let x = z.next_rank();
/// assert!(x < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct Zipfian {
    dist: ZipfianDist,
    rng: SmallRng,
}

impl Zipfian {
    /// Creates a generator over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or θ is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        Self::from_dist(ZipfianDist::new(n, theta), seed)
    }

    fn from_dist(dist: ZipfianDist, seed: u64) -> Self {
        Zipfian {
            dist,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws a rank: 0 is the most popular.
    pub fn next_rank(&mut self) -> u64 {
        self.dist.rank(self.rng.random())
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.dist.n()
    }
}

/// Scrambled zipfian: zipfian ranks hashed over the keyspace (YCSB's
/// `ScrambledZipfianGenerator`), so popularity is spread uniformly across
/// item ids — and therefore across the KV store's slab pages.
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled generator over `0..n` with YCSB's θ.
    pub fn new(n: u64, seed: u64) -> Self {
        Self::from_dist(ZipfianDist::new(n, YCSB_THETA), seed)
    }

    /// Creates a scrambled generator drawing ranks from `dist`.
    pub fn from_dist(dist: ZipfianDist, seed: u64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::from_dist(dist, seed),
        }
    }

    /// Draws an item id in `0..n`.
    pub fn next_item(&mut self) -> u64 {
        item_of_rank(self.inner.next_rank(), self.inner.n())
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.inner.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_in_range() {
        let mut z = Zipfian::new(100, 0.99, 1);
        for _ in 0..10_000 {
            assert!(z.next_rank() < 100);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let mut z = Zipfian::new(10_000, 0.99, 2);
        let mut zero = 0;
        let draws = 100_000;
        for _ in 0..draws {
            if z.next_rank() == 0 {
                zero += 1;
            }
        }
        // P(rank 0) = 1/zeta(n) ≈ 10% for n = 10^4 at theta 0.99
        let p = zero as f64 / draws as f64;
        assert!((0.07..0.14).contains(&p), "p(0) = {p}");
    }

    #[test]
    fn skew_matches_zipf_law_shape() {
        let mut z = Zipfian::new(1000, 0.99, 3);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[z.next_rank() as usize] += 1;
        }
        // Top-10 ranks should hold a large share; tail should be thin.
        let top10: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[500..].iter().sum();
        assert!(top10 > tail, "top10={top10} tail={tail}");
        // Monotone on average: first rank beats the 100th.
        assert!(counts[0] > counts[99]);
    }

    #[test]
    fn scrambled_spreads_popularity() {
        let mut s = ScrambledZipfian::new(10_000, 4);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..100_000 {
            counts[s.next_item() as usize] += 1;
        }
        // The most popular item should NOT be item 0 in general: the hot
        // set is scattered by the hash.
        let hot: Vec<usize> = {
            let mut idx: Vec<usize> = (0..10_000).collect();
            idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
            idx[..10].to_vec()
        };
        let clustered_low = hot.iter().filter(|&&i| i < 100).count();
        assert!(clustered_low <= 2, "hot set clustered at low ids: {hot:?}");
        // Still heavily skewed overall.
        let top: u32 = hot.iter().map(|&i| counts[i]).sum();
        assert!(top as f64 > 0.2 * 100_000.0, "top-10 share too small");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = ScrambledZipfian::new(1000, 7);
        let mut b = ScrambledZipfian::new(1000, 7);
        for _ in 0..100 {
            assert_eq!(a.next_item(), b.next_item());
        }
        let mut c = ScrambledZipfian::new(1000, 8);
        let same = (0..100).filter(|_| a.next_item() == c.next_item()).count();
        assert!(same < 90, "different seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zero_domain_rejected() {
        Zipfian::new(0, 0.5, 1);
    }
}
