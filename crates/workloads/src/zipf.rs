//! Zipfian item popularity, YCSB-style.
//!
//! Implements the Gray et al. zipfian generator used by YCSB (constant
//! θ = 0.99) plus the *scrambled* variant YCSB applies so popular items
//! are spread across the keyspace instead of clustered at low ids.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use pagesim_engine::rng::splitmix64;

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
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }
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
        let rank = self.inner.next_rank();
        splitmix64(rank) % self.inner.n()
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
