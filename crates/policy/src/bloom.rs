//! The MG-LRU region bloom filter.
//!
//! MG-LRU limits its linear page-table walks to PMD regions that looked
//! hot on the previous pass. Two filters are kept: the *current* filter
//! gates this walk; regions found hot are inserted into the *next* filter,
//! which replaces the current one when a new generation is created
//! ([`DualBloom::flip`]). The eviction scan also feeds the next filter —
//! the aging↔eviction feedback loop described in §III-C of the paper.

use pagesim_engine::rng::splitmix64;
use pagesim_mem::{AsId, RegionIdx};

/// A fixed-size bloom filter over `(address space, PMD region)` pairs.
///
/// Sized like the kernel's (`BLOOM_FILTER_SHIFT = 15` → 32 Ki bits) with
/// two hash probes.
///
/// ```rust
/// use pagesim_policy::BloomFilter;
/// use pagesim_mem::AsId;
/// let mut f = BloomFilter::new(15);
/// assert!(!f.contains(AsId(0), 3));
/// f.insert(AsId(0), 3);
/// assert!(f.contains(AsId(0), 3)); // no false negatives, ever
/// ```
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    insertions: u64,
}

impl BloomFilter {
    /// Creates a filter with `2^shift` bits.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is not in `6..=30`.
    pub fn new(shift: u32) -> Self {
        assert!((6..=30).contains(&shift), "unreasonable bloom size");
        let nbits = 1u64 << shift;
        BloomFilter {
            bits: vec![0; (nbits / 64) as usize],
            mask: nbits - 1,
            insertions: 0,
        }
    }

    fn hashes(&self, space: AsId, region: RegionIdx) -> (u64, u64) {
        let key = ((space.0 as u64) << 40) | region as u64;
        let h1 = splitmix64(key);
        let h2 = splitmix64(h1 ^ 0xDEAD_BEEF_CAFE_F00D);
        (h1 & self.mask, h2 & self.mask)
    }

    /// Marks a region hot.
    pub fn insert(&mut self, space: AsId, region: RegionIdx) {
        let (a, b) = self.hashes(space, region);
        self.bits[(a / 64) as usize] |= 1 << (a % 64);
        self.bits[(b / 64) as usize] |= 1 << (b % 64);
        self.insertions += 1;
    }

    /// Whether a region may be hot (false positives possible, false
    /// negatives impossible).
    pub fn contains(&self, space: AsId, region: RegionIdx) -> bool {
        let (a, b) = self.hashes(space, region);
        self.bits[(a / 64) as usize] & (1 << (a % 64)) != 0
            && self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.insertions = 0;
    }

    /// Number of insertions since the last clear.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Fraction of set bits (load factor), for diagnostics.
    #[expect(clippy::float_arithmetic, reason = "report-only load factor")]
    pub fn load(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / ((self.mask + 1) as f64)
    }
}

/// The current/next filter pair used by the aging walk.
#[derive(Clone, Debug)]
pub struct DualBloom {
    current: BloomFilter,
    next: BloomFilter,
}

impl DualBloom {
    /// Creates both filters with `2^shift` bits each.
    pub fn new(shift: u32) -> Self {
        DualBloom {
            current: BloomFilter::new(shift),
            next: BloomFilter::new(shift),
        }
    }

    /// Gate for this walk: should the region be scanned?
    pub fn test_current(&self, space: AsId, region: RegionIdx) -> bool {
        self.current.contains(space, region)
    }

    /// Feed for the next walk (from aging or from eviction's feedback).
    pub fn insert_next(&mut self, space: AsId, region: RegionIdx) {
        self.next.insert(space, region);
    }

    /// Rotates at generation creation: next becomes current.
    pub fn flip(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.next.clear();
    }

    /// Insertions into the upcoming filter so far.
    pub fn next_insertions(&self) -> u64 {
        self.next.insertions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(12);
        for r in 0..200u32 {
            f.insert(AsId(r as u16 % 3), r);
        }
        for r in 0..200u32 {
            assert!(f.contains(AsId(r as u16 % 3), r));
        }
    }

    #[test]
    fn false_positive_rate_is_small_when_lightly_loaded() {
        let mut f = BloomFilter::new(15);
        for r in 0..256u32 {
            f.insert(AsId(0), r);
        }
        let fp = (10_000..20_000u32)
            .filter(|&r| f.contains(AsId(0), r))
            .count();
        // 256 inserts into 32Ki bits with k=2: expected fp rate well below 1%
        assert!(fp < 100, "false positives: {fp}/10000");
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(10);
        f.insert(AsId(1), 7);
        assert!(f.load() > 0.0);
        f.clear();
        assert!(!f.contains(AsId(1), 7));
        assert_eq!(f.insertions(), 0);
        assert_eq!(f.load(), 0.0);
    }

    #[test]
    fn spaces_are_distinguished() {
        let mut f = BloomFilter::new(15);
        f.insert(AsId(0), 42);
        assert!(!f.contains(AsId(1), 42));
    }

    #[test]
    fn dual_flip_rotates() {
        let mut d = DualBloom::new(12);
        d.insert_next(AsId(0), 5);
        assert!(!d.test_current(AsId(0), 5), "next must not gate this walk");
        d.flip();
        assert!(d.test_current(AsId(0), 5));
        d.flip();
        assert!(!d.test_current(AsId(0), 5), "flip clears the new next");
    }

    #[test]
    fn next_insertions_counted() {
        let mut d = DualBloom::new(12);
        assert_eq!(d.next_insertions(), 0);
        d.insert_next(AsId(0), 1);
        d.insert_next(AsId(0), 2);
        assert_eq!(d.next_insertions(), 2);
        d.flip();
        assert_eq!(d.next_insertions(), 0);
    }
}
