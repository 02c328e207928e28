//! Deterministic seed derivation.
//!
//! Every simulation trial must be a pure function of `(config, master_seed)`.
//! These helpers derive independent child seeds from a master seed using
//! SplitMix64, so adding a consumer never perturbs the streams of existing
//! consumers (unlike drawing seeds sequentially from one RNG).

/// One round of SplitMix64: a high-quality 64-bit mixing function.
///
/// ```rust
/// use pagesim_engine::rng::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a stream label.
///
/// The label keeps unrelated consumers (e.g. "graph", "scheduler-noise",
/// "zipfian") statistically independent even for adjacent trial seeds.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(master ^ splitmix64(h))
}

/// Seed for trial `index` of a sweep rooted at `master`.
pub fn trial_seed(master: u64, index: u32) -> u64 {
    splitmix64(master.wrapping_add(0x5851_F42D_4C95_7F2Du64.wrapping_mul(index as u64 + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_depends_on_label() {
        let a = derive_seed(7, "graph");
        let b = derive_seed(7, "zipf");
        assert_ne!(a, b);
        assert_eq!(a, derive_seed(7, "graph"));
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            assert!(seen.insert(trial_seed(99, i)), "collision at trial {i}");
        }
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // flipping one input bit should flip roughly half the output bits
        let x = splitmix64(0x1234_5678);
        let y = splitmix64(0x1234_5679);
        let flipped = (x ^ y).count_ones();
        assert!((16..=48).contains(&flipped), "weak mixing: {flipped} bits");
    }
}
