//! Stable-hash soundness for the cell cache.
//!
//! The sweep executor keys its on-disk cache on
//! `SystemConfig::stable_hash`. That is only safe if the hash changes
//! whenever any semantically meaningful knob changes (else a stale entry
//! would be served for a different experiment) and does *not* change for
//! semantically irrelevant differences (else equivalent cells would never
//! share entries). Both directions are pinned here.

use pagesim::{FaultConfig, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_policy::{MgLruConfig, ScanMode};
use proptest::prelude::*;

fn hash(policy: PolicyChoice, swap: SwapChoice, ratio: f64) -> u64 {
    SystemConfig::new(policy, swap)
        .capacity_ratio(ratio)
        .stable_hash()
}

fn base_hash(cfg: MgLruConfig) -> u64 {
    hash(PolicyChoice::MgLruCustom(cfg), SwapChoice::Ssd, 0.5)
}

/// A bounded-but-varied MG-LRU config from raw proptest scalars.
fn cfg_from(
    max_gens: u32,
    bloom_shift: u32,
    thresh: f64,
    spatial: u32,
    kp: f64,
    mode: u32,
    rand_p: f64,
) -> MgLruConfig {
    let mut c = MgLruConfig::kernel_default();
    c.max_gens = max_gens;
    c.bloom_shift = bloom_shift;
    c.insert_threshold_per_line = thresh;
    c.spatial_scan = spatial.is_multiple_of(2);
    c.pid_gains.0 = kp;
    c.scan_mode = match mode % 4 {
        0 => ScanMode::Bloom,
        1 => ScanMode::All,
        2 => ScanMode::None,
        _ => ScanMode::Rand(rand_p),
    };
    c
}

#[test]
fn hash_is_deterministic_across_constructions() {
    for policy in PolicyChoice::paper_set() {
        for swap in [SwapChoice::Ssd, SwapChoice::Zram] {
            assert_eq!(hash(policy, swap, 0.75), hash(policy, swap, 0.75));
        }
    }
}

#[test]
fn named_variants_hash_distinctly() {
    let mut seen = std::collections::BTreeSet::new();
    for policy in PolicyChoice::paper_set() {
        assert!(
            seen.insert(hash(policy, SwapChoice::Ssd, 0.5)),
            "{policy:?} collided with another paper-set policy"
        );
    }
}

#[test]
fn swap_ratio_and_faults_are_meaningful() {
    let h = |swap, ratio, faults: FaultConfig| {
        SystemConfig::new(PolicyChoice::MgLruDefault, swap)
            .capacity_ratio(ratio)
            .faults(faults)
            .stable_hash()
    };
    let base = h(SwapChoice::Ssd, 0.5, FaultConfig::none());
    assert_ne!(base, h(SwapChoice::Zram, 0.5, FaultConfig::none()));
    assert_ne!(base, h(SwapChoice::Ssd, 0.75, FaultConfig::none()));
    assert_ne!(base, h(SwapChoice::Ssd, 0.5, FaultConfig::stalling_ssd()));
}

/// A `MgLruCustom` carrying the kernel-default config is the *same
/// experiment* as `MgLruDefault`; the hash must agree so the cache and
/// the in-memory cell store treat them as one cell.
#[test]
fn custom_kernel_default_aliases_mglru_default() {
    assert_eq!(
        hash(
            PolicyChoice::MgLruCustom(MgLruConfig::kernel_default()),
            SwapChoice::Ssd,
            0.5
        ),
        hash(PolicyChoice::MgLruDefault, SwapChoice::Ssd, 0.5),
    );
}

/// The config's `seed` field is overwritten with the trial seed when the
/// kernel builds the policy, so it is semantically *irrelevant* to the
/// cell identity and must not perturb the hash (the trial seed enters the
/// cache key separately).
#[test]
fn policy_seed_field_is_not_meaningful() {
    let mut a = MgLruConfig::kernel_default();
    let mut b = MgLruConfig::kernel_default();
    a.seed = 1;
    b.seed = 0xDEAD_BEEF;
    assert_eq!(base_hash(a), base_hash(b));
}

proptest! {
    /// Flipping any single semantically meaningful MG-LRU knob changes
    /// the system hash; leaving everything unchanged never does.
    #[test]
    fn each_mglru_knob_is_meaningful(
        max_gens in 2u32..64,
        bloom_shift in 4u32..20,
        thresh in 0.1f64..4.0,
        spatial in 0u32..2,
        kp in 0.1f64..8.0,
        mode in 0u32..4,
        rand_p in 0.05f64..0.95,
    ) {
        let base = cfg_from(max_gens, bloom_shift, thresh, spatial, kp, mode, rand_p);
        let h0 = base_hash(base);
        prop_assert_eq!(h0, base_hash(base));

        let mut m = base;
        m.max_gens += 1;
        prop_assert_ne!(h0, base_hash(m));

        let mut m = base;
        m.bloom_shift += 1;
        prop_assert_ne!(h0, base_hash(m));

        let mut m = base;
        m.insert_threshold_per_line += 0.125;
        prop_assert_ne!(h0, base_hash(m));

        let mut m = base;
        m.spatial_scan = !m.spatial_scan;
        prop_assert_ne!(h0, base_hash(m));

        let mut m = base;
        m.pid_gains.0 += 0.25;
        prop_assert_ne!(h0, base_hash(m));

        let mut m = base;
        m.pid_gains.2 += 0.25;
        prop_assert_ne!(h0, base_hash(m));

        let mut m = base;
        m.scan_mode = match m.scan_mode {
            ScanMode::Bloom => ScanMode::All,
            ScanMode::All => ScanMode::None,
            ScanMode::None => ScanMode::Rand(rand_p),
            ScanMode::Rand(_) => ScanMode::Bloom,
        };
        prop_assert_ne!(h0, base_hash(m));

        if let ScanMode::Rand(p) = base.scan_mode {
            let mut m = base;
            m.scan_mode = ScanMode::Rand(p / 2.0);
            prop_assert_ne!(h0, base_hash(m));
        }
    }

    /// The capacity ratio is meaningful at any representable resolution —
    /// the hash folds in the exact f64 bits, not a rounded percentage.
    #[test]
    fn ratio_is_meaningful_at_full_precision(
        ratio in 0.1f64..0.95,
        bump in 1e-9f64..1e-3,
    ) {
        let a = hash(PolicyChoice::Clock, SwapChoice::Ssd, ratio);
        let b = hash(PolicyChoice::Clock, SwapChoice::Ssd, ratio + bump);
        prop_assert_ne!(a, b);
    }
}
