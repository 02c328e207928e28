//! The zipfian rank table against its definition.
//!
//! `ZipfianTable::rank(m)` must equal `ZipfianDist::rank_of_draw(m)` for
//! every draw `m`: the YCSB streams request the table's rank in place of
//! the one `ScrambledZipfian` would compute with a `pow`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use pagesim_workloads::graph::DRAWS;
use pagesim_workloads::zipf::{
    item_of_rank, ScrambledZipfian, ZipfianDist, ZipfianTable, YCSB_THETA,
};

/// Checks the table against the definition at every draw within 64 of
/// `m`.
fn check_around(dist: &ZipfianDist, table: &ZipfianTable, m: u64) {
    for d in m.saturating_sub(64)..(m + 65).min(DRAWS) {
        assert_eq!(
            table.rank(d) as u64,
            dist.rank_of_draw(d),
            "n={} draw {d}",
            dist.n()
        );
    }
}

/// Every threshold is the least draw of its rank on the `pow` branch, and
/// the table agrees with the definition on every draw within 64 of a
/// threshold, of the two branch starts, and of both ends of the range.
fn check_table(n: u64) {
    let dist = ZipfianDist::new(n, YCSB_THETA);
    let table = ZipfianTable::new(&dist);
    let (m1, m2) = (table.m1(), table.m2());
    assert!(m1 <= m2 && m2 <= DRAWS, "n={n}: m1 {m1} m2 {m2}");
    let thresholds = table.thresholds();
    assert_eq!(thresholds.len() as u64, n + 1);
    assert_eq!(thresholds[n as usize], u64::MAX, "sentinel");
    for (k, &t) in thresholds.iter().enumerate() {
        let k = k as u64;
        if t == u64::MAX {
            assert!(
                m2 == DRAWS || dist.rank_of_draw(DRAWS - 1) < k,
                "n={n}: rank {k} is reachable"
            );
        } else if t == m2 {
            assert!(
                dist.rank_of_draw(m2) >= k,
                "n={n}: rank {k} starts above m2"
            );
        } else {
            assert!(t > m2, "n={n}: rank {k}: threshold {t} below m2 {m2}");
            assert!(
                dist.rank_of_draw(t) >= k,
                "n={n}: rank {k}: draw {t} is below it"
            );
            assert!(
                dist.rank_of_draw(t - 1) < k,
                "n={n}: rank {k}: draw {} is in it",
                t - 1
            );
        }
    }
    let mut last = None;
    for &t in thresholds.iter().filter(|&&t| t < DRAWS) {
        if last != Some(t) {
            check_around(&dist, &table, t);
            last = Some(t);
        }
    }
    for m in [0, m1, m2, DRAWS - 1] {
        check_around(&dist, &table, m.min(DRAWS - 1));
    }
}

#[test]
fn tiny_domains_are_exact() {
    for n in [1, 2, 3, 1_000] {
        check_table(n);
    }
}

/// `Scale::smoke()`: 40 k items at footprint 0.25.
#[test]
fn thresholds_are_exact_at_smoke_scale() {
    check_table(10_000);
}

/// `Scale::default_scale()`: footprint 0.5.
#[test]
fn thresholds_are_exact_at_default_scale() {
    check_table(20_000);
}

/// `Scale::paper()`: `YcsbConfig::with_mix`'s 40 k items.
#[test]
fn thresholds_are_exact_at_paper_scale() {
    check_table(40_000);
}

/// The paper-native scale: footprint 64. It evaluates the definition
/// about 330 M times, so it runs only on request, in release builds.
#[test]
#[ignore = "2.56 M items; run with --release -- --include-ignored"]
fn thresholds_are_exact_at_paper_native_scale() {
    check_table(2_560_000);
}

proptest! {
    /// For any domain size, the table-driven item sequence equals
    /// `ScrambledZipfian::next_item` from the same seed.
    #[test]
    fn table_items_match_scrambled_zipfian(n in 1u64..50_000, seed in any::<u64>()) {
        let dist = ZipfianDist::new(n, YCSB_THETA);
        let table = ZipfianTable::new(&dist);
        let mut reference = ScrambledZipfian::from_dist(dist, seed);
        let mut draws = SmallRng::seed_from_u64(seed);
        for i in 0..2_000 {
            let rank = table.rank(draws.next_u64() >> 11) as u64;
            prop_assert_eq!(item_of_rank(rank, n), reference.next_item(), "n {} draw {}", n, i);
        }
    }
}
