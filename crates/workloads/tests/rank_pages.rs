//! The PageRank rank-page table against its definition.
//!
//! `RankPageTable::page(m)` must equal the rank page of
//! `PowerLawGraph::neighbor_of_draw(m)` for every draw `m`: the PageRank
//! streams emit the table's page in place of the warped neighbor's.

use proptest::prelude::*;

use pagesim_engine::rng::splitmix64;
use pagesim_mem::PAGE_SIZE;
use pagesim_workloads::graph::{PowerLawGraph, DRAWS};
use pagesim_workloads::pagerank::RankPageTable;

/// The rank page a draw selects, by definition: the neighbor's 8-byte
/// rank entry, divided into pages.
fn reference_page(g: &PowerLawGraph, m: u64) -> u32 {
    (g.neighbor_of_draw(m) as u64 * 8 / PAGE_SIZE as u64) as u32
}

/// Neighbor draws depend only on the vertex count and the skew; a graph
/// with one edge per vertex is the cheapest that has them.
fn graph(vertices: u32, skew: f64) -> PowerLawGraph {
    PowerLawGraph::new(vertices, vertices as u64, skew, 1)
}

/// Every threshold is the least draw of its page, and the table agrees
/// with the definition on every draw within 64 of a threshold.
fn check_thresholds(vertices: u32) {
    let g = graph(vertices, 0.6);
    let table = RankPageTable::new(&g);
    let pages = (vertices as u64 * 8).div_ceil(PAGE_SIZE as u64) as usize;
    assert_eq!(table.thresholds().len(), pages - 1);
    for (i, &t) in table.thresholds().iter().enumerate() {
        let k = i as u32 + 1;
        assert!(reference_page(&g, t) >= k, "page {k}: draw {t} is below it");
        assert!(
            reference_page(&g, t - 1) < k,
            "page {k}: draw {} is in it",
            t - 1
        );
        for m in t.saturating_sub(64)..(t + 65).min(DRAWS) {
            assert_eq!(
                table.page(m),
                reference_page(&g, m),
                "V={vertices} draw {m}"
            );
        }
    }
}

#[test]
fn thresholds_are_exact_at_tiny_scale() {
    check_thresholds(2_000);
}

/// `PageRankConfig::default().scaled(0.25)`: the smoke scale.
#[test]
fn thresholds_are_exact_at_smoke_scale() {
    check_thresholds(131_072);
}

/// `PageRankConfig::default().scaled(0.5)`: the default scale.
#[test]
fn thresholds_are_exact_at_default_scale() {
    check_thresholds(262_144);
}

/// `PageRankConfig::default()`: the paper scale.
#[test]
fn thresholds_are_exact_at_paper_scale() {
    check_thresholds(524_288);
}

/// `PageRankConfig::default().scaled(64.0)`: the paper-native scale. Its
/// graph takes ~700 MB, so it runs only on request, in release builds.
#[test]
#[ignore = "paper-native graph; run with --release -- --include-ignored"]
fn thresholds_are_exact_at_paper_native_scale() {
    check_thresholds(33_554_432);
}

#[test]
fn first_and_last_draws_hit_first_and_last_pages() {
    let g = graph(524_288, 0.6);
    let table = RankPageTable::new(&g);
    assert_eq!(table.page(0), 0);
    assert_eq!(table.page(DRAWS - 1), reference_page(&g, DRAWS - 1));
    assert_eq!(table.page(DRAWS - 1), 1_023);
}

proptest! {
    /// For any vertex count and skew, the table agrees with the
    /// definition on random draws.
    #[test]
    fn table_matches_definition_on_random_draws(
        vertices in 1u32..300_000,
        skew in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let g = graph(vertices, skew);
        let table = RankPageTable::new(&g);
        let mut h = seed;
        for _ in 0..2_000 {
            h = splitmix64(h);
            let m = h >> 11;
            prop_assert_eq!(table.page(m), reference_page(&g, m), "draw {}", m);
        }
    }
}
