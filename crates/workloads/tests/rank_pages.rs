//! The PageRank rank-page tables against their definition.
//!
//! `RankPageTable::page(m)` must equal the rank page of
//! `PowerLawGraph::neighbor_of_draw(m)` for every draw `m`, and entry
//! `offset(v) + i` of `PageRankWorkload::edge_pages` the rank page of
//! edge `(v, i)`'s draw: the PageRank streams emit the edge table's page
//! in place of the warped neighbor's.

use proptest::prelude::*;

use pagesim_engine::rng::splitmix64;
use pagesim_mem::PAGE_SIZE;
use pagesim_workloads::graph::{PowerLawGraph, DRAWS};
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload, RankPageTable};

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

/// The edge table agrees with the definition on every `stride`-th edge.
fn check_edges(w: &PageRankWorkload, stride: u64) -> Result<(), String> {
    let g = w.graph();
    let pages = w.edge_pages();
    if pages.len() as u64 != g.edges() {
        return Err(format!("{} entries for {} edges", pages.len(), g.edges()));
    }
    for v in 0..g.vertices() {
        let (first, end) = (g.edge_offset(v), g.edge_offset(v + 1));
        // The least multiple of `stride` at or after `first`.
        for e in (first.div_ceil(stride) * stride..end).step_by(stride as usize) {
            let i = (e - first) as u32;
            let (got, want) = (pages[e as usize], reference_page(g, g.neighbor_draw(v, i)));
            if u32::from(got) != want {
                return Err(format!("edge ({v}, {i}): table {got}, definition {want}"));
            }
        }
    }
    Ok(())
}

/// The workload `Bench::new` builds at scale footprint `factor`.
fn bench_workload(factor: f64) -> PageRankWorkload {
    PageRankWorkload::new(PageRankConfig::default().scaled(factor), 0xD00D)
}

#[test]
fn edge_table_is_exact_on_every_edge_at_smoke_scale() {
    check_edges(&bench_workload(0.25), 1).unwrap();
}

#[test]
fn edge_table_is_exact_on_every_edge_at_default_scale() {
    check_edges(&bench_workload(0.5), 1).unwrap();
}

#[test]
fn edge_table_is_exact_on_a_stride_sample_at_paper_scale() {
    check_edges(&bench_workload(1.0), 61).unwrap();
}

/// The paper-native table has 332 M entries (634 MiB) and takes seconds
/// to build, so it runs only on request, in release builds.
#[test]
#[ignore = "paper-native table; run with --release -- --include-ignored"]
fn edge_table_is_exact_on_every_edge_at_paper_native_scale() {
    check_edges(&bench_workload(64.0), 1).unwrap();
}

/// One rank page past what a `u16` entry can name. The bound is checked
/// before the graph is built, so this costs nothing.
#[test]
#[should_panic(expected = "at most 2^16")]
fn a_rank_array_past_2_pow_16_pages_is_rejected() {
    let cfg = PageRankConfig {
        vertices: (1 << 25) + 1,
        ..PageRankConfig::default()
    };
    PageRankWorkload::new(cfg, 1);
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
/// graph takes ~260 MB, so it runs only on request, in release builds.
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

    /// For any small graph, the edge table agrees with the definition on
    /// every edge.
    #[test]
    fn edge_table_matches_definition_on_every_edge(
        vertices in 1u32..100_000,
        edges in 1u64..200_000,
        skew in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let cfg = PageRankConfig {
            vertices,
            edges,
            skew,
            ..PageRankConfig::tiny()
        };
        check_edges(&PageRankWorkload::new(cfg, seed), 1)?;
    }
}
