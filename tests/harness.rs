//! Tests of the figure harness itself: figure structure and cross-figure
//! consistency.

use pagesim::experiments::{fig1, fig10, fig2, fig4, fig9, Bench, Scale, Wl};
use pagesim::PolicyChoice;
use pagesim_bench::sweep::{run_sweep, SweepOptions};

/// A tiny bench holding every cell of `figs`.
fn tiny_bench(figs: &[&str]) -> Bench {
    let b = Bench::new(Scale {
        trials: 2,
        footprint: 0.12,
        seed: 7,
        page_compression: None,
    });
    let figs: Vec<String> = figs.iter().map(|f| f.to_string()).collect();
    run_sweep(&b, &figs, &SweepOptions::default());
    b
}

#[test]
fn figures_cover_their_declared_grids() {
    let b = tiny_bench(&["fig1", "fig4"]);
    let f1 = fig1(&b);
    assert_eq!(f1.rows.len(), 5, "fig1: one row per workload");
    let f2 = fig2(&b);
    assert_eq!(f2.cells.len(), 4, "fig2: 2 workloads x 2 policies");
    for c in &f2.cells {
        assert_eq!(c.points.len(), 2, "one point per trial");
    }
    let f4 = fig4(&b);
    assert_eq!(f4.rows.len(), 25, "fig4: 5 workloads x 5 variants");
    // The baseline rows are exactly 1.0 by construction.
    for wl in Wl::all() {
        let base = f4.perf(wl, PolicyChoice::MgLruDefault).unwrap();
        assert!((base - 1.0).abs() < 1e-12);
    }
}

#[test]
fn fig9_and_fig10_share_cells_and_baselines() {
    let b = tiny_bench(&["fig9"]);
    let f9 = fig9(&b);
    let f10 = fig10(&b);
    assert_eq!(f9.rows.len(), 30);
    assert_eq!(f10.rows.len(), 30);
    for wl in Wl::all() {
        assert!((f9.norm(wl, PolicyChoice::MgLruDefault).unwrap() - 1.0).abs() < 1e-12);
        assert!((f10.norm(wl, PolicyChoice::MgLruDefault).unwrap() - 1.0).abs() < 1e-12);
        // values are sane positives
        assert!(f9.norm(wl, PolicyChoice::Clock).unwrap() > 0.0);
        assert!(f10.norm(wl, PolicyChoice::Clock).unwrap() > 0.0);
    }
}

#[test]
fn figure_displays_render_tables() {
    let b = tiny_bench(&["fig1"]);
    let s = fig1(&b).to_string();
    assert!(s.contains("Fig 1"));
    assert!(s.contains("tpch"));
    assert!(s.contains("pagerank"));
    let s = fig2(&b).to_string();
    assert!(s.contains("r2"));
    assert!(s.contains("points"));
}
