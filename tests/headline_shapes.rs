//! Reduced-scale shape assertions for the paper's headline findings.
//!
//! These run the real experiment drivers at smoke scale and assert the
//! *relationships* the paper reports (who wins, spreads, correlations) —
//! not absolute numbers. See EXPERIMENTS.md for the full-scale record.

use pagesim::experiments::{fig1, fig2, Bench, Scale, Wl};
use pagesim::PolicyChoice;
use pagesim_bench::sweep::{run_sweep, SweepOptions};

/// A bench holding every cell of `fig`.
fn bench(fig: &str) -> Bench {
    let b = Bench::new(Scale {
        trials: 5,
        footprint: 0.25,
        seed: 0xBEEF,
        page_compression: None,
    });
    run_sweep(&b, &[fig.to_owned()], &SweepOptions::default());
    b
}

#[test]
fn fig1_mglru_reduces_ycsb_faults() {
    // Fig. 1b: MG-LRU's wins come from decreased swapping; on the zipfian
    // YCSB workloads this is its most stable advantage.
    let b = bench("fig1");
    let f = fig1(&b);
    for row in &f.rows {
        if row.workload.is_ycsb() {
            assert!(
                row.faults_vs_clock < 1.02,
                "{}: mglru faults {}x clock",
                row.workload.label(),
                row.faults_vs_clock
            );
        }
        // Nothing should be catastrophically worse in either direction.
        assert!(
            (0.5..1.3).contains(&row.perf_vs_clock),
            "{}: implausible ratio {}",
            row.workload.label(),
            row.perf_vs_clock
        );
    }
}

#[test]
fn fig2_tpch_is_wide_and_linear() {
    // Fig. 2a: TPC-H runtimes spread several-fold for BOTH policies and
    // track faults almost perfectly (paper: r² > 0.98; spread ~3x).
    let b = bench("fig2");
    let f = fig2(&b);
    for cell in f.cells.iter().filter(|c| c.workload == Wl::Tpch) {
        assert!(
            cell.runtime_spread > 1.4,
            "{}: tpch spread only {:.2}x",
            cell.policy.label(),
            cell.runtime_spread
        );
        let r2 = cell.r_squared.expect("five trials fit a line");
        assert!(r2 > 0.9, "{}: tpch r2 {r2:.3}", cell.policy.label());
    }
}

#[test]
fn fig2_pagerank_clock_is_tight_mglru_is_wide() {
    // Fig. 2b: Clock's PageRank distribution is tight; MG-LRU's is
    // several times wider.
    let b = bench("fig2");
    let f = fig2(&b);
    let std_of = |policy: PolicyChoice| {
        let cell = f
            .cells
            .iter()
            .find(|c| c.workload == Wl::PageRank && c.policy == policy)
            .expect("cell");
        let rts: Vec<f64> = cell.points.iter().map(|p| p.0).collect();
        pagesim_stats::Summary::of(&rts).std
    };
    let clock = std_of(PolicyChoice::Clock);
    let mglru = std_of(PolicyChoice::MgLruDefault);
    assert!(
        mglru > clock,
        "mglru std {mglru:.3} must exceed clock std {clock:.3}"
    );
}

#[test]
fn fig2_pagerank_runtime_decouples_from_faults_for_mglru() {
    // Fig. 2b: PageRank runtime correlates with faults far less for
    // MG-LRU than TPC-H does (critical-path faults, not volume).
    let b = bench("fig2");
    let f = fig2(&b);
    let tpch_r2 = f
        .cells
        .iter()
        .find(|c| c.workload == Wl::Tpch && c.policy == PolicyChoice::MgLruDefault)
        .unwrap()
        .r_squared
        .unwrap();
    let pr_r2 = f
        .cells
        .iter()
        .find(|c| c.workload == Wl::PageRank && c.policy == PolicyChoice::MgLruDefault)
        .unwrap()
        .r_squared
        .unwrap();
    assert!(
        pr_r2 <= tpch_r2 + 0.05,
        "pagerank r2 ({pr_r2:.3}) should not exceed tpch's ({tpch_r2:.3})"
    );
}
