//! Determinism tests for the `repro vmstat` observability report.
//!
//! The report annotates golden-diffed figures, so it inherits their
//! contract: byte-identical output whether cells were computed by a
//! serial sweep, by a cold parallel sweep, or replayed from a warm cache
//! — and identical sweep-summary observability counters (`shadow=`,
//! `ws_refault=`) either way.

use std::path::PathBuf;

use pagesim::experiments::{Bench, Scale};
use pagesim_bench::sweep::{run_sweep, SweepOptions};
use pagesim_bench::vmstat::vmstat_report;

fn tiny_bench() -> Bench {
    Bench::new(Scale {
        trials: 2,
        footprint: 0.12,
        seed: 7,
        page_compression: None,
    })
}

/// A unique scratch cache directory per test (no tempfile crate in the
/// offline build).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pagesim-vmstat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn vmstat_report_is_identical_across_jobs_and_warm_cache() {
    let fig = "fig1";
    let figs = vec![fig.to_string()];
    let dir = scratch_dir("warm");

    // Serial, uncached sweep: the reference rendering.
    let reference = tiny_bench();
    let serial = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    run_sweep(&reference, &figs, &serial);
    let golden = vmstat_report(&reference, fig);
    assert!(golden.contains("workingset_refault "));

    // Cold parallel sweep into a journalled cache.
    let bench = tiny_bench();
    let opts = SweepOptions {
        jobs: 4,
        cache_dir: Some(dir.clone()),
        journal: Some(dir.join("journal.jsonl")),
        ..SweepOptions::default()
    };
    let cold = run_sweep(&bench, &figs, &opts);
    assert_eq!(cold.cache_misses, cold.trials, "cold cache");
    assert!(cold.shadow > 0, "evictions must leave shadow entries");
    assert!(cold.ws_refault > 0, "50% capacity must refault");
    assert_eq!(vmstat_report(&bench, fig), golden, "cold jobs=4");

    // Serial warm rerun: every trial replays from the cache.
    let bench = tiny_bench();
    let warm_opts = SweepOptions { jobs: 1, ..opts };
    let warm = run_sweep(&bench, &figs, &warm_opts);
    assert_eq!(warm.cache_hits, warm.trials, "warm cache");
    // The observability counters flow through the cache codec unchanged.
    assert_eq!(
        (warm.shadow, warm.ws_refault),
        (cold.shadow, cold.ws_refault)
    );
    assert_eq!(vmstat_report(&bench, fig), golden, "warm jobs=1");

    let _ = std::fs::remove_dir_all(&dir);
}
