//! Positive sanitize coverage: a smoke-scale sweep of fig1 (the headline
//! runtime comparison) and the fault-injection figure runs end to end with
//! the DEBUG_VM-style invariant sweep live at every quiesce point. Any
//! bookkeeping drift panics with a `sanitize:` message and fails the test.

#![cfg(feature = "sanitize")]

use pagesim::experiments::{self, Bench, Scale};
use pagesim_bench::sweep::{run_sweep, SweepOptions};

#[test]
fn smoke_sweep_runs_clean_under_sanitizer() {
    let bench = Bench::new(Scale {
        trials: 1,
        footprint: 0.12,
        seed: 7,
        page_compression: None,
    });
    let figs = vec!["fig1".to_string(), "faults".to_string()];
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: None,
        trace: None,
        ..SweepOptions::default()
    };
    let stats = run_sweep(&bench, &figs, &opts);
    assert!(stats.cells > 0, "sweep planned no cells");
    // Both figures render from the cells the sanitized sweep installed.
    let fig1 = experiments::fig1(&bench).to_string();
    let faults = experiments::faults(&bench).to_string();
    assert!(!fig1.is_empty() && !faults.is_empty());
}
