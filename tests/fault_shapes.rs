//! Shape assertions for the fault-injection experiment: the degraded-SSD
//! scenario must actually exercise the fault machinery (errors, retries,
//! OOM kills, stall-inflated tails), and its results must be a pure
//! function of the seed like every other experiment.

use pagesim::experiments::{faults, Bench, Scale, Wl};
use pagesim::PolicyChoice;
use pagesim_bench::sweep::{run_sweep, SweepOptions};

/// A smoke-scale bench holding every cell of the fault study.
fn bench() -> Bench {
    let b = Bench::new(Scale::smoke());
    run_sweep(&b, &["faults".to_owned()], &SweepOptions::default());
    b
}

#[test]
fn faults_experiment_exercises_every_fault_path() {
    let f = faults(&bench());
    assert_eq!(f.rows.len(), 4, "2 workloads x 2 policies");

    let total =
        |g: fn(&pagesim::experiments::FaultsRow) -> u64| -> u64 { f.rows.iter().map(g).sum() };
    assert!(total(|r| r.io_errors) > 0, "no injected errors surfaced");
    assert!(total(|r| r.io_retries) > 0, "no swap-in retries happened");
    assert!(total(|r| r.oom_kills) > 0, "OOM killer never fired");
    assert!(total(|r| r.alloc_stalls) > 0, "no allocation stalls");
    assert!(
        total(|r| r.degraded_ns_per_trial) > 0,
        "no degraded time recorded"
    );

    for r in &f.rows {
        assert!(r.healthy_perf > 0.0);
        assert!(r.faulty_perf > 0.0);
        if r.workload.is_ycsb() {
            // Device stalls must show up in the extreme read tail: p99.99
            // under the stalling plan dwarfs the healthy tail.
            assert!(
                r.faulty_read_tail_ns[1] > 2 * r.healthy_read_tail_ns[1],
                "{}/{}: stalls not visible at p99.99 ({} vs {})",
                r.workload.label(),
                r.policy.label(),
                r.faulty_read_tail_ns[1],
                r.healthy_read_tail_ns[1],
            );
        }
    }
}

#[test]
fn faults_experiment_is_deterministic_per_seed() {
    let a = faults(&bench());
    let b = faults(&bench());
    assert_eq!(
        format!("{:?}", a.rows),
        format!("{:?}", b.rows),
        "faults experiment must replay exactly for a fixed seed"
    );
    // And the accessor finds the cells the grid declares.
    for wl in [Wl::Tpch, Wl::YcsbA] {
        for p in [PolicyChoice::Clock, PolicyChoice::MgLruDefault] {
            assert!(
                a.row(wl, p).is_some(),
                "missing {}/{}",
                wl.label(),
                p.label()
            );
        }
    }
}
