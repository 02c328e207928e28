//! Cross-crate determinism: a run is a pure function of (config, seed).
//! The paper's methodology (25 executions per cell) only makes sense if
//! trial-to-trial variation comes from the modeled sources, not from
//! incidental nondeterminism in the simulator.

use pagesim::{Experiment, FaultConfig, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_engine::{FaultPlan, PressureStep, StallPlan, MILLISECOND, SECOND};
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::Workload;

fn config(policy: PolicyChoice, swap: SwapChoice) -> SystemConfig {
    SystemConfig::new(policy, swap).capacity_ratio(0.5).cores(4)
}

fn assert_deterministic(w: &(dyn Workload + Sync), policy: PolicyChoice, swap: SwapChoice) {
    let e = Experiment::new(config(policy, swap));
    let a = e.run(w, 99);
    let b = e.run(w, 99);
    assert_eq!(a.runtime_ns, b.runtime_ns, "{} runtime", policy.label());
    assert_eq!(a.major_faults, b.major_faults);
    assert_eq!(a.minor_faults, b.minor_faults);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.policy, b.policy, "policy counters must replay exactly");
    assert_eq!(
        a.read_latency.count(),
        b.read_latency.count(),
        "request accounting must replay"
    );
}

#[test]
fn tpch_replays_bit_exact() {
    let w = TpchWorkload::new(TpchConfig::tiny());
    for policy in [
        PolicyChoice::Clock,
        PolicyChoice::MgLruDefault,
        PolicyChoice::MgLruScanRand,
    ] {
        assert_deterministic(&w, policy, SwapChoice::Zram);
    }
}

#[test]
fn pagerank_replays_bit_exact_on_both_media() {
    let w = PageRankWorkload::new(PageRankConfig::tiny(), 5);
    assert_deterministic(&w, PolicyChoice::MgLruDefault, SwapChoice::Ssd);
    assert_deterministic(&w, PolicyChoice::Clock, SwapChoice::Zram);
}

#[test]
fn ycsb_replays_bit_exact() {
    let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 5);
    assert_deterministic(&w, PolicyChoice::MgLruDefault, SwapChoice::Zram);
}

#[test]
fn different_seeds_diverge() {
    let w = TpchWorkload::new(TpchConfig::tiny());
    let e = Experiment::new(config(PolicyChoice::MgLruDefault, SwapChoice::Zram));
    let a = e.run(&w, 1);
    let b = e.run(&w, 2);
    assert!(
        a.runtime_ns != b.runtime_ns || a.major_faults != b.major_faults,
        "seed must matter"
    );
}

/// A plan that engages every fault path at tiny-workload timescales:
/// transient errors, stall windows, a pressure balloon, and the OOM killer.
fn aggressive_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            error_rate: 0.02,
            fail_permanently_at: None,
            stall: Some(StallPlan {
                first_onset: MILLISECOND,
                period: 4 * MILLISECOND,
                onset_jitter: 200_000,
                duration: 800_000,
                duration_jitter: 200_000,
            }),
            pressure: vec![PressureStep {
                at: 500_000,
                frac: 0.2,
                duration: SECOND,
            }],
        },
        oom_after_stalls: Some(64),
        ..FaultConfig::none()
    }
}

#[test]
fn faulty_runs_replay_byte_identically() {
    // Same seed + same fault plan -> byte-identical reports, for both
    // policies and both media. The Debug rendering covers every counter,
    // histogram summary, and the error field at once.
    let w = TpchWorkload::new(TpchConfig::tiny());
    for (policy, swap) in [
        (PolicyChoice::Clock, SwapChoice::Ssd),
        (PolicyChoice::MgLruDefault, SwapChoice::Zram),
    ] {
        let e = Experiment::new(config(policy, swap).faults(aggressive_faults()));
        let a = e.run(&w, 41);
        let b = e.run(&w, 41);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{} on {swap:?} must replay under faults",
            policy.label()
        );
        let c = e.run(&w, 42);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds must draw different fault sequences"
        );
    }
}

#[test]
fn default_fault_config_is_zero_drift() {
    // A config that never mentions faults and one with the explicit empty
    // fault model must produce byte-identical reports.
    let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 5);
    let base = config(PolicyChoice::MgLruDefault, SwapChoice::Ssd);
    let with_none = base.clone().faults(FaultConfig::none());
    let a = Experiment::new(base).run(&w, 9);
    let b = Experiment::new(with_none).run(&w, 9);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a.io_errors, 0);
    assert_eq!(a.oom_kills, 0);
    assert_eq!(a.error, None);
}

#[test]
fn trial_sets_are_order_independent() {
    // Trial i is seeded from (master seed, i) alone, so a set replays
    // exactly, whichever executor ran its trials in whatever order.
    let w = TpchWorkload::new(TpchConfig::tiny());
    let e = Experiment::new(config(PolicyChoice::Clock, SwapChoice::Zram));
    let a = e.run_trials(&w, 7, 4);
    let b = e.run_trials(&w, 7, 4);
    assert_eq!(a.runtimes(), b.runtimes());
    assert_eq!(a.faults(), b.faults());
}
