//! End-to-end accounting invariants: whatever the policy or medium, the
//! kernel's books must balance.

use pagesim::{Experiment, PolicyChoice, RunMetrics, SwapChoice, SystemConfig};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};

fn run(policy: PolicyChoice, swap: SwapChoice, ratio: f64) -> RunMetrics {
    let w = TpchWorkload::new(TpchConfig::tiny());
    let c = SystemConfig::new(policy, swap)
        .capacity_ratio(ratio)
        .cores(4);
    Experiment::new(c).run(&w, 3)
}

fn check_books(m: &RunMetrics) {
    // Every eviction either wrote to swap or dropped a clean copy.
    assert_eq!(
        m.evictions,
        m.swap_outs + m.clean_drops,
        "evictions must be writes + clean drops"
    );
    // Every major fault read the device exactly once (anon-only workload).
    assert_eq!(
        m.major_faults, m.swap_stats.reads,
        "one device read per major fault"
    );
    // Every swap-out is one device write.
    assert_eq!(m.swap_outs, m.swap_stats.writes);
    // A page must fault in before it can be evicted.
    assert!(m.minor_faults + m.major_faults >= m.evictions);
    // First touches are bounded by the footprint.
    assert!(m.minor_faults <= m.footprint_pages as u64);
    // CPU time was consumed and runtime advanced.
    assert!(m.app_cpu_ns > 0 && m.runtime_ns > 0);
}

#[test]
fn books_balance_under_pressure_all_policies() {
    for policy in PolicyChoice::paper_set() {
        let m = run(policy, SwapChoice::Zram, 0.5);
        assert!(m.major_faults > 0, "{}: pressure sanity", policy.label());
        check_books(&m);
    }
}

#[test]
fn books_balance_on_ssd() {
    for policy in [PolicyChoice::Clock, PolicyChoice::MgLruDefault] {
        check_books(&run(policy, SwapChoice::Ssd, 0.5));
    }
}

#[test]
fn books_balance_without_pressure() {
    let m = run(PolicyChoice::MgLruDefault, SwapChoice::Zram, 1.0);
    assert_eq!(m.major_faults, 0);
    assert_eq!(m.swap_outs, 0);
    assert_eq!(m.evictions, 0, "no pressure, no reclaim");
    // Every distinct touched page first-faults exactly once; query windows
    // mean not every page of the footprint is necessarily touched.
    assert!(m.minor_faults > 0 && m.minor_faults <= m.footprint_pages as u64);
}

#[test]
fn clean_drop_fast_path_saves_writes() {
    // Read-mostly re-faulted pages must not be re-written to swap: the
    // swap-cache fast path keeps writes strictly below evictions under a
    // rescan-heavy workload.
    let m = run(PolicyChoice::Clock, SwapChoice::Zram, 0.5);
    assert!(m.clean_drops > 0, "fast path never used");
    assert!(m.swap_outs < m.evictions);
}

#[test]
fn ycsb_request_accounting_is_complete() {
    let cfg = YcsbConfig::tiny(YcsbMix::A);
    let w = YcsbWorkload::new(cfg, 5);
    let c = SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Zram)
        .capacity_ratio(0.5)
        .cores(4);
    let m = Experiment::new(c).run(&w, 4);
    let measured = m.read_latency.count() + m.write_latency.count();
    let expected = (cfg.requests as f64 * (1.0 - cfg.warmup_fraction)) as u64;
    assert_eq!(
        measured, expected,
        "every non-warmup request must be recorded"
    );
    assert!(m.read_latency.value_at_percentile(50.0) > 0);
}

#[test]
fn capacity_ratio_monotonically_reduces_faults() {
    let w = TpchWorkload::new(TpchConfig::tiny());
    let mut last = u64::MAX;
    for ratio in [0.5, 0.75, 0.9] {
        let c = SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Zram)
            .capacity_ratio(ratio)
            .cores(4);
        let m = Experiment::new(c).run(&w, 9);
        assert!(
            m.major_faults <= last,
            "more memory must not mean more faults ({ratio}: {} vs {last})",
            m.major_faults
        );
        last = m.major_faults;
    }
}
