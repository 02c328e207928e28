//! Swap-medium shape assertions (§V-D of the paper): ZRAM collapses
//! runtime, equalizes Clock and MG-LRU throughput, and shifts costs from
//! device waits to CPU.

use pagesim::experiments::{fig11, fig9, Bench, Scale, Wl};
use pagesim::{Experiment, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_bench::sweep::{run_sweep, SweepOptions};
use pagesim_policy::MgLruConfig;
use pagesim_workloads::buffered::{BufferedIoConfig, BufferedIoWorkload};

/// A bench holding every cell of `fig`.
fn bench(fig: &str) -> Bench {
    let b = Bench::new(Scale {
        trials: 4,
        footprint: 0.25,
        seed: 0xFEED,
        page_compression: None,
    });
    run_sweep(&b, &[fig.to_owned()], &SweepOptions::default());
    b
}

#[test]
fn fig11_zram_is_dramatically_faster() {
    // Fig. 11: switching to ZRAM collapses runtime on every workload
    // (the paper measures the media two orders of magnitude apart).
    let b = bench("fig11");
    let f = fig11(&b);
    for row in &f.rows {
        assert!(
            row.runtime_ratio < 0.5,
            "{}/{}: zram only {:.2}x of ssd runtime",
            row.workload.label(),
            row.policy.label(),
            row.runtime_ratio
        );
        // Fault volume stays the same order of magnitude: the speedup is
        // about cost per fault, not fewer faults.
        assert!(
            (0.5..2.0).contains(&row.fault_ratio),
            "{}/{}: fault ratio {:.2}",
            row.workload.label(),
            row.policy.label(),
            row.fault_ratio
        );
    }
}

#[test]
fn fig9_clock_matches_mglru_under_zram() {
    // Fig. 9: with ZRAM swap Clock's throughput catches up with MG-LRU
    // (the rmap-walk overhead MG-LRU avoids no longer hides behind 7.5ms
    // device waits — but it is also small in absolute terms).
    let b = bench("fig9");
    let f = fig9(&b);
    for wl in [Wl::Tpch, Wl::YcsbA, Wl::YcsbB, Wl::YcsbC] {
        let clock = f.norm(wl, PolicyChoice::Clock).unwrap();
        assert!(
            (0.7..1.35).contains(&clock),
            "{}: clock/mglru = {clock:.3} under zram",
            wl.label()
        );
    }
}

#[test]
fn zram_shifts_cost_to_cpu() {
    // ZRAM swap work is compression on the faulting/reclaiming thread:
    // kernel+app CPU per fault must be far higher than the SSD run's,
    // where the device does the waiting.
    let w = BufferedIoWorkload::new(BufferedIoConfig::tiny());
    let run = |swap| {
        let c = SystemConfig::new(PolicyChoice::MgLruDefault, swap)
            .capacity_ratio(0.5)
            .cores(4);
        Experiment::new(c).run(&w, 8)
    };
    let ssd = run(SwapChoice::Ssd);
    let zram = run(SwapChoice::Zram);
    assert!(zram.runtime_ns < ssd.runtime_ns / 2);
    // Same device-read counts (same fault demand order of magnitude)...
    assert!(zram.major_faults > 0 && ssd.major_faults > 0);
    // ...but the zram run did its swap work on the CPU.
    let zram_cpu_per_fault = zram.kernel_cpu_ns as f64 / zram.swap_outs.max(1) as f64;
    assert!(
        zram_cpu_per_fault > 20_000.0,
        "zram swap-out must cost >= 20us CPU each, got {zram_cpu_per_fault:.0}ns"
    );
}

#[test]
fn pid_tier_protection_helps_buffered_io() {
    // The §III-D machinery (our extension experiment): with the refault
    // PID controller active, the hot fd-read subset is protected and the
    // workload faults less than with the controller zeroed out.
    let w = BufferedIoWorkload::new(BufferedIoConfig::default());
    let run = |gains| {
        let policy = PolicyChoice::MgLruCustom(MgLruConfig {
            pid_gains: gains,
            ..MgLruConfig::kernel_default()
        });
        let c = SystemConfig::new(policy, SwapChoice::Ssd)
            .capacity_ratio(0.5)
            .cores(4);
        Experiment::new(c).run(&w, 2)
    };
    let on = run((1.0, 0.0, 0.0));
    let off = run((0.0, 0.0, 0.0));
    assert!(on.policy.tier_protected > 0, "controller never protected");
    assert_eq!(off.policy.tier_protected, 0, "zero gains must not protect");
    assert!(
        on.major_faults < off.major_faults,
        "protection must reduce faults ({} vs {})",
        on.major_faults,
        off.major_faults
    );
}
