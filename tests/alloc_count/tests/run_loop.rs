//! `Kernel::run_loop` makes no heap allocation and no reallocation.
//!
//! Every cell is built at smoke scale, trial 0, ratio 0.5, and its run
//! loop is counted from the first dispatch to the last event; workload
//! generation (each stream's `refill`) is not counted. The cells are the
//! kernel golden's matrix — TPC-H, PageRank and YCSB-A/B/C under Clock and
//! default MG-LRU on SSD and ZRAM — plus the `faults` experiment's faulted
//! cells, the kernel golden's harsh fault plan (on an SSD under TPC-H and on
//! ZRAM under YCSB-A), an SSD that fails for good and a near-empty ZRAM
//! pool. Between them these run device stalls, transient I/O errors with
//! retries, injected ZRAM errors, aborted evictions, ZRAM pool
//! rejections, pressure balloons, SIGBUS-style and OOM kills, and killed
//! threads leaving PageRank's barriers. The buffered-I/O workload (tiny
//! and default configurations, both policies, both media) runs
//! file-backed pages through fd reads and MG-LRU's refault tiers and PID
//! controller; it never writes a file page, so file write-back is not
//! counted.
//!
//! Each counted run must also produce the same metrics as the plain
//! `Kernel::run` of the same cell, so the count is of the real run.

use alloc_count::{count, Counts, Uncounted};
use pagesim::experiments::{CellQuery, Scale, Wl};
use pagesim::{FaultConfig, Kernel, PolicyChoice, RunMetrics, SwapChoice, SystemConfig};
use pagesim_engine::rng::trial_seed;
use pagesim_engine::{FaultPlan, PressureStep, MILLISECOND, SECOND};
use pagesim_workloads::buffered::{BufferedIoConfig, BufferedIoWorkload};
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::Workload;

const POLICIES: [PolicyChoice; 2] = [PolicyChoice::Clock, PolicyChoice::MgLruDefault];
const SWAPS: [SwapChoice; 2] = [SwapChoice::Ssd, SwapChoice::Zram];

/// The workload `Bench::new(Scale::smoke())` runs for `wl`.
fn smoke_workload(wl: Wl) -> Box<dyn Workload> {
    let f = Scale::smoke().footprint;
    let ycsb = |mix| {
        let mut cfg = YcsbConfig::with_mix(mix);
        cfg.items = ((cfg.items as f64 * f) as u32).max(1_000);
        cfg.requests = ((cfg.requests as f64 * f) as u64).max(10_000);
        Box::new(YcsbWorkload::new(cfg, 0xD00D))
    };
    match wl {
        Wl::Tpch => Box::new(TpchWorkload::new(TpchConfig::default().scaled(f))),
        Wl::PageRank => Box::new(PageRankWorkload::new(
            PageRankConfig::default().scaled(f),
            0xD00D,
        )),
        Wl::YcsbA => ycsb(YcsbMix::A),
        Wl::YcsbB => ycsb(YcsbMix::B),
        Wl::YcsbC => ycsb(YcsbMix::C),
    }
}

/// A counted cell: its name in reports, its system and its workload.
type Cell<'a> = (String, SystemConfig, &'a dyn Workload);

fn cell(q: CellQuery, workload: &dyn Workload) -> Cell<'_> {
    (q.ident(), q.system_config(), workload)
}

/// Counts trial 0 of a cell's run loop and checks that the counted run is
/// the plain run of the same cell.
fn counted_run((ident, config, workload): &Cell) -> (RunMetrics, Counts) {
    let seed = trial_seed(Scale::smoke().seed, 0);
    let mut kernel = Kernel::build(config, &Uncounted(*workload), seed);
    let ((), counts) = count(|| kernel.run_loop());
    let metrics = kernel.finalize();
    let plain = Kernel::build(config, *workload, seed).run();
    assert_eq!(
        metrics.to_cache_text(),
        plain.to_cache_text(),
        "{ident}: the counted run differs from the plain run"
    );
    assert_eq!(metrics.error, None, "{ident}: run ended in an error");
    (metrics, counts)
}

/// Runs every cell and reports all that allocated at once.
fn assert_allocation_free(cells: &[Cell]) -> Vec<RunMetrics> {
    let mut bad = Vec::new();
    let mut runs = Vec::new();
    for c in cells {
        let (m, counts) = counted_run(c);
        if counts != Counts::default() {
            bad.push(format!(
                "{}: {} allocs, {} reallocs",
                c.0, counts.allocs, counts.reallocs
            ));
        }
        runs.push(m);
    }
    assert!(
        bad.is_empty(),
        "the run loop allocated:\n{}",
        bad.join("\n")
    );
    runs
}

fn healthy(wl: Wl) {
    let workload = smoke_workload(wl);
    let cells: Vec<_> = POLICIES
        .iter()
        .flat_map(|&p| SWAPS.map(|s| cell(CellQuery::healthy(wl, p, s, 0.5), &*workload)))
        .collect();
    assert_allocation_free(&cells);
}

#[test]
fn tpch_run_loop_allocates_nothing() {
    healthy(Wl::Tpch);
}

#[test]
fn pagerank_run_loop_allocates_nothing() {
    healthy(Wl::PageRank);
}

#[test]
fn ycsb_a_run_loop_allocates_nothing() {
    healthy(Wl::YcsbA);
}

#[test]
fn ycsb_b_run_loop_allocates_nothing() {
    healthy(Wl::YcsbB);
}

#[test]
fn ycsb_c_run_loop_allocates_nothing() {
    healthy(Wl::YcsbC);
}

/// File-backed pages (see the module doc). The MG-LRU cells must protect
/// a tier, so the refault tiers and PID controller run.
#[test]
fn buffered_io_run_loops_allocate_nothing() {
    let workloads = [
        ("tiny", BufferedIoWorkload::new(BufferedIoConfig::tiny())),
        (
            "default",
            BufferedIoWorkload::new(BufferedIoConfig::default()),
        ),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for (size, workload) in &workloads {
        for policy in POLICIES {
            for swap in SWAPS {
                let ident = format!("buffered-io {size}/{}/{swap:?}", policy.label());
                let config = SystemConfig::new(policy, swap).capacity_ratio(0.5);
                cells.push((ident, config, workload));
            }
        }
    }
    let runs = assert_allocation_free(&cells);
    for ((ident, config, _), m) in cells.iter().zip(&runs) {
        let mglru = config.policy == PolicyChoice::MgLruDefault;
        assert!(
            !mglru || m.policy.tier_protected > 0,
            "{ident}: no tier protected"
        );
    }
}

/// The kernel golden's fault cell: transient swap-in errors, a balloon
/// taking a fifth of memory early, and an OOM killer that fires after a
/// short run of starved allocations.
fn harsh_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            error_rate: 0.05,
            fail_permanently_at: None,
            stall: None,
            pressure: vec![PressureStep {
                at: 5 * MILLISECOND,
                frac: 0.2,
                duration: SECOND,
            }],
        },
        max_io_retries: 2,
        oom_after_stalls: Some(16),
        ..FaultConfig::none()
    }
}

/// An SSD that fails for good mid-run: swap-ins after the cliff kill their
/// task (the SIGBUS path), and the OOM killer ends the starvation that
/// follows once nothing can be written out.
fn dying_ssd() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            fail_permanently_at: Some(300 * MILLISECOND),
            ..FaultPlan::none()
        },
        oom_after_stalls: Some(16),
        ..FaultConfig::none()
    }
}

/// A near-empty compressed pool: ZRAM rejects stores, dirty evictions
/// abort, and the OOM killer frees memory.
fn tiny_zram_pool() -> FaultConfig {
    FaultConfig {
        zram_capacity_bytes: Some(64 * 1024),
        oom_after_stalls: Some(16),
        ..FaultConfig::none()
    }
}

#[test]
fn faulted_run_loops_allocate_nothing() {
    use PolicyChoice::{Clock, MgLruDefault};
    use SwapChoice::{Ssd, Zram};
    let tpch = smoke_workload(Wl::Tpch);
    let pagerank = smoke_workload(Wl::PageRank);
    let ycsb_a = smoke_workload(Wl::YcsbA);
    // The `faults` experiment's faulted cells.
    let mut cells = Vec::new();
    for (wl, workload) in [(Wl::Tpch, &*tpch), (Wl::YcsbA, &*ycsb_a)] {
        for policy in POLICIES {
            let q = CellQuery::faulted(wl, policy, Ssd, 0.5, FaultConfig::stalling_ssd());
            cells.push(cell(q, workload));
        }
    }
    for (wl, workload, policy, swap, faults) in [
        (Wl::Tpch, &*tpch, Clock, Ssd, harsh_faults()),
        (Wl::Tpch, &*tpch, Clock, Ssd, dying_ssd()),
        // PageRank's OOM kills detach threads from its barriers.
        (Wl::PageRank, &*pagerank, MgLruDefault, Ssd, dying_ssd()),
        (Wl::Tpch, &*tpch, MgLruDefault, Zram, tiny_zram_pool()),
        // Injected errors on ZRAM, beside update writes on the same path.
        (Wl::YcsbA, &*ycsb_a, MgLruDefault, Zram, harsh_faults()),
    ] {
        let q = CellQuery::faulted(wl, policy, swap, 0.5, faults);
        cells.push(cell(q, workload));
    }
    let runs = assert_allocation_free(&cells);

    // The cells must keep running the paths they are here for.
    let total = |f: fn(&RunMetrics) -> u64| runs.iter().map(f).sum::<u64>();
    assert!(
        total(|m| m.swap_stats.stall_delay_ns) > 0,
        "no device stall"
    );
    assert!(total(|m| m.io_retries) > 0, "no retried I/O error");
    assert!(total(|m| m.eviction_aborts) > 0, "no aborted eviction");
    assert!(
        total(|m| m.swap_stats.pool_rejections) > 0,
        "no ZRAM pool rejection"
    );
    assert!(total(|m| m.alloc_stalls) > 0, "no starved allocation");
    assert!(total(|m| m.io_kills) > 0, "no SIGBUS-style kill");
    assert!(total(|m| m.oom_kills) > 0, "no OOM kill");
    assert!(
        total(|m| m.kill_freed_frames) > 0,
        "no frames freed by a kill"
    );
    assert!(total(|m| m.pressure_frames_taken) > 0, "no balloon");
    // The last cell's ZRAM has no pool bound, so its errors are injected.
    assert!(
        runs.last().is_some_and(|m| m.swap_stats.io_errors > 0),
        "no injected ZRAM error"
    );
}
