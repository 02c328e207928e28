//! The `faults` experiment: Clock vs MG-LRU on a degraded swap device.
//!
//! The paper's figures all assume a healthy device; this driver asks what
//! the same policy comparison looks like when the SSD periodically stalls
//! and occasionally fails ([`FaultConfig::stalling_ssd`]). Each cell runs
//! twice — once healthy, once faulted; both live in the shared cell
//! table (the fault plan is part of the content key, so a sweep can
//! compute and cache them like any figure cell) —
//! and the report puts the policies' degraded tails side by side with the
//! fault-path counters (retries, kills, allocation stalls, degraded time).

use std::fmt;

use pagesim_stats::LatencyHistogram;

use crate::config::{FaultConfig, PolicyChoice, SwapChoice};
use crate::report::Table;

use super::{Bench, CellQuery, Wl};

/// One (workload, policy) comparison under the stalling-SSD plan.
#[derive(Clone, Debug)]
pub struct FaultsRow {
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// Mean performance on the healthy device (runtime s, or request ns
    /// for YCSB — the paper's Fig. 1 convention).
    pub healthy_perf: f64,
    /// Mean performance on the degraded device, same units.
    pub faulty_perf: f64,
    /// Read tail on the healthy device: p99 and p99.99 (ns, YCSB only).
    pub healthy_read_tail_ns: [u64; 2],
    /// Read tail on the degraded device: p99 and p99.99 (ns, YCSB only).
    pub faulty_read_tail_ns: [u64; 2],
    /// Injected I/O errors over all trials.
    pub io_errors: u64,
    /// Swap-in retries over all trials.
    pub io_retries: u64,
    /// Tasks killed (OOM + unrecoverable I/O) over all trials.
    pub kills: u64,
    /// The OOM-killer share of `kills`.
    pub oom_kills: u64,
    /// Allocation stalls over all trials.
    pub alloc_stalls: u64,
    /// Mean per-trial degraded time (backoff + stall delay), ns.
    pub degraded_ns_per_trial: u64,
    /// Trials that ended with a [`crate::SimError`].
    pub errors: usize,
}

impl FaultsRow {
    /// Degraded-device slowdown relative to the healthy run.
    fn slowdown(&self) -> f64 {
        if self.healthy_perf > 0.0 {
            self.faulty_perf / self.healthy_perf
        } else {
            1.0
        }
    }
}

/// The faults experiment: policies compared on a degraded device.
#[derive(Clone, Debug)]
pub struct FaultsFigure {
    /// Capacity ratio used by every cell.
    pub ratio: f64,
    /// Rows, grouped by workload.
    pub rows: Vec<FaultsRow>,
}

impl FaultsFigure {
    /// The row for a specific cell, for shape assertions.
    pub fn row(&self, wl: Wl, policy: PolicyChoice) -> Option<&FaultsRow> {
        self.rows
            .iter()
            .find(|r| r.workload == wl && r.policy == policy)
    }
}

fn tail2(h: &LatencyHistogram) -> [u64; 2] {
    if h.count() == 0 {
        return [0, 0];
    }
    [h.value_at_percentile(99.0), h.value_at_percentile(99.99)]
}

/// The fault study's cells: each (workload, policy) pair healthy, then on
/// the stalling SSD.
pub(super) fn faults_cells() -> Vec<CellQuery> {
    let mut cells = Vec::new();
    for wl in [Wl::Tpch, Wl::YcsbA] {
        for policy in [PolicyChoice::Clock, PolicyChoice::MgLruDefault] {
            cells.push(CellQuery::healthy(wl, policy, SwapChoice::Ssd, 0.5));
            let plan = FaultConfig::stalling_ssd();
            cells.push(CellQuery::faulted(wl, policy, SwapChoice::Ssd, 0.5, plan));
        }
    }
    cells
}

/// Runs the faults experiment: a batch workload (TPC-H) and a
/// latency-sensitive one (YCSB-A), Clock vs default MG-LRU, on an SSD at
/// the paper's 50% capacity ratio, with [`FaultConfig::stalling_ssd`].
pub fn faults(bench: &Bench) -> FaultsFigure {
    let ratio = 0.5;
    let swap = SwapChoice::Ssd;
    let mut rows = Vec::new();
    for wl in [Wl::Tpch, Wl::YcsbA] {
        for policy in [PolicyChoice::Clock, PolicyChoice::MgLruDefault] {
            let healthy = bench.cell(wl, policy, swap, ratio);
            let faulty = bench.fault_cell(wl, policy, swap, ratio, FaultConfig::stalling_ssd());
            let trials = faulty.runs.len().max(1) as u64;
            rows.push(FaultsRow {
                workload: wl,
                policy,
                healthy_perf: bench.mean_perf(wl, &healthy),
                faulty_perf: bench.mean_perf(wl, &faulty),
                healthy_read_tail_ns: tail2(&healthy.merged_read_latency()),
                faulty_read_tail_ns: tail2(&faulty.merged_read_latency()),
                io_errors: faulty.total_io_errors(),
                io_retries: faulty.total_io_retries(),
                kills: faulty.total_kills(),
                oom_kills: faulty.total_oom_kills(),
                alloc_stalls: faulty.total_alloc_stalls(),
                degraded_ns_per_trial: faulty.total_degraded_ns() / trials,
                errors: faulty.error_count(),
            });
        }
    }
    FaultsFigure { ratio, rows }
}

impl fmt::Display for FaultsFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "faults: Clock vs MG-LRU on a stalling SSD ({:.0}% ratio, stalling-ssd plan)",
            self.ratio * 100.0
        )?;
        let mut t = Table::new(&[
            "workload", "policy", "healthy", "faulted", "slowdown", "io_err", "retries", "kills",
            "stalls", "degraded",
        ]);
        for r in &self.rows {
            let perf = |v: f64| {
                if r.workload.is_ycsb() {
                    crate::report::latency(v as u64)
                } else {
                    format!("{v:.2}s")
                }
            };
            t.row(&[
                r.workload.label().to_owned(),
                r.policy.label().to_owned(),
                perf(r.healthy_perf),
                perf(r.faulty_perf),
                format!("{:.2}x", r.slowdown()),
                r.io_errors.to_string(),
                r.io_retries.to_string(),
                r.kills.to_string(),
                r.alloc_stalls.to_string(),
                format!("{:.0}ms", r.degraded_ns_per_trial as f64 / 1e6),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f, "read tails, healthy -> faulted (p99 / p99.99):")?;
        for r in self.rows.iter().filter(|r| r.workload.is_ycsb()) {
            writeln!(
                f,
                "  {}/{}: {} -> {}  /  {} -> {}",
                r.workload.label(),
                r.policy.label(),
                crate::report::latency(r.healthy_read_tail_ns[0]),
                crate::report::latency(r.faulty_read_tail_ns[0]),
                crate::report::latency(r.healthy_read_tail_ns[1]),
                crate::report::latency(r.faulty_read_tail_ns[1]),
            )?;
        }
        if self.rows.iter().any(|r| r.kills > 0) {
            writeln!(
                f,
                "  note: cells with kills report the runtime of a partially-killed run \
                 (terminated tasks do no further work)"
            )?;
        }
        if self.rows.iter().any(|r| r.errors > 0) {
            for r in self.rows.iter().filter(|r| r.errors > 0) {
                writeln!(
                    f,
                    "  note: {}/{} had {} trial(s) end in a simulation error",
                    r.workload.label(),
                    r.policy.label(),
                    r.errors
                )?;
            }
        }
        Ok(())
    }
}
