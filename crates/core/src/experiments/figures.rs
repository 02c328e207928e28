//! The twelve figure drivers.

use std::fmt;

use pagesim_stats::{linear_regression, welch_t_test, LatencyHistogram, Summary};

use crate::config::{PolicyChoice, SwapChoice};
use crate::report::Table;

use super::{grid, Bench, CellQuery, Wl};

/// The batch workloads the joint-distribution figures plot.
const BATCH: [Wl; 2] = [Wl::Tpch, Wl::PageRank];

/// The YCSB workloads the tail-latency figures plot.
const YCSB: [Wl; 3] = [Wl::YcsbA, Wl::YcsbB, Wl::YcsbC];

/// The paper's headline comparison.
const CLOCK_VS_MGLRU: [PolicyChoice; 2] = [PolicyChoice::Clock, PolicyChoice::MgLruDefault];

/// Tail percentiles used by every latency figure.
const TAIL_PS: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

fn tail_row(h: &LatencyHistogram) -> [u64; 5] {
    let mut out = [0u64; 5];
    for (i, p) in TAIL_PS.iter().enumerate() {
        out[i] = if h.count() == 0 {
            0
        } else {
            h.value_at_percentile(*p)
        };
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 1 — mean runtime & faults, MG-LRU normalized to Clock (SSD, 50%)
// ---------------------------------------------------------------------

/// One workload row of Fig. 1.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// Workload.
    pub workload: Wl,
    /// MG-LRU mean performance / Clock mean performance (< 1 = MG-LRU wins).
    pub perf_vs_clock: f64,
    /// MG-LRU mean major faults / Clock mean major faults.
    pub faults_vs_clock: f64,
}

/// Fig. 1: MG-LRU vs Clock at SSD swap, 50% capacity ratio.
#[derive(Clone, Debug)]
pub struct Fig1 {
    /// One row per workload.
    pub rows: Vec<Fig1Row>,
}

/// Fig. 1's cells: Clock vs default MG-LRU for all workloads (SSD, 50%).
pub(super) fn fig1_cells() -> Vec<CellQuery> {
    grid(&[0.5], &Wl::all(), &CLOCK_VS_MGLRU, SwapChoice::Ssd)
}

/// Runs Fig. 1.
pub fn fig1(bench: &Bench) -> Fig1 {
    let rows = Wl::all()
        .into_iter()
        .map(|wl| {
            let clock = bench.cell(wl, PolicyChoice::Clock, SwapChoice::Ssd, 0.5);
            let mglru = bench.cell(wl, PolicyChoice::MgLruDefault, SwapChoice::Ssd, 0.5);
            Fig1Row {
                workload: wl,
                perf_vs_clock: bench.mean_perf(wl, &mglru) / bench.mean_perf(wl, &clock),
                faults_vs_clock: mglru.fault_summary().mean / clock.fault_summary().mean,
            }
        })
        .collect();
    Fig1 { rows }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&["workload", "mglru runtime/clock", "mglru faults/clock"]);
        for r in &self.rows {
            t.row(&[
                r.workload.label().into(),
                format!("{:.3}", r.perf_vs_clock),
                format!("{:.3}", r.faults_vs_clock),
            ]);
        }
        write!(
            f,
            "Fig 1: MG-LRU normalized to Clock (SSD, 50% ratio)\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// Fig. 2 / Fig. 5 — joint (runtime, faults) distributions
// ---------------------------------------------------------------------

/// One (workload, policy) scatter of a joint-distribution figure.
#[derive(Clone, Debug)]
pub struct JointCell {
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// Per-trial (runtime s, major faults) points.
    pub points: Vec<(f64, f64)>,
    /// r² of runtime against faults (`None` below two trials).
    pub r_squared: Option<f64>,
    /// Fitted seconds-per-fault slope (`None` below two trials).
    pub slope: Option<f64>,
    /// Max/min runtime spread.
    pub runtime_spread: f64,
}

/// Fig. 2 (Clock vs MG-LRU) or Fig. 5 (MG-LRU variants) joint
/// distributions on TPC-H and PageRank.
#[derive(Clone, Debug)]
pub struct JointFigure {
    /// Figure id ("fig2" / "fig5").
    pub id: &'static str,
    /// One cell per (workload, policy).
    pub cells: Vec<JointCell>,
}

fn joint_cells(policies: &[PolicyChoice]) -> Vec<CellQuery> {
    grid(&[0.5], &BATCH, policies, SwapChoice::Ssd)
}

/// Fig. 2's cells: the TPC-H/PageRank subset of Fig. 1's.
pub(super) fn fig2_cells() -> Vec<CellQuery> {
    joint_cells(&CLOCK_VS_MGLRU)
}

/// Fig. 5's cells: every MG-LRU variant on TPC-H/PageRank.
pub(super) fn fig5_cells() -> Vec<CellQuery> {
    joint_cells(&PolicyChoice::mglru_variants())
}

fn joint(bench: &Bench, id: &'static str, policies: &[PolicyChoice]) -> JointFigure {
    let cells = joint_cells(policies)
        .iter()
        .map(|q| {
            let set = bench.query(q);
            let runtimes = set.runtimes();
            let faults = set.faults();
            // A fit needs two points; with one trial the figure says so
            // instead of inventing a line.
            let reg = (runtimes.len() >= 2).then(|| linear_regression(&faults, &runtimes));
            JointCell {
                workload: q.wl,
                policy: q.policy,
                points: runtimes
                    .iter()
                    .copied()
                    .zip(faults.iter().copied())
                    .collect(),
                r_squared: reg.as_ref().map(|r| r.r_squared),
                slope: reg.as_ref().map(|r| r.slope),
                runtime_spread: Summary::of(&runtimes).spread(),
            }
        })
        .collect();
    JointFigure { id, cells }
}

/// Runs Fig. 2 (Clock vs default MG-LRU).
pub fn fig2(bench: &Bench) -> JointFigure {
    joint(bench, "fig2", &CLOCK_VS_MGLRU)
}

/// Runs Fig. 5 (all MG-LRU variants).
pub fn fig5(bench: &Bench) -> JointFigure {
    joint(bench, "fig5", &PolicyChoice::mglru_variants())
}

impl fmt::Display for JointFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: joint (runtime, faults) distributions (SSD, 50% ratio)",
            self.id
        )?;
        let mut t = Table::new(&[
            "workload",
            "policy",
            "trials",
            "rt mean",
            "rt spread",
            "r2",
            "s/fault",
        ]);
        for c in &self.cells {
            let rt: Vec<f64> = c.points.iter().map(|p| p.0).collect();
            t.row(&[
                c.workload.label().into(),
                c.policy.label().into(),
                format!("{}", c.points.len()),
                format!("{:.1}s", Summary::of(&rt).mean),
                format!("{:.2}x", c.runtime_spread),
                c.r_squared.map_or("-".into(), |r| format!("{r:.3}")),
                c.slope.map_or("-".into(), |s| format!("{:.2}ms", s * 1e3)),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f, "points (runtime_s, faults):")?;
        for c in &self.cells {
            let pts: Vec<String> = c
                .points
                .iter()
                .map(|(r, fa)| format!("({r:.1},{fa:.0})"))
                .collect();
            writeln!(
                f,
                "  {}/{}: {}",
                c.workload.label(),
                c.policy.label(),
                pts.join(" ")
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fig. 3 / Fig. 8 / Fig. 12 — tail latency distributions
// ---------------------------------------------------------------------

/// One tail-latency row.
#[derive(Clone, Debug)]
pub struct TailRow {
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// Capacity ratio.
    pub ratio: f64,
    /// `true` for the read CDF, `false` for writes.
    pub reads: bool,
    /// Latencies (ns) at p50/p90/p99/p99.9/p99.99.
    pub tail_ns: [u64; 5],
}

/// A tail-latency figure (Fig. 3, 8 or 12).
#[derive(Clone, Debug)]
pub struct TailFigure {
    /// Figure id.
    pub id: &'static str,
    /// Swap medium.
    pub swap: SwapChoice,
    /// Rows.
    pub rows: Vec<TailRow>,
}

fn tail_cells(swap: SwapChoice, ratios: &[f64]) -> Vec<CellQuery> {
    grid(ratios, &YCSB, &CLOCK_VS_MGLRU, swap)
}

/// Fig. 3's cells: YCSB only (SSD, 50%).
pub(super) fn fig3_cells() -> Vec<CellQuery> {
    tail_cells(SwapChoice::Ssd, &[0.5])
}

/// Fig. 8's cells: YCSB at 75%/90% (SSD).
pub(super) fn fig8_cells() -> Vec<CellQuery> {
    tail_cells(SwapChoice::Ssd, &[0.75, 0.9])
}

/// Fig. 12's cells: YCSB under ZRAM at 50%.
pub(super) fn fig12_cells() -> Vec<CellQuery> {
    tail_cells(SwapChoice::Zram, &[0.5])
}

fn tails(bench: &Bench, id: &'static str, swap: SwapChoice, ratios: &[f64]) -> TailFigure {
    let mut rows = Vec::new();
    for q in tail_cells(swap, ratios) {
        let set = bench.query(&q);
        let row = |reads, h: &LatencyHistogram| TailRow {
            workload: q.wl,
            policy: q.policy,
            ratio: q.ratio,
            reads,
            tail_ns: tail_row(h),
        };
        rows.push(row(true, &set.merged_read_latency()));
        let write = set.merged_write_latency();
        if write.count() > 0 {
            rows.push(row(false, &write));
        }
    }
    TailFigure { id, swap, rows }
}

/// Runs Fig. 3: YCSB tails, SSD, 50%.
pub fn fig3(bench: &Bench) -> TailFigure {
    tails(bench, "fig3", SwapChoice::Ssd, &[0.5])
}

/// Runs Fig. 8: YCSB tails, SSD, 75% and 90%.
pub fn fig8(bench: &Bench) -> TailFigure {
    tails(bench, "fig8", SwapChoice::Ssd, &[0.75, 0.9])
}

/// Runs Fig. 12: YCSB tails, ZRAM, 50%.
pub fn fig12(bench: &Bench) -> TailFigure {
    tails(bench, "fig12", SwapChoice::Zram, &[0.5])
}

impl TailFigure {
    /// The p99.99 latency for a specific cell, for shape assertions.
    pub fn p9999(&self, wl: Wl, policy: PolicyChoice, reads: bool) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.workload == wl && r.policy == policy && r.reads == reads)
            .map(|r| r.tail_ns[4])
    }
}

impl fmt::Display for TailFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: request tail latencies ({}, ratios as listed)",
            self.id,
            self.swap.label()
        )?;
        let mut t = Table::new(&[
            "workload", "ratio", "policy", "rw", "p50", "p90", "p99", "p99.9", "p99.99",
        ]);
        for r in &self.rows {
            let mut cells = vec![
                r.workload.label().to_owned(),
                format!("{:.0}%", r.ratio * 100.0),
                r.policy.label().to_owned(),
                if r.reads { "read" } else { "write" }.to_owned(),
            ];
            cells.extend(r.tail_ns.iter().map(|&ns| crate::report::latency(ns)));
            t.row(&cells);
        }
        write!(f, "{}", t.render())
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — MG-LRU variants normalized to default MG-LRU (SSD, 50%)
// ---------------------------------------------------------------------

/// One (workload, variant) row of Fig. 4.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Workload.
    pub workload: Wl,
    /// MG-LRU variant.
    pub policy: PolicyChoice,
    /// Mean performance / default MG-LRU mean performance.
    pub perf_norm: f64,
    /// Mean faults / default MG-LRU mean faults.
    pub faults_norm: f64,
}

/// Fig. 4: alternate MG-LRU configurations.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// Rows, grouped by workload.
    pub rows: Vec<Fig4Row>,
}

/// Fig. 4's cells: MG-LRU variants across all workloads (SSD, 50%).
pub(super) fn fig4_cells() -> Vec<CellQuery> {
    grid(
        &[0.5],
        &Wl::all(),
        &PolicyChoice::mglru_variants(),
        SwapChoice::Ssd,
    )
}

/// Runs Fig. 4.
pub fn fig4(bench: &Bench) -> Fig4 {
    let mut rows = Vec::new();
    for wl in Wl::all() {
        let base = bench.cell(wl, PolicyChoice::MgLruDefault, SwapChoice::Ssd, 0.5);
        let base_perf = bench.mean_perf(wl, &base);
        let base_faults = base.fault_summary().mean;
        for policy in PolicyChoice::mglru_variants() {
            let set = bench.cell(wl, policy, SwapChoice::Ssd, 0.5);
            rows.push(Fig4Row {
                workload: wl,
                policy,
                perf_norm: bench.mean_perf(wl, &set) / base_perf,
                faults_norm: set.fault_summary().mean / base_faults,
            });
        }
    }
    Fig4 { rows }
}

impl Fig4 {
    /// Normalized performance of one cell, for shape assertions.
    pub fn perf(&self, wl: Wl, policy: PolicyChoice) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == wl && r.policy == policy)
            .map(|r| r.perf_norm)
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&["workload", "variant", "runtime/default", "faults/default"]);
        for r in &self.rows {
            t.row(&[
                r.workload.label().into(),
                r.policy.label().into(),
                format!("{:.3}", r.perf_norm),
                format!("{:.3}", r.faults_norm),
            ]);
        }
        write!(
            f,
            "Fig 4: MG-LRU variants normalized to default MG-LRU (SSD, 50%)\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// Fig. 6 — mean performance at 75% / 90% capacity ratios
// ---------------------------------------------------------------------

/// One row of Fig. 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Capacity ratio.
    pub ratio: f64,
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// Mean performance normalized to default MG-LRU.
    pub perf_norm: f64,
    /// Welch two-sided p-value of the runtime difference vs default MG-LRU
    /// (`None` for the baseline itself).
    pub p_value: Option<f64>,
}

/// Fig. 6: capacity-ratio sweep.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// Rows grouped by ratio then workload.
    pub rows: Vec<Fig6Row>,
}

/// Fig. 6's cells: the full paper set at tighter ratios, all workloads.
pub(super) fn fig6_cells() -> Vec<CellQuery> {
    grid(
        &[0.75, 0.9],
        &Wl::all(),
        &PolicyChoice::paper_set(),
        SwapChoice::Ssd,
    )
}

/// Runs Fig. 6.
pub fn fig6(bench: &Bench) -> Fig6 {
    let mut rows = Vec::new();
    for ratio in [0.75, 0.9] {
        for wl in Wl::all() {
            let base = bench.cell(wl, PolicyChoice::MgLruDefault, SwapChoice::Ssd, ratio);
            let base_perf = bench.mean_perf(wl, &base);
            for policy in PolicyChoice::paper_set() {
                let set = bench.cell(wl, policy, SwapChoice::Ssd, ratio);
                // Welch needs two samples per side: one trial has no p.
                let p_value = if policy == PolicyChoice::MgLruDefault || set.runs.len() < 2 {
                    None
                } else {
                    Some(welch_t_test(&set.runtimes(), &base.runtimes()).p_value)
                };
                rows.push(Fig6Row {
                    ratio,
                    workload: wl,
                    policy,
                    perf_norm: bench.mean_perf(wl, &set) / base_perf,
                    p_value,
                });
            }
        }
    }
    Fig6 { rows }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&["ratio", "workload", "policy", "perf/mglru", "p vs mglru"]);
        for r in &self.rows {
            t.row(&[
                format!("{:.0}%", r.ratio * 100.0),
                r.workload.label().into(),
                r.policy.label().into(),
                format!("{:.3}", r.perf_norm),
                r.p_value.map_or("-".into(), |p| format!("{p:.4}")),
            ]);
        }
        write!(
            f,
            "Fig 6: mean performance at higher capacity ratios (SSD)\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — normalized fault distributions at 75% / 90%
// ---------------------------------------------------------------------

/// One box-whisker row of Fig. 7.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Capacity ratio.
    pub ratio: f64,
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// min/q1/median/q3/max of faults, normalized to the default MG-LRU
    /// mean fault count.
    pub box_whisker: [f64; 5],
}

/// Fig. 7: fault distributions at higher capacity ratios.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// Rows.
    pub rows: Vec<Fig7Row>,
}

/// Fig. 7's cells: Fig. 6's ratios, TPC-H/PageRank only.
pub(super) fn fig7_cells() -> Vec<CellQuery> {
    grid(
        &[0.75, 0.9],
        &BATCH,
        &PolicyChoice::paper_set(),
        SwapChoice::Ssd,
    )
}

/// Runs Fig. 7.
pub fn fig7(bench: &Bench) -> Fig7 {
    let mut rows = Vec::new();
    for ratio in [0.75, 0.9] {
        for wl in BATCH {
            let base = bench.cell(wl, PolicyChoice::MgLruDefault, SwapChoice::Ssd, ratio);
            let base_mean = base.fault_summary().mean.max(1.0);
            for policy in PolicyChoice::paper_set() {
                let set = bench.cell(wl, policy, SwapChoice::Ssd, ratio);
                let s = set.fault_summary();
                rows.push(Fig7Row {
                    ratio,
                    workload: wl,
                    policy,
                    box_whisker: [
                        s.min / base_mean,
                        s.q1 / base_mean,
                        s.median / base_mean,
                        s.q3 / base_mean,
                        s.max / base_mean,
                    ],
                });
            }
        }
    }
    Fig7 { rows }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&[
            "ratio", "workload", "policy", "min", "q1", "med", "q3", "max",
        ]);
        for r in &self.rows {
            let mut cells = vec![
                format!("{:.0}%", r.ratio * 100.0),
                r.workload.label().to_owned(),
                r.policy.label().to_owned(),
            ];
            cells.extend(r.box_whisker.iter().map(|v| format!("{v:.2}")));
            t.row(&cells);
        }
        write!(
            f,
            "Fig 7: fault distributions normalized to default MG-LRU mean (SSD)\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// Fig. 9 / Fig. 10 — ZRAM means
// ---------------------------------------------------------------------

/// One row of the ZRAM mean figures.
#[derive(Clone, Debug)]
pub struct ZramRow {
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// Value normalized to default MG-LRU (runtime for Fig. 9, faults for
    /// Fig. 10).
    pub norm: f64,
}

/// Fig. 9 (mean performance) or Fig. 10 (mean faults) under ZRAM.
#[derive(Clone, Debug)]
pub struct ZramFigure {
    /// Figure id.
    pub id: &'static str,
    /// Rows.
    pub rows: Vec<ZramRow>,
}

/// Figs. 9/10 share one grid: the paper set under ZRAM at 50%.
pub(super) fn zram_cells() -> Vec<CellQuery> {
    grid(
        &[0.5],
        &Wl::all(),
        &PolicyChoice::paper_set(),
        SwapChoice::Zram,
    )
}

fn zram_means(bench: &Bench, id: &'static str, faults: bool) -> ZramFigure {
    let mut rows = Vec::new();
    for wl in Wl::all() {
        let base = bench.cell(wl, PolicyChoice::MgLruDefault, SwapChoice::Zram, 0.5);
        let base_v = if faults {
            base.fault_summary().mean
        } else {
            bench.mean_perf(wl, &base)
        };
        for policy in PolicyChoice::paper_set() {
            let set = bench.cell(wl, policy, SwapChoice::Zram, 0.5);
            let v = if faults {
                set.fault_summary().mean
            } else {
                bench.mean_perf(wl, &set)
            };
            rows.push(ZramRow {
                workload: wl,
                policy,
                norm: v / base_v,
            });
        }
    }
    ZramFigure { id, rows }
}

/// Runs Fig. 9: mean performance with ZRAM swap at 50%.
pub fn fig9(bench: &Bench) -> ZramFigure {
    zram_means(bench, "fig9", false)
}

/// Runs Fig. 10: mean faults with ZRAM swap at 50%.
pub fn fig10(bench: &Bench) -> ZramFigure {
    zram_means(bench, "fig10", true)
}

impl ZramFigure {
    /// The normalized value for one cell.
    pub fn norm(&self, wl: Wl, policy: PolicyChoice) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == wl && r.policy == policy)
            .map(|r| r.norm)
    }
}

impl fmt::Display for ZramFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = if self.id == "fig9" {
            "performance"
        } else {
            "faults"
        };
        let mut t = Table::new(&["workload", "policy", "norm to mglru"]);
        for r in &self.rows {
            t.row(&[
                r.workload.label().into(),
                r.policy.label().into(),
                format!("{:.3}", r.norm),
            ]);
        }
        write!(
            f,
            "{}: mean {what} with ZRAM swap (50% ratio), normalized to default MG-LRU\n{}",
            self.id,
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// Fig. 11 — ZRAM vs SSD deltas
// ---------------------------------------------------------------------

/// One row of Fig. 11.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Workload.
    pub workload: Wl,
    /// Policy.
    pub policy: PolicyChoice,
    /// runtime(zram) / runtime(ssd).
    pub runtime_ratio: f64,
    /// faults(zram) / faults(ssd).
    pub fault_ratio: f64,
}

/// Fig. 11: change in runtime and faults between ZRAM and SSD swap.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// Rows.
    pub rows: Vec<Fig11Row>,
}

/// Fig. 11's cells: SSD vs ZRAM head-to-head, per workload and policy.
pub(super) fn fig11_cells() -> Vec<CellQuery> {
    let mut cells = Vec::new();
    for wl in Wl::all() {
        for policy in CLOCK_VS_MGLRU {
            for swap in [SwapChoice::Ssd, SwapChoice::Zram] {
                cells.push(CellQuery::healthy(wl, policy, swap, 0.5));
            }
        }
    }
    cells
}

/// Runs Fig. 11.
pub fn fig11(bench: &Bench) -> Fig11 {
    let mut rows = Vec::new();
    for wl in Wl::all() {
        for policy in CLOCK_VS_MGLRU {
            let ssd = bench.cell(wl, policy, SwapChoice::Ssd, 0.5);
            let zram = bench.cell(wl, policy, SwapChoice::Zram, 0.5);
            rows.push(Fig11Row {
                workload: wl,
                policy,
                runtime_ratio: zram.runtime_summary().mean / ssd.runtime_summary().mean,
                fault_ratio: zram.fault_summary().mean / ssd.fault_summary().mean,
            });
        }
    }
    Fig11 { rows }
}

impl Fig11 {
    /// The (runtime, fault) ratios for one cell.
    pub fn ratios(&self, wl: Wl, policy: PolicyChoice) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.workload == wl && r.policy == policy)
            .map(|r| (r.runtime_ratio, r.fault_ratio))
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&["workload", "policy", "runtime zram/ssd", "faults zram/ssd"]);
        for r in &self.rows {
            t.row(&[
                r.workload.label().into(),
                r.policy.label().into(),
                format!("{:.3}", r.runtime_ratio),
                format!("{:.3}", r.fault_ratio),
            ]);
        }
        write!(f, "Fig 11: ZRAM vs SSD (50% ratio)\n{}", t.render())
    }
}
