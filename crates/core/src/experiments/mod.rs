//! Per-figure experiment drivers.
//!
//! Each figure of the paper is one [`FigureSpec`] in [`EXPERIMENTS`]: the
//! grid of cells it plots, declared beside the driver that renders them.
//! The bench crate's sweep executor runs every declared cell trial by
//! trial ([`CellSpec`], [`Bench::run_trial`]) and installs the merged
//! [`TrialSet`]s with [`Bench::install_cell`]; the drivers then only read
//! that cell table. A driver asking for a cell its figure did not declare
//! panics with the cell's identity, so a declaration can never silently
//! drift from its driver. The structured results are public so
//! integration tests can assert on the reproduced *shapes* (who wins,
//! spreads, correlations).
//!
//! Figures share cells (Fig. 1 and Fig. 2 plot the same runs); the table
//! keys each cell by its *content key* — the workload plus the stable
//! hash of its fully-resolved [`SystemConfig`] — so a full sweep runs
//! every cell exactly once, fault cells included.

mod faults;
mod figures;

pub use faults::*;
pub use figures::*;

// Ordered containers only (rule L1, clippy.toml): the cell table is never
// iterated today, but a `BTreeMap` keeps any future walk deterministic.
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pagesim_engine::rng::trial_seed;
use pagesim_engine::Nanos;
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::Workload;

use crate::config::{FaultConfig, PolicyChoice, SwapChoice, SystemConfig};
use crate::metrics::{Experiment, RunMetrics, TrialSet};
use crate::stablehash::StableHasher;

/// Sweep scale: trials per cell and workload footprint factor.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Trials per experiment cell (the paper runs 25).
    pub trials: u32,
    /// Footprint multiplier on the workload defaults.
    pub footprint: f64,
    /// Master seed; trial seeds derive from it.
    pub seed: u64,
    /// Overrides [`SystemConfig::page_compression`] for every cell run at
    /// this scale. `None` keeps each config's own calibrated default; the
    /// paper-native tier sets it near 1 because its simulated page counts
    /// approach the paper's real ones, so each page stands for few.
    pub page_compression: Option<u64>,
}

impl Scale {
    /// Fast smoke scale for tests and CI.
    pub fn smoke() -> Scale {
        Scale {
            trials: 3,
            footprint: 0.25,
            seed: 0xC0FFEE,
            page_compression: None,
        }
    }

    /// Default laptop scale.
    pub fn default_scale() -> Scale {
        Scale {
            trials: 10,
            footprint: 0.5,
            seed: 0xC0FFEE,
            page_compression: None,
        }
    }

    /// Paper scale: 25 trials, full footprints.
    pub fn paper() -> Scale {
        Scale {
            trials: 25,
            footprint: 1.0,
            seed: 0xC0FFEE,
            page_compression: None,
        }
    }

    /// Paper-native footprint tier: workloads inflated 64x over the paper
    /// scale (TPC-H crosses a million simulated pages), with the
    /// page-compression factor dropped from 200 to 3 so each simulated
    /// page stands for roughly `200/64` real ones and the
    /// scan-cost-to-fault-cost balance stays calibrated. Two trials:
    /// this tier exists to exercise the word-level scan paths at native
    /// page counts, not to converge figure statistics.
    pub fn paper_native() -> Scale {
        Scale {
            trials: 2,
            footprint: 64.0,
            seed: 0xC0FFEE,
            page_compression: Some(3),
        }
    }
}

/// The five workloads of the paper's methodology (§IV).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Wl {
    /// Spark-SQL TPC-H analog.
    Tpch,
    /// GAP PageRank analog.
    PageRank,
    /// YCSB-A on the KV store (50/50 read/update).
    YcsbA,
    /// YCSB-B (95/5).
    YcsbB,
    /// YCSB-C (100/0).
    YcsbC,
}

impl Wl {
    /// All five, in the paper's plotting order.
    pub fn all() -> [Wl; 5] {
        [Wl::Tpch, Wl::PageRank, Wl::YcsbA, Wl::YcsbB, Wl::YcsbC]
    }

    /// Whether this is a YCSB (latency-oriented) workload.
    pub fn is_ycsb(self) -> bool {
        matches!(self, Wl::YcsbA | Wl::YcsbB | Wl::YcsbC)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Wl::Tpch => "tpch",
            Wl::PageRank => "pagerank",
            Wl::YcsbA => "ycsb-a",
            Wl::YcsbB => "ycsb-b",
            Wl::YcsbC => "ycsb-c",
        }
    }
}

/// One experiment cell: everything needed to build its [`SystemConfig`],
/// independent of trial count. `faults: FaultConfig::none()` is a healthy
/// cell; figures and the fault study enumerate through the same type, so
/// both share the cell table and the sweep executor.
#[derive(Clone, Debug)]
pub struct CellQuery {
    /// Workload driving the cell.
    pub wl: Wl,
    /// Replacement policy under test.
    pub policy: PolicyChoice,
    /// Swap medium.
    pub swap: SwapChoice,
    /// Memory capacity-to-footprint ratio.
    pub ratio: f64,
    /// Fault-injection plan (`FaultConfig::none()` for healthy cells).
    pub faults: FaultConfig,
}

impl CellQuery {
    /// A healthy (no fault injection) cell.
    pub fn healthy(wl: Wl, policy: PolicyChoice, swap: SwapChoice, ratio: f64) -> CellQuery {
        CellQuery {
            wl,
            policy,
            swap,
            ratio,
            faults: FaultConfig::none(),
        }
    }

    /// A cell with a fault model attached.
    pub fn faulted(
        wl: Wl,
        policy: PolicyChoice,
        swap: SwapChoice,
        ratio: f64,
        faults: FaultConfig,
    ) -> CellQuery {
        CellQuery {
            wl,
            policy,
            swap,
            ratio,
            faults,
        }
    }

    /// The fully-resolved simulation config this cell runs under.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig::new(self.policy, self.swap)
            .capacity_ratio(self.ratio)
            .faults(self.faults.clone())
    }

    /// Human-readable cell identity (for cache files and logs).
    pub fn ident(&self) -> String {
        format!(
            "{}/{}/{:?}/r{:.2}{}",
            self.wl.label(),
            self.policy.label(),
            self.swap,
            self.ratio,
            if self.faults.is_none() { "" } else { "/faulty" },
        )
    }

    /// Stable content key of the cell's configuration: workload identity
    /// plus the stable hash of the fully-resolved [`SystemConfig`]. Two
    /// queries with equal keys run byte-identical simulations (given equal
    /// seeds and footprints), so this — not the label — keys the cell table.
    fn config_key(&self) -> (Wl, u64) {
        (self.wl, self.system_config().stable_hash())
    }

    /// Public form of the cell content key, used by the sweep executor to
    /// deduplicate cells across figures and by the figure layer to match a
    /// [`CellFailure`](crate::CellFailure) back to every figure that
    /// references the lost cell.
    pub fn content_key(&self) -> (Wl, u64) {
        self.config_key()
    }
}

/// One unit of sweep work: a cell plus a trial index. `trials` specs per
/// cell; each is pure and independently runnable on any worker.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The cell this trial belongs to.
    pub query: CellQuery,
    /// Trial index within the cell (`0..scale.trials`).
    pub trial: u32,
}

type CellKey = (Wl, u64);

/// Workload instances plus the table of completed experiment cells.
pub struct Bench {
    scale: Scale,
    tpch: TpchWorkload,
    pagerank: PageRankWorkload,
    ycsb_a: YcsbWorkload,
    ycsb_b: YcsbWorkload,
    ycsb_c: YcsbWorkload,
    cells: Mutex<BTreeMap<CellKey, Arc<TrialSet>>>,
}

impl Bench {
    /// Builds all workloads at the given scale.
    pub fn new(scale: Scale) -> Bench {
        let f = scale.footprint;
        let mut ycsb = YcsbConfig::with_mix(YcsbMix::A);
        ycsb.items = ((ycsb.items as f64 * f) as u32).max(1_000);
        ycsb.requests = ((ycsb.requests as f64 * f) as u64).max(10_000);
        // B and C share A's store and request table: they differ only in
        // the update share.
        let ycsb_a = YcsbWorkload::new(ycsb, 0xD00D);
        Bench {
            scale,
            tpch: TpchWorkload::new(TpchConfig::default().scaled(f)),
            pagerank: PageRankWorkload::new(PageRankConfig::default().scaled(f), 0xD00D),
            ycsb_b: ycsb_a.with_mix(YcsbMix::B),
            ycsb_c: ycsb_a.with_mix(YcsbMix::C),
            ycsb_a,
            cells: Mutex::new(BTreeMap::new()),
        }
    }

    /// The cell table, locked. The lock reads through a poisoned state, so
    /// a panicked holder does not wedge the table for everyone else.
    fn cells(&self) -> MutexGuard<'_, BTreeMap<CellKey, Arc<TrialSet>>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sweep scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The [`SystemConfig`] a query actually runs under at this scale:
    /// the query's own config with the scale's page-compression override
    /// (if any) applied. Every execution path and the trial content hash
    /// go through here, so an override can never alias a cached cell run
    /// without it.
    pub fn resolve_config(&self, query: &CellQuery) -> SystemConfig {
        let mut config = query.system_config();
        if let Some(pc) = self.scale.page_compression {
            config.page_compression = pc;
        }
        config
    }

    /// The workload `wl` names, built at this bench's scale.
    pub fn workload(&self, wl: Wl) -> &dyn Workload {
        match wl {
            Wl::Tpch => &self.tpch,
            Wl::PageRank => &self.pagerank,
            Wl::YcsbA => &self.ycsb_a,
            Wl::YcsbB => &self.ycsb_b,
            Wl::YcsbC => &self.ycsb_c,
        }
    }

    /// Footprint of a workload in pages.
    pub fn footprint(&self, wl: Wl) -> u32 {
        self.workload(wl).footprint_pages()
    }

    /// The installed trials of one healthy cell (see [`Bench::query`]).
    pub fn cell(
        &self,
        wl: Wl,
        policy: PolicyChoice,
        swap: SwapChoice,
        ratio: f64,
    ) -> Arc<TrialSet> {
        self.query(&CellQuery::healthy(wl, policy, swap, ratio))
    }

    /// The installed trials of one cell with a fault model attached. Fault
    /// cells share the content-keyed table with healthy cells: the fault
    /// plan is part of the config hash, so they can never collide.
    pub fn fault_cell(
        &self,
        wl: Wl,
        policy: PolicyChoice,
        swap: SwapChoice,
        ratio: f64,
        faults: FaultConfig,
    ) -> Arc<TrialSet> {
        self.query(&CellQuery::faulted(wl, policy, swap, ratio, faults))
    }

    /// The installed trials of the cell described by `query`.
    ///
    /// # Panics
    ///
    /// When the cell was never installed. Only the sweep runs cells, and
    /// it runs exactly what each figure declares, so a miss means a driver
    /// reads a cell its [`FigureSpec::cells`] does not list.
    pub fn query(&self, query: &CellQuery) -> Arc<TrialSet> {
        let hit = self.cells().get(&query.config_key()).cloned();
        hit.unwrap_or_else(|| {
            panic!(
                "cell {} is not in the cell table: sweep the figures that declare it first",
                query.ident()
            )
        })
    }

    /// Runs exactly one trial of a cell — the pure unit of sweep work.
    /// Seeds derive the same way [`Experiment::run_trials`] derives them,
    /// so a cell assembled trial-by-trial is identical to one run in a
    /// batch.
    pub fn run_trial(&self, query: &CellQuery, trial: u32) -> RunMetrics {
        self.run_trial_budgeted(query, trial, None)
    }

    /// [`Bench::run_trial`] with an optional sim-time budget, in simulated
    /// nanoseconds: the executed config's `max_sim_time` is clamped to
    /// `budget` when one is given. The guard only matters when it trips, so
    /// a run that finishes *inside* the budget is bit-identical to an
    /// unbudgeted run and may be cached under the unbudgeted content hash;
    /// a run that trips it comes back with `RunMetrics::error ==
    /// Some(SimTimeExceeded)` and truncated metrics, which the sweep
    /// executor classifies as a timeout failure rather than merging.
    pub fn run_trial_budgeted(
        &self,
        query: &CellQuery,
        trial: u32,
        budget: Option<Nanos>,
    ) -> RunMetrics {
        let seed = trial_seed(self.scale.seed, trial);
        Experiment::new(self.budgeted_config(query, budget)).run(self.workload(query.wl), seed)
    }

    /// [`Bench::resolve_config`] with `max_sim_time` clamped to `budget`.
    fn budgeted_config(&self, query: &CellQuery, budget: Option<Nanos>) -> SystemConfig {
        let mut config = self.resolve_config(query);
        if let Some(b) = budget {
            config.max_sim_time = config.max_sim_time.min(b);
        }
        config
    }

    /// [`Bench::run_trial_budgeted`] with telemetry attached. The returned
    /// metrics are identical to the untraced call's on the same `(query,
    /// trial, budget)`; the trace carries the trial's content-addressed
    /// identity ([`Bench::trial_content_hash`]) so it can always be
    /// matched to the cached metrics it was captured alongside.
    #[cfg(feature = "trace")]
    pub fn run_trial_traced(
        &self,
        query: &CellQuery,
        trial: u32,
        budget: Option<Nanos>,
        trace_cfg: pagesim_trace::TraceConfig,
    ) -> (RunMetrics, pagesim_trace::TraceData) {
        let config = self.budgeted_config(query, budget);
        let seed = trial_seed(self.scale.seed, trial);
        let (metrics, tracer) = crate::Kernel::build(&config, self.workload(query.wl), seed)
            .run_traced(pagesim_trace::Tracer::new(trace_cfg));
        let meta = pagesim_trace::TraceMeta {
            ident: format!("{} trial {}", query.ident(), trial),
            content_hash: self.trial_content_hash(query, trial),
            trial,
            seed,
            cores: config.cores as u32,
            sample_interval_ns: tracer.config().sample_interval,
            policy: query.policy.label().to_owned(),
            workload: query.wl.label().to_owned(),
        };
        (metrics, tracer.into_data(meta))
    }

    /// Installs a computed cell (from a sweep or a cache) into the table
    /// the figure drivers read.
    pub fn install_cell(&self, query: &CellQuery, set: TrialSet) {
        self.cells().insert(query.config_key(), Arc::new(set));
    }

    /// Whether a cell is already installed.
    pub fn has_cell(&self, query: &CellQuery) -> bool {
        self.cells().contains_key(&query.config_key())
    }

    /// The content key of one trial of `query`, independent of process,
    /// host, and enumeration order: it folds in the cache format version,
    /// the crate version, the workload identity and resolved footprint,
    /// the stable hash of the fully-resolved [`SystemConfig`], the trial
    /// count context (trial index) and the derived trial seed. Equal keys
    /// mean byte-identical [`RunMetrics`].
    pub fn trial_content_hash(&self, query: &CellQuery, trial: u32) -> u64 {
        self.trial_content_hash_versioned(query, trial, env!("CARGO_PKG_VERSION"))
    }

    /// [`Bench::trial_content_hash`] with an explicit crate-version string,
    /// so tests can prove a version bump invalidates every cached trial.
    pub fn trial_content_hash_versioned(
        &self,
        query: &CellQuery,
        trial: u32,
        version: &str,
    ) -> u64 {
        let mut h = StableHasher::new();
        h.write_u32(crate::metrics::CACHE_FORMAT_VERSION);
        h.write_str(version);
        h.write_str(query.wl.label());
        h.write_f64(self.scale.footprint);
        h.write_u32(self.footprint(query.wl));
        h.write_u64(self.resolve_config(query).stable_hash());
        h.write_u32(trial);
        h.write_u64(trial_seed(self.scale.seed, trial));
        h.finish()
    }

    /// The paper's primary performance metric for a cell: mean runtime for
    /// batch workloads, mean request latency for YCSB (Fig. 1 note).
    pub fn mean_perf(&self, wl: Wl, set: &TrialSet) -> f64 {
        if wl.is_ycsb() {
            pagesim_stats::Summary::of(&set.mean_request_latencies()).mean
        } else {
            set.runtime_summary().mean
        }
    }
}

/// One figure of the paper, or the fault study: the cells it plots and
/// how it renders them. The sweep runs `cells`; `render` only reads them.
pub struct FigureSpec {
    /// The `repro` subcommand naming the figure.
    pub id: &'static str,
    /// Every cell the figure reads, in driver order. The order is part of
    /// the contract: sweep plans, journals, chaos victims and
    /// `repro trace --cell` indices all follow it.
    pub cells: fn() -> Vec<CellQuery>,
    /// Renders the figure from a bench holding every cell in `cells`.
    pub render: fn(&Bench) -> String,
}

/// Every figure in `repro all` order, then the fault study.
#[rustfmt::skip]
pub static EXPERIMENTS: [FigureSpec; 13] = [
    FigureSpec { id: "fig1", cells: fig1_cells, render: |b| fig1(b).to_string() },
    FigureSpec { id: "fig2", cells: fig2_cells, render: |b| fig2(b).to_string() },
    FigureSpec { id: "fig3", cells: fig3_cells, render: |b| fig3(b).to_string() },
    FigureSpec { id: "fig4", cells: fig4_cells, render: |b| fig4(b).to_string() },
    FigureSpec { id: "fig5", cells: fig5_cells, render: |b| fig5(b).to_string() },
    FigureSpec { id: "fig6", cells: fig6_cells, render: |b| fig6(b).to_string() },
    FigureSpec { id: "fig7", cells: fig7_cells, render: |b| fig7(b).to_string() },
    FigureSpec { id: "fig8", cells: fig8_cells, render: |b| fig8(b).to_string() },
    FigureSpec { id: "fig9", cells: zram_cells, render: |b| fig9(b).to_string() },
    FigureSpec { id: "fig10", cells: zram_cells, render: |b| fig10(b).to_string() },
    FigureSpec { id: "fig11", cells: fig11_cells, render: |b| fig11(b).to_string() },
    FigureSpec { id: "fig12", cells: fig12_cells, render: |b| fig12(b).to_string() },
    FigureSpec { id: "faults", cells: faults_cells, render: |b| faults(b).to_string() },
];

/// The [`EXPERIMENTS`] entry named `id`.
pub fn experiment(id: &str) -> Option<&'static FigureSpec> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every cell the named figure reads; empty for an unknown id.
pub fn figure_cells(fig: &str) -> Vec<CellQuery> {
    experiment(fig).map_or_else(Vec::new, |e| (e.cells)())
}

/// Healthy cells for every `ratio × workload × policy`, nested in that
/// order: the row order of every figure that plots a plain grid.
fn grid(ratios: &[f64], wls: &[Wl], policies: &[PolicyChoice], swap: SwapChoice) -> Vec<CellQuery> {
    let mut cells = Vec::new();
    for &ratio in ratios {
        for &wl in wls {
            for &policy in policies {
                cells.push(CellQuery::healthy(wl, policy, swap, ratio));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs a thread that panics while it holds the cell table's lock"
    )]
    fn cell_table_survives_a_panicked_holder() {
        let bench = Bench::new(Scale::smoke());
        let query = CellQuery::healthy(Wl::Tpch, PolicyChoice::Clock, SwapChoice::Zram, 0.5);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = bench.cells.lock();
                panic!("poison attempt");
            });
            assert!(holder.join().is_err());
        });
        assert!(bench.cells.is_poisoned());
        // Every site reads through the poison: none panics.
        assert!(!bench.has_cell(&query));
        bench.install_cell(&query, TrialSet { runs: Vec::new() });
        assert!(bench.has_cell(&query));
        assert!(bench.query(&query).runs.is_empty());
    }
}
