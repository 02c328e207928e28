//! The four workloads. Each run makes untraced repetitions for the
//! end-to-end metrics and, with `--trace 1`, replays the same work with a
//! span around every call into a layer for the per-layer metrics.
//!
//! Three workloads are figure sweeps: `Bench::new`, `run_sweep_resilient`
//! and the `experiments::figN` functions, exactly as `repro` calls them.
//! `pagerank-paper` runs single trials through `Bench::run_trial`. The
//! traced replay calls the layers' public functions itself (`sweep::plan_cells`/`plan_specs`,
//! `cache::load`/`store`, `Kernel::build`/`run`, `Journal::trial`,
//! `Bench::install_cell`, `experiments::figN`) on the benchmark's own
//! threads, with workload instances it builds from the public configs
//! `Bench::new` uses, and must reproduce the untraced output byte for
//! byte.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pagesim::experiments::{self, Bench, CellQuery, CellSpec, Scale, Wl};
use pagesim::{
    report, CellFailure, Kernel, PolicyChoice, RunMetrics, SwapChoice, SystemConfig, TrialSet,
};
use pagesim_bench::sweep::{
    cache, journal::Journal, plan_cells, plan_specs, run_sweep_resilient, SweepOptions,
    SweepOutcome,
};
use pagesim_engine::rng::trial_seed;
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::{Op, Workload};

use crate::calib::Calib;
use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host;
use crate::spans::{self, Span, Trace};

/// Sweep worker threads, on any host: figures are compared across hosts
/// at a fixed degree of parallelism.
pub const JOBS: usize = 2;

/// The master seed `figures_default.txt` was rendered with.
pub const GOLDEN_SEED: u64 = 0xC0FFEE;

const GOLDEN: &str = include_str!("../../figures_default.txt");

/// Seed `Bench::new` gives the PageRank graph and the YCSB stores.
const WORKLOAD_SEED: u64 = 0xD00D;

/// A figure: its `repro` name, its span name and its renderer.
type Figure = (&'static str, &'static str, fn(&Bench) -> String);

/// Every figure `repro` can render.
#[rustfmt::skip]
const FIGURES: [Figure; 12] = [
    ("fig1", "experiments::fig1", |b| experiments::fig1(b).to_string()),
    ("fig2", "experiments::fig2", |b| experiments::fig2(b).to_string()),
    ("fig3", "experiments::fig3", |b| experiments::fig3(b).to_string()),
    ("fig4", "experiments::fig4", |b| experiments::fig4(b).to_string()),
    ("fig5", "experiments::fig5", |b| experiments::fig5(b).to_string()),
    ("fig6", "experiments::fig6", |b| experiments::fig6(b).to_string()),
    ("fig7", "experiments::fig7", |b| experiments::fig7(b).to_string()),
    ("fig8", "experiments::fig8", |b| experiments::fig8(b).to_string()),
    ("fig9", "experiments::fig9", |b| experiments::fig9(b).to_string()),
    ("fig10", "experiments::fig10", |b| experiments::fig10(b).to_string()),
    ("fig11", "experiments::fig11", |b| experiments::fig11(b).to_string()),
    ("fig12", "experiments::fig12", |b| experiments::fig12(b).to_string()),
];

fn figure(fig: &str) -> &'static Figure {
    FIGURES
        .iter()
        .find(|f| f.0 == fig)
        .unwrap_or_else(|| panic!("no figure named {fig}"))
}

/// `repro`'s stdout header: a copy of `print_header` in
/// `crates/bench/src/bin/repro.rs`. The golden check compares this copy's
/// output, so a change to `repro`'s header must be made here too, until
/// the two share one public function.
fn header(bench: &Bench) -> String {
    let scale = bench.scale();
    let mut out = format!(
        "# pagesim repro — trials/cell: {}, footprint factor: {:.2}, seed: {}\n",
        scale.trials, scale.footprint, scale.seed
    );
    for wl in Wl::all() {
        out.push_str(&format!(
            "#   {} footprint: {} pages\n",
            wl.label(),
            bench.footprint(wl)
        ));
    }
    out.push('\n');
    out
}

/// What `repro` prints for `figs` after `outcome`, without its `took`
/// timing lines: figures whose cells failed become `# HOLE` lines. A copy
/// of the banner and hole rendering at the end of `main` in
/// `crates/bench/src/bin/repro.rs`, kept in step with it like [`header`].
fn render(bench: &Bench, figs: &[String], outcome: &SweepOutcome) -> String {
    let failed: BTreeMap<(Wl, u64), &CellFailure> = outcome
        .failures
        .iter()
        .map(|f| ((f.wl, f.config_hash), f))
        .collect();
    let mut out = header(bench);
    if !failed.is_empty() {
        out.push_str(&format!("{}\n\n", report::incomplete_banner(failed.len())));
    }
    for fig in figs {
        let holes: Vec<&CellFailure> = experiments::figure_cells(fig)
            .iter()
            .filter_map(|q| failed.get(&q.content_key()).copied())
            .collect();
        if holes.is_empty() {
            out.push_str(&format!("{}\n\n", (figure(fig).2)(bench)));
        } else {
            for f in &holes {
                out.push_str(&report::hole_line(fig, &f.ident, &f.kind.detail()));
                out.push('\n');
            }
            out.push_str(&format!(
                "# ({fig} skipped: {} missing cell(s))\n\n",
                holes.len()
            ));
        }
    }
    out
}

/// Lines of `text` other than `repro`'s `took` timing lines.
fn untimed_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.contains("took ")).collect()
}

/// How a figure workload uses the cell cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheMode {
    /// A fresh, empty cache and journal for every repetition.
    Cold,
    /// A cache primed once during set-up, read by every repetition.
    Warm,
    /// `--no-cache`.
    Off,
}

/// One figure workload: `repro [--scale ..] [--trials ..] <figs>`.
struct FigureWorkload {
    scale: Scale,
    figs: Vec<String>,
    cache: CacheMode,
}

/// Every figure, in `repro all` order.
fn all_figures() -> Vec<String> {
    FIGURES.iter().map(|f| f.0.to_owned()).collect()
}

/// Trials per cell in one `figures-default` repetition.
const DEFAULT_TRIALS: u32 = 2;

fn figure_workload(name: &str, seed: u64) -> Option<FigureWorkload> {
    let figs = |ids: &[&str]| ids.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    Some(match name {
        // `repro --trials 2 all`: every cell of `repro all`, so every layer
        // takes its share of a full sweep. Two of the ten trials keep a
        // repetition near 9 s; their trial seeds are those of the first
        // two trials of `repro all`.
        "figures-default" => FigureWorkload {
            scale: Scale {
                seed,
                trials: DEFAULT_TRIALS,
                ..Scale::default_scale()
            },
            figs: all_figures(),
            cache: CacheMode::Cold,
        },
        "figures-warm" => FigureWorkload {
            scale: Scale {
                seed,
                ..Scale::smoke()
            },
            figs: all_figures(),
            cache: CacheMode::Warm,
        },
        // Five of the paper's 25 trials per repetition keep repetitions
        // short enough to report a median; every trial costs the same.
        "ycsb-paper" => FigureWorkload {
            scale: Scale {
                seed,
                trials: 5,
                ..Scale::paper()
            },
            figs: figs(&["fig3", "fig12"]),
            cache: CacheMode::Off,
        },
        _ => return None,
    })
}

/// The cells of `pagerank-paper`: PageRank under both headline policies
/// on both swap media, at the paper's 50% capacity ratio.
fn pagerank_cells() -> [CellQuery; 4] {
    use PolicyChoice as P;
    use SwapChoice as S;
    [
        CellQuery::healthy(Wl::PageRank, P::Clock, S::Ssd, 0.5),
        CellQuery::healthy(Wl::PageRank, P::MgLruDefault, S::Ssd, 0.5),
        CellQuery::healthy(Wl::PageRank, P::Clock, S::Zram, 0.5),
        CellQuery::healthy(Wl::PageRank, P::MgLruDefault, S::Zram, 0.5),
    ]
}

/// Trials of every cell in one `pagerank-paper` repetition.
const PAGERANK_TRIALS: u32 = 2;

/// Simulated-work counts, summed over a fixed set of trials. They depend
/// only on the seed, so a change that only speeds up the simulator must
/// leave them identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SimCounts {
    accesses: u64,
    major_faults: u64,
    evictions: u64,
    swap_outs: u64,
    pgscan: u64,
    aging_runs: u64,
    runtime_ns: u64,
}

impl SimCounts {
    fn add(&mut self, m: &RunMetrics) {
        self.accesses += m.accesses;
        self.major_faults += m.major_faults;
        self.evictions += m.evictions;
        self.swap_outs += m.swap_outs;
        self.pgscan += m.pgscan_kswapd + m.pgscan_direct;
        self.aging_runs += m.aging_runs;
        self.runtime_ns += m.runtime_ns;
    }
}

/// One timed interval: its length, its midpoint, and the host slowdown
/// the calibration probes nearest to it read.
#[derive(Clone, Copy)]
struct Timing {
    s: f64,
    at: Instant,
    slowdown: f64,
}

impl Timing {
    /// Times `f`; the slowdown is filled in once the run's probes are in.
    fn of<T>(f: impl FnOnce() -> T) -> (T, Timing) {
        let start = Instant::now();
        let out = f();
        let s = start.elapsed().as_secs_f64();
        let at = start + Duration::from_secs_f64(s / 2.0);
        (
            out,
            Timing {
                s,
                at,
                slowdown: 1.0,
            },
        )
    }

    fn calibrate(&mut self, calib: &Calib) {
        self.slowdown = calib.slowdown_at(self.at);
    }

    /// The time the reference machine would have taken.
    fn calibrated(&self) -> f64 {
        self.s / self.slowdown
    }
}

/// One untraced repetition.
struct Rep {
    /// `Bench::new`: every repetition builds its bench.
    setup: Timing,
    /// The timed work: sweep plus render, or the repetition's trials.
    wall: Timing,
    /// Simulated accesses the repetition delivered.
    accesses: u64,
}

/// Everything the untraced phase produced.
#[derive(Default)]
struct Untraced {
    reps: Vec<Rep>,
    /// `Bench::new` times taken before the repetitions (see
    /// [`setup_samples`]).
    setup_samples: Vec<Timing>,
    /// The first repetition's output (rendered figures, or the trials'
    /// cache texts); every later repetition must match it.
    text: String,
    /// The first repetition's `to_cache_text` per `(cell ident, trial)`.
    trials: BTreeMap<(String, u32), String>,
    sim: SimCounts,
    /// CPU and wall seconds of the repetitions, probes excluded.
    cpu_s: f64,
    busy_s: f64,
    /// Median calibration probe time, in seconds.
    probe_s: f64,
    attempted: u64,
    failed: u64,
}

impl Untraced {
    fn wall(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall.s).collect()
    }

    /// Every `Bench::new` timing: the repetitions' own and the extra
    /// samples.
    fn setup(&self) -> impl Iterator<Item = &Timing> {
        self.reps
            .iter()
            .map(|r| &r.setup)
            .chain(&self.setup_samples)
    }

    /// Takes the timed phase's repetitions and costs, and reads every
    /// timing's slowdown off the run's probes.
    fn finish(&mut self, timed: Timed<Rep>, calib: &Calib) {
        self.reps = timed.reps;
        self.cpu_s = timed.cpu_s;
        self.busy_s = timed.wall_s;
        self.probe_s = calib.median_s();
        for r in &mut self.reps {
            r.setup.calibrate(calib);
            r.wall.calibrate(calib);
        }
        for t in &mut self.setup_samples {
            t.calibrate(calib);
        }
    }
}

/// What a run reports.
pub struct Report {
    /// `(name, value, unit)` in catalog order: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted: trials served, simulated or from cache.
    pub attempted: u64,
    /// Failed operations: typed failures, `SimError` trials, mismatches.
    pub failed: u64,
    /// Every correctness problem found; empty means the output is correct.
    pub problems: Vec<String>,
    /// FNV-64 of the first repetition's output.
    pub digest: u64,
    /// Untraced repetitions behind the medians.
    pub reps: usize,
    /// Whether the golden comparison applied and passed.
    pub golden: Option<bool>,
    /// Spans of the traced replay, for `--trace-out`.
    pub spans: Vec<Span>,
    /// Uncalibrated values and the calibration itself, printed for
    /// reference only.
    pub info: Vec<(&'static str, f64, &'static str)>,
}

/// What [`timed`] ran: each repetition's result, and the CPU and wall
/// seconds the repetitions took together, calibration probes excluded.
struct Timed<R> {
    reps: Vec<R>,
    cpu_s: f64,
    wall_s: f64,
}

/// Runs `rep` until `seconds` are used, stopping before a repetition the
/// median so far says would overrun, but at least once. With a `calib`,
/// the host-speed probe runs before, between (at its spacing) and after
/// the repetitions, outside their timing, more often after a longer one.
fn timed<R>(
    seconds: f64,
    mut calib: Option<&mut Calib>,
    mut rep: impl FnMut(usize) -> R,
) -> Timed<R> {
    let start = Instant::now();
    let cpu0 = host::cpu_seconds();
    let probe_cpu0 = calib.as_deref().map_or(0.0, Calib::cpu_s);
    let mut reps = Vec::new();
    let mut durs = Vec::new();
    if let Some(c) = calib.as_deref_mut() {
        c.probe(0.0);
    }
    loop {
        let t = Instant::now();
        reps.push(rep(reps.len()));
        let dur = t.elapsed().as_secs_f64();
        durs.push(dur);
        let projected = start.elapsed().as_secs_f64() + spans::median(&durs);
        if let Some(c) = calib.as_deref_mut() {
            if projected > seconds {
                c.probe(dur);
            } else {
                c.probe_if_due(dur);
            }
        }
        if projected > seconds {
            break;
        }
    }
    let probe_cpu = calib.map_or(0.0, |c| c.cpu_s()) - probe_cpu0;
    Timed {
        reps,
        cpu_s: host::cpu_seconds() - cpu0 - probe_cpu,
        wall_s: durs.iter().sum(),
    }
}

/// Extra `Bench::new` builds timed before the repetitions. A run fits as
/// few as one repetition, and a median of a few millisecond-scale builds
/// moved by a quarter between runs.
const SETUP_SAMPLES: usize = 31;

/// Times [`SETUP_SAMPLES`] builds of a bench at `scale`, between two
/// probes.
fn setup_samples(scale: Scale, calib: &mut Calib) -> Vec<Timing> {
    calib.probe(0.0);
    let samples: Vec<Timing> = (0..SETUP_SAMPLES)
        .map(|_| Timing::of(|| Bench::new(scale)).1)
        .collect();
    calib.probe(samples.iter().map(|t| t.s).sum());
    samples
}

fn reset_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create work directory {}: {e}", dir.display()));
}

/// Runs one workload for `seconds`; `work` is a scratch directory the
/// caller owns.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, work: &Path) -> Report {
    match figure_workload(name, seed) {
        Some(w) => run_figures(name, &w, seconds, trace, work),
        None => run_pagerank(seed, seconds, trace),
    }
}

/// The cache directory a figure workload's repetitions use.
fn cache_dir(w: &FigureWorkload, work: &Path) -> Option<PathBuf> {
    match w.cache {
        CacheMode::Cold => Some(work.join("cache-cold")),
        CacheMode::Warm => Some(work.join("cache-warm")),
        CacheMode::Off => None,
    }
}

/// One `repro` invocation's work: fresh bench, sweep, render.
fn figure_rep(
    w: &FigureWorkload,
    dir: Option<&Path>,
) -> (Rep, Bench, String, SweepOutcome, Vec<CellQuery>) {
    if let (CacheMode::Cold, Some(dir)) = (w.cache, dir) {
        reset_dir(dir);
    }
    let (bench, setup) = Timing::of(|| Bench::new(w.scale));
    let plan = plan_cells(&bench, &w.figs);
    let opts = SweepOptions {
        jobs: JOBS,
        cache_dir: dir.map(Path::to_path_buf),
        journal: dir.map(|d| d.join("run-journal.jsonl")),
        ..SweepOptions::default()
    };
    let ((outcome, text), wall) = Timing::of(|| {
        let outcome = run_sweep_resilient(&bench, &w.figs, &opts);
        let text = render(&bench, &w.figs, &outcome);
        (outcome, text)
    });
    let rep = Rep {
        setup,
        wall,
        accesses: 0,
    };
    (rep, bench, text, outcome, plan)
}

/// The installed trial sets of every cell the sweep merged.
fn merged_cells<'a>(
    bench: &Bench,
    plan: &'a [CellQuery],
    outcome: &SweepOutcome,
) -> Vec<(&'a CellQuery, std::sync::Arc<TrialSet>)> {
    let failed: BTreeSet<(Wl, u64)> = outcome
        .failures
        .iter()
        .map(|f| (f.wl, f.config_hash))
        .collect();
    plan.iter()
        .filter(|q| !failed.contains(&q.content_key()))
        .map(|q| (q, bench.query(q)))
        .collect()
}

fn run_figures(name: &str, w: &FigureWorkload, seconds: f64, trace: bool, work: &Path) -> Report {
    let dir = cache_dir(w, work);
    let mut problems = Vec::new();

    // Set-up: a warm workload primes its cache with one cold sweep.
    let mut primed: Option<String> = None;
    if let (CacheMode::Warm, Some(d)) = (w.cache, dir.as_deref()) {
        let cold = FigureWorkload {
            cache: CacheMode::Cold,
            scale: w.scale,
            figs: w.figs.clone(),
        };
        let (_, _, text, outcome, _) = figure_rep(&cold, Some(d));
        if !outcome.failures.is_empty() {
            problems.push(format!(
                "priming sweep failed {} cell(s)",
                outcome.failures.len()
            ));
        }
        primed = Some(text);
    }

    let untraced_seconds = if trace { seconds / 2.0 } else { seconds };
    let mut calib = Calib::new();
    let mut u = Untraced {
        setup_samples: setup_samples(w.scale, &mut calib),
        ..Untraced::default()
    };
    // A process's first cold sweep runs slow (fresh heap arenas, first
    // cache files), so a sweep of the first figure runs untimed and
    // uncounted; the warm workload's priming sweep already served as its
    // warm-up.
    if w.cache != CacheMode::Warm {
        let first = FigureWorkload {
            scale: w.scale,
            figs: w.figs[..1].to_vec(),
            cache: w.cache,
        };
        figure_rep(&first, dir.as_deref());
    }
    let reps = timed(untraced_seconds, Some(&mut calib), |i| {
        let (mut rep, bench, text, outcome, plan) = figure_rep(w, dir.as_deref());
        let stats = outcome.stats;
        u.attempted += stats.trials as u64;
        let degraded: usize = outcome.degraded.iter().map(|d| d.trials).sum();
        u.failed += (stats.failed + degraded) as u64;
        let mut sim = SimCounts::default();
        for (q, set) in merged_cells(&bench, &plan, &outcome) {
            for (t, m) in set.runs.iter().enumerate() {
                sim.add(m);
                if i == 0 && trace {
                    u.trials.insert((q.ident(), t as u32), m.to_cache_text());
                }
            }
        }
        rep.accesses = sim.accesses;
        if i == 0 {
            u.sim = sim;
            u.text = text;
            if let Some(p) = &primed {
                if &u.text != p {
                    problems.push("warm render differs from the priming render".to_owned());
                }
            }
        } else if text != u.text {
            u.failed += 1;
            problems.push(format!("repetition {i} rendered different output"));
        }
        rep
    });
    u.finish(reps, &calib);

    // At the golden seed, `repro all` itself, with all ten trials, must
    // reproduce `figures_default.txt`. It runs untimed, after the
    // repetitions.
    let golden = (name == "figures-default" && w.scale.seed == GOLDEN_SEED).then(|| {
        let full = FigureWorkload {
            scale: Scale {
                seed: GOLDEN_SEED,
                ..Scale::default_scale()
            },
            figs: all_figures(),
            cache: CacheMode::Cold,
        };
        let (_, _, text, _, _) = figure_rep(&full, dir.as_deref());
        untimed_lines(&text) == untimed_lines(GOLDEN)
    });
    if golden == Some(false) {
        problems.push("output differs from figures_default.txt".to_owned());
    }

    let mut report = Report::new(&u, problems, golden);
    if trace {
        traced_figures(w, dir.as_deref(), seconds / 2.0, &u, &mut report);
    } else {
        report.metrics = end_to_end(&u);
    }
    report
}

fn run_pagerank(seed: u64, seconds: f64, trace: bool) -> Report {
    let scale = Scale {
        seed,
        ..Scale::paper()
    };
    let cells = pagerank_cells();
    let specs: Vec<CellSpec> = (0..PAGERANK_TRIALS)
        .flat_map(|trial| {
            cells.iter().map(move |q| CellSpec {
                query: q.clone(),
                trial,
            })
        })
        .collect();
    let mut calib = Calib::new();
    let mut u = Untraced {
        setup_samples: setup_samples(scale, &mut calib),
        ..Untraced::default()
    };

    // Every repetition builds a bench and runs the same trials, one at a
    // time.
    let untraced_seconds = if trace { seconds / 2.0 } else { seconds };
    let mut problems = Vec::new();
    let reps = timed(untraced_seconds, Some(&mut calib), |r| {
        let (bench, setup) = Timing::of(|| Bench::new(scale));
        let (runs, wall) = Timing::of(|| {
            specs
                .iter()
                .map(|s| bench.run_trial(&s.query, s.trial))
                .collect::<Vec<RunMetrics>>()
        });
        let mut sim = SimCounts::default();
        let mut text = String::new();
        for (s, m) in specs.iter().zip(&runs) {
            u.attempted += 1;
            u.failed += u64::from(m.error.is_some());
            sim.add(m);
            let cache_text = m.to_cache_text();
            text.push_str(&cache_text);
            if r == 0 {
                u.trials.insert((s.query.ident(), s.trial), cache_text);
            }
        }
        if r == 0 {
            u.sim = sim;
            u.text = text;
        } else if text != u.text {
            u.failed += 1;
            problems.push(format!("repetition {r} produced different metrics"));
        }
        Rep {
            setup,
            wall,
            accesses: sim.accesses,
        }
    });
    u.finish(reps, &calib);

    let mut report = Report::new(&u, problems, None);
    if trace {
        let bench = Bench::new(scale);
        let configs: Vec<SystemConfig> = specs
            .iter()
            .map(|s| bench.resolve_config(&s.query))
            .collect();
        traced_trials(&bench, &specs, &configs, seconds / 2.0, &u, &mut report);
    } else {
        report.metrics = end_to_end(&u);
    }
    report
}

impl Report {
    fn new(u: &Untraced, problems: Vec<String>, golden: Option<bool>) -> Report {
        Report {
            metrics: Vec::new(),
            attempted: u.attempted,
            failed: u.failed,
            problems,
            digest: cache::fnv64(u.text.as_bytes()),
            reps: u.reps.len(),
            golden,
            spans: Vec::new(),
            info: vec![
                (
                    "raw_wall_s",
                    median_of(u.reps.iter().map(|r| r.wall.s)),
                    "s",
                ),
                ("raw_setup_s", median_of(u.setup().map(|t| t.s)), "s"),
                (
                    "raw_sim_pages_per_s",
                    median_of(u.reps.iter().map(|r| r.accesses as f64 / r.wall.s)),
                    "pages/s",
                ),
                ("probe_ms", u.probe_s * 1e3, "ms"),
                (
                    "slowdown",
                    median_of(u.reps.iter().map(|r| r.wall.slowdown)),
                    "ratio",
                ),
            ],
        }
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    spans::median(&values.collect::<Vec<_>>())
}

/// The end-to-end metrics: medians over samples, each time divided by the
/// host slowdown the calibration probes nearest to it read.
fn end_to_end(u: &Untraced) -> Vec<(&'static str, f64, &'static str)> {
    let values = [
        (
            "wall_s",
            median_of(u.reps.iter().map(|r| r.wall.calibrated())),
        ),
        ("setup_s", median_of(u.setup().map(Timing::calibrated))),
        (
            "sim_pages_per_s",
            median_of(
                u.reps
                    .iter()
                    .map(|r| r.accesses as f64 / r.wall.calibrated()),
            ),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, v))| {
            debug_assert_eq!(m.name, name);
            (m.name, v, m.unit)
        })
        .collect()
}

// ---------------------------------------------------------------------
// The traced replay.
// ---------------------------------------------------------------------

/// The benchmark's own workload instances, built from the same public
/// configs `Bench::new` uses, so the replay can call `Kernel::build`.
#[derive(Default)]
struct Own {
    tpch: Option<TpchWorkload>,
    pagerank: Option<PageRankWorkload>,
    ycsb: [Option<YcsbWorkload>; 3],
}

/// Seconds spent building each workload family: TPC-H, PageRank, YCSB.
type BuildTimes = [f64; 3];

/// `Bench::new`'s YCSB sizing at footprint factor `f`.
fn ycsb_config(mix: YcsbMix, f: f64) -> YcsbConfig {
    let mut cfg = YcsbConfig::with_mix(mix);
    cfg.items = ((cfg.items as f64 * f) as u32).max(1_000);
    cfg.requests = ((cfg.requests as f64 * f) as u64).max(10_000);
    cfg
}

const YCSB: [(Wl, YcsbMix); 3] = [
    (Wl::YcsbA, YcsbMix::A),
    (Wl::YcsbB, YcsbMix::B),
    (Wl::YcsbC, YcsbMix::C),
];

impl Own {
    /// Builds every workload at `scale`, one at a time, timing each family
    /// and checking each footprint against `footprint` (the bench's). Only
    /// the workloads in `keep` are retained.
    fn build(
        scale: Scale,
        footprint: &dyn Fn(Wl) -> u32,
        keep: &BTreeSet<Wl>,
    ) -> (Own, BuildTimes, Vec<String>) {
        let f = scale.footprint;
        let mut own = Own::default();
        let mut times = [0.0; 3];
        let mut problems = Vec::new();
        let mut check = |wl: Wl, w: &dyn Workload| {
            let (got, want) = (w.footprint_pages(), footprint(wl));
            if got != want {
                problems.push(format!(
                    "mirror {}: footprint {got} pages, Bench::footprint says {want}",
                    wl.label()
                ));
            }
        };

        let t = Instant::now();
        let tpch = TpchWorkload::new(TpchConfig::default().scaled(f));
        times[0] = t.elapsed().as_secs_f64();
        check(Wl::Tpch, &tpch);
        own.tpch = keep.contains(&Wl::Tpch).then_some(tpch);

        let t = Instant::now();
        let pagerank = PageRankWorkload::new(PageRankConfig::default().scaled(f), WORKLOAD_SEED);
        times[1] = t.elapsed().as_secs_f64();
        check(Wl::PageRank, &pagerank);
        own.pagerank = keep.contains(&Wl::PageRank).then_some(pagerank);

        for (slot, (wl, mix)) in own.ycsb.iter_mut().zip(YCSB) {
            let t = Instant::now();
            let w = YcsbWorkload::new(ycsb_config(mix, f), WORKLOAD_SEED);
            times[2] += t.elapsed().as_secs_f64();
            check(wl, &w);
            *slot = keep.contains(&wl).then_some(w);
        }
        (own, times, problems)
    }

    fn get(&self, wl: Wl) -> &dyn Workload {
        let w: Option<&dyn Workload> = match wl {
            Wl::Tpch => self.tpch.as_ref().map(|w| w as &dyn Workload),
            Wl::PageRank => self.pagerank.as_ref().map(|w| w as &dyn Workload),
            Wl::YcsbA => self.ycsb[0].as_ref().map(|w| w as &dyn Workload),
            Wl::YcsbB => self.ycsb[1].as_ref().map(|w| w as &dyn Workload),
            Wl::YcsbC => self.ycsb[2].as_ref().map(|w| w as &dyn Workload),
        };
        w.unwrap_or_else(|| panic!("workload {} was not kept for the replay", wl.label()))
    }
}

/// One simulated trial of the replay, for the kernel-layer estimates.
struct KernelRun {
    wl: Wl,
    trial: u32,
    clock: bool,
    ssd: bool,
    accesses: u64,
    run_ns: u64,
}

/// What one replayed trial produced.
struct TrialOut {
    metrics: RunMetrics,
    from_cache: bool,
    kernel: Option<KernelRun>,
    ms: u64,
}

/// Inputs of one replay.
struct Replay<'a> {
    trace: &'a Trace,
    own: &'a Own,
    specs: &'a [CellSpec],
    configs: &'a [SystemConfig],
    master_seed: u64,
    /// The bench, for the cache, install and render layers; `None`
    /// replays bare trials.
    bench: Option<&'a Bench>,
    cache_dir: Option<&'a Path>,
    jobs: usize,
}

/// What one replay produced.
struct Replayed {
    /// Exec through render; planning, codec checks and the
    /// workload-generation phase are outside it.
    wall_s: f64,
    trials: Vec<TrialOut>,
    /// Each trial's `to_cache_text`, and whether it decodes back to
    /// itself.
    texts: Vec<(String, bool)>,
    text: String,
}

fn replay_trial(r: &Replay<'_>, i: usize, thread: u32, exec: usize) -> TrialOut {
    let spec = &r.specs[i];
    let id = Some(i as u32);
    let t = Instant::now();
    r.trace
        .span("sweep::trial", id, thread, Some(exec), |parent| {
            let parent = Some(parent);
            let mut hit = None;
            if let (Some(bench), Some(dir)) = (r.bench, r.cache_dir) {
                let read = r.trace.span("cache::load", id, thread, parent, |_| {
                    cache::load(dir, bench, spec)
                });
                if let cache::CacheRead::Hit(m) = read {
                    hit = Some(*m);
                }
            }
            let from_cache = hit.is_some();
            let mut kernel = None;
            let metrics = match hit {
                Some(m) => m,
                None => {
                    let seed = trial_seed(r.master_seed, spec.trial);
                    let wl = r.own.get(spec.query.wl);
                    let k = r.trace.span("Kernel::build", id, thread, parent, |_| {
                        Kernel::build(&r.configs[i], wl, seed)
                    });
                    let t_run = Instant::now();
                    let m = r.trace.span("Kernel::run", id, thread, parent, |_| k.run());
                    kernel = Some(KernelRun {
                        wl: spec.query.wl,
                        trial: spec.trial,
                        clock: matches!(spec.query.policy, PolicyChoice::Clock),
                        ssd: matches!(spec.query.swap, SwapChoice::Ssd),
                        accesses: m.accesses,
                        run_ns: t_run.elapsed().as_nanos() as u64,
                    });
                    if let (Some(bench), Some(dir)) = (r.bench, r.cache_dir) {
                        r.trace.span("cache::store", id, thread, parent, |_| {
                            cache::store(dir, bench, spec, &m, i)
                        });
                    }
                    m
                }
            };
            TrialOut {
                metrics,
                from_cache,
                kernel,
                ms: t.elapsed().as_millis() as u64,
            }
        })
}

/// Replays `r.specs` on `r.jobs` threads (workers are threads 1..=jobs;
/// the main thread journals, merges and renders), then installs the cells
/// and renders `figs` when a bench is given.
fn replay(r: &Replay<'_>, cells: &[CellQuery], figs: &[String]) -> Replayed {
    let t0 = Instant::now();
    let mut journal = match (r.bench, r.cache_dir) {
        (Some(_), Some(dir)) => Journal::open(&dir.join("run-journal.jsonl"), false),
        _ => None,
    };
    if let Some(j) = journal.as_mut() {
        j.run_header(cells.len(), r.specs.len(), figs, false);
    }
    let mut slots: Vec<Option<TrialOut>> = (0..r.specs.len()).map(|_| None).collect();
    r.trace.span("sweep::exec", None, 0, None, |exec| {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for w in 0..r.jobs.clamp(1, r.specs.len().max(1)) {
                let (tx, next) = (tx.clone(), &next);
                // lint: allow(thread-spawn) the benchmark's own replay workers, at most JOBS, joined by the scope
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= r.specs.len() {
                        break;
                    }
                    let out = replay_trial(r, i, w as u32 + 1, exec);
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                if let (Some(j), Some(bench)) = (journal.as_mut(), r.bench) {
                    let spec = &r.specs[i];
                    let hash = bench.trial_content_hash(&spec.query, spec.trial);
                    let ident = format!("{} trial {}", spec.query.ident(), spec.trial);
                    let (status, detail) = match out.metrics.error {
                        Some(e) => ("done-degraded", Some(e.name())),
                        None => ("done", None),
                    };
                    let attempts = u32::from(!out.from_cache);
                    r.trace
                        .span("Journal::trial", Some(i as u32), 0, Some(exec), |_| {
                            j.trial(hash, &ident, status, detail, attempts, out.ms)
                        });
                }
                slots[i] = Some(out);
            }
        });
    });
    if let Some(j) = journal.as_mut() {
        j.end(r.specs.len(), 0, false);
    }
    let trials: Vec<TrialOut> = slots
        .into_iter()
        .map(|s| s.expect("every replayed trial reports back"))
        .collect();

    let mut text = String::new();
    if let Some(bench) = r.bench {
        let per_cell = bench.scale().trials as usize;
        r.trace.span("sweep::merge", None, 0, None, |merge| {
            for (ci, q) in cells.iter().enumerate() {
                let runs = trials[ci * per_cell..(ci + 1) * per_cell]
                    .iter()
                    .map(|t| t.metrics.clone())
                    .collect();
                r.trace.span(
                    "Bench::install_cell",
                    Some(ci as u32),
                    0,
                    Some(merge),
                    |_| bench.install_cell(q, TrialSet { runs }),
                );
            }
        });
        text = header(bench);
        for fig in figs {
            let (_, span, render) = figure(fig);
            let body = r.trace.span(span, None, 0, None, |_| render(bench));
            text.push_str(&format!("{body}\n\n"));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // The metrics codec, timed per trial after the replay so its checks
    // stay out of the replay's wall time.
    let texts = trials
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (text, decoded) = r
                .trace
                .span("metrics::codec", Some(i as u32), 0, None, |_| {
                    let text = t.metrics.to_cache_text();
                    let decoded = RunMetrics::from_cache_text(&text);
                    (text, decoded)
                });
            let round_trips = decoded.is_some_and(|d| d.to_cache_text() == text);
            (text, round_trips)
        })
        .collect();
    Replayed {
        wall_s,
        trials,
        texts,
        text,
    }
}

/// Drains every stream of each `(workload, trial)` pair once, as one
/// `workloads.gen` span per pair, on the main thread: the generator
/// allocates per request, and two concurrent drains slow each other
/// several-fold, so only a lone drain gives its intrinsic cost. Returns the
/// span's duration and the ops generated, per pair.
fn gen_phase(
    trace: &Trace,
    own: &Own,
    pairs: &BTreeSet<(Wl, u32)>,
    master_seed: u64,
) -> BTreeMap<(Wl, u32), (u64, u64)> {
    pairs
        .iter()
        .map(|&(wl, trial)| {
            let t = Instant::now();
            let ops = trace.span("workloads.gen", Some(trial), 0, None, |_| {
                let mut ops = 0u64;
                for mut stream in own.get(wl).streams(trial_seed(master_seed, trial)) {
                    while stream.next_op() != Op::Done {
                        ops += 1;
                    }
                }
                ops
            });
            ((wl, trial), (t.elapsed().as_nanos() as u64, ops))
        })
        .collect()
}

/// Per-layer values by catalog name.
struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not in the catalog"
        );
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        self.values
            .insert(name, if value.is_finite() { value + 0.0 } else { 0.0 });
    }

    /// Every catalog metric in order; layers the workload never entered
    /// read 0.
    fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    self.values.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Durations, in `unit_ns` units, of the spans named `name`.
fn durations(spans: &[Span], name: &str, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / unit_ns)
        .collect()
}

/// Everything the traced phase measured, reduced to per-layer metrics.
struct TracedPhase<'a> {
    untraced: &'a Untraced,
    build: BuildTimes,
    spans: Vec<Span>,
    kernel: Vec<KernelRun>,
    gen: BTreeMap<(Wl, u32), (u64, u64)>,
    traced_wall: Vec<f64>,
    loads: usize,
    hits: usize,
    jobs: usize,
    mirrored: usize,
}

impl TracedPhase<'_> {
    fn layers(&self) -> Layers {
        const MS: f64 = 1e6;
        const US: f64 = 1e3;
        let s = &self.spans;
        let mut l = Layers::new();
        l.set("workloads.build_s.tpch", self.build[0]);
        l.set("workloads.build_s.pagerank", self.build[1]);
        l.set("workloads.build_s.ycsb", self.build[2]);

        let (gen_ns, gen_ops) = self
            .gen
            .values()
            .fold((0u64, 0u64), |(n, o), &(dn, dops)| (n + dn, o + dops));
        l.set(
            "workloads.gen_ns_per_op",
            ratio(gen_ns as f64, gen_ops as f64),
        );
        // The generator runs inside Kernel::run; each run is charged the
        // standalone drain time of its (workload, trial) streams.
        let gen_of = |k: &KernelRun| self.gen.get(&(k.wl, k.trial)).map_or(0, |g| g.0) as f64;
        let run_total: f64 = self.kernel.iter().map(|k| k.run_ns as f64).sum();
        let gen_total: f64 = self.kernel.iter().map(gen_of).sum();
        l.set("workloads.gen_share", ratio(gen_total, run_total));

        let build = durations(s, "Kernel::build", MS);
        let run = durations(s, "Kernel::run", MS);
        l.set("kernel.build_ms_p50", spans::median(&build));
        l.set("kernel.run_ms_p50", spans::median(&run));
        l.set("kernel.run_ms_tail", spans::tail(&run));
        l.set("kernel.runs", run.len() as f64);
        let ns_per_access = |pick: &dyn Fn(&KernelRun) -> bool| {
            let runs: Vec<&KernelRun> = self.kernel.iter().filter(|k| pick(k)).collect();
            let net: f64 = runs.iter().map(|k| k.run_ns as f64 - gen_of(k)).sum();
            let accesses: f64 = runs.iter().map(|k| k.accesses as f64).sum();
            ratio(net, accesses)
        };
        l.set("kernel.ns_per_access", ns_per_access(&|_| true));
        l.set("policy.clock.ns_per_access", ns_per_access(&|k| k.clock));
        l.set("policy.mglru.ns_per_access", ns_per_access(&|k| !k.clock));
        l.set("swap.ssd.ns_per_access", ns_per_access(&|k| k.ssd));
        l.set("swap.zram.ns_per_access", ns_per_access(&|k| !k.ssd));

        l.set(
            "metrics.codec_us_p50",
            spans::median(&durations(s, "metrics::codec", US)),
        );
        let load = durations(s, "cache::load", US);
        let store = durations(s, "cache::store", US);
        l.set("cache.load_us_p50", spans::median(&load));
        l.set("cache.load_us_tail", spans::tail(&load));
        l.set("cache.store_us_p50", spans::median(&store));
        l.set("cache.store_us_tail", spans::tail(&store));
        l.set(
            "cache.hit_ratio",
            ratio(self.hits as f64, self.loads as f64),
        );
        let journal = durations(s, "Journal::trial", US);
        l.set("journal.append_us_p50", spans::median(&journal));
        l.set("journal.append_us_tail", spans::tail(&journal));

        // Render time per replay: all figure spans, averaged over replays.
        let reps = self.traced_wall.len().max(1) as f64;
        let render: f64 = s
            .iter()
            .filter(|sp| sp.name.starts_with("experiments::fig"))
            .map(|sp| sp.dur() as f64 / MS)
            .sum();
        l.set("experiments.render_ms", render / reps);
        l.set(
            "experiments.install_us_p50",
            spans::median(&durations(s, "Bench::install_cell", US)),
        );
        l.set(
            "sweep.plan_ms",
            spans::median(&durations(s, "sweep::plan", MS)),
        );
        let exec = durations(s, "sweep::exec", MS);
        l.set("sweep.exec_ms", spans::median(&exec));
        l.set(
            "sweep.merge_ms",
            spans::median(&durations(s, "sweep::merge", MS)),
        );
        let busy: f64 = durations(s, "sweep::trial", MS).iter().sum();
        l.set(
            "sweep.busy_share",
            ratio(busy, self.jobs as f64 * exec.iter().sum::<f64>()),
        );

        let wall = self.untraced.wall();
        l.set(
            "rep.wall_ms_tail",
            spans::tail(&wall.iter().map(|w| w * 1e3).collect::<Vec<_>>()),
        );
        // CPU of a whole repetition, its `Bench::new` and render included,
        // over the time the repetitions took.
        let reps_u = wall.len().max(1) as f64;
        l.set("process.cpu_s", self.untraced.cpu_s / reps_u);
        l.set("process.peak_rss_mb", host::peak_rss_mib());
        l.set(
            "process.cpu_util",
            ratio(self.untraced.cpu_s, self.jobs as f64 * self.untraced.busy_s),
        );

        let sim = self.untraced.sim;
        l.set("sim.accesses", sim.accesses as f64);
        l.set("sim.major_faults", sim.major_faults as f64);
        l.set("sim.evictions", sim.evictions as f64);
        l.set("sim.swap_outs", sim.swap_outs as f64);
        l.set("sim.pgscan", sim.pgscan as f64);
        l.set("sim.aging_runs", sim.aging_runs as f64);
        l.set("sim.runtime_s", sim.runtime_ns as f64 / 1e9);

        // Trial time no layer span accounts for: the trial spans' self time.
        let self_ns = spans::self_times(s);
        let (trial_self, trial_total) = s
            .iter()
            .zip(&self_ns)
            .filter(|(sp, _)| sp.name == "sweep::trial")
            .fold((0u64, 0u64), |(a, b), (sp, &st)| (a + st, b + sp.dur()));
        l.set(
            "trace.residual_share",
            ratio(trial_self as f64, trial_total as f64),
        );
        l.set(
            "trace.overhead_share",
            ratio(spans::median(&self.traced_wall), spans::median(&wall)) - 1.0,
        );
        l.set("trace.spans", s.len() as f64);
        l.set("trace.mirror_trials", self.mirrored as f64);
        l
    }
}

/// Checks a replay against the untraced run: every trial's cache text, the
/// codec round trip, and the rendered output.
fn check_replay(
    u: &Untraced,
    specs: &[CellSpec],
    got: &Replayed,
    expect_text: Option<&str>,
    problems: &mut Vec<String>,
) -> usize {
    let mut mirrored = 0;
    for (spec, (text, round_trips)) in specs.iter().zip(&got.texts) {
        let key = (spec.query.ident(), spec.trial);
        match u.trials.get(&key) {
            Some(want) if want == text => mirrored += 1,
            Some(_) => problems.push(format!(
                "replayed {} trial {} differs from the untraced run",
                key.0, key.1
            )),
            None => problems.push(format!(
                "replayed {} trial {} has no untraced twin",
                key.0, key.1
            )),
        }
        if !round_trips {
            problems.push(format!(
                "{} trial {}: cache text does not round-trip",
                key.0, key.1
            ));
        }
    }
    if let Some(want) = expect_text {
        if got.text != want {
            problems.push("traced render differs from the untraced render".to_owned());
        }
    }
    mirrored
}

fn traced_figures(
    w: &FigureWorkload,
    dir: Option<&Path>,
    seconds: f64,
    u: &Untraced,
    report: &mut Report,
) {
    let bench0 = Bench::new(w.scale);
    let plan0 = plan_cells(&bench0, &w.figs);
    let keep: BTreeSet<Wl> = plan0.iter().map(|q| q.wl).collect();
    let (own, build, problems) = Own::build(w.scale, &|wl| bench0.footprint(wl), &keep);
    report.problems.extend(problems);
    drop(bench0);

    let trace = Trace::new();
    let mut kernel = Vec::new();
    let mut traced_wall = Vec::new();
    let (mut loads, mut hits, mut mirrored) = (0, 0, 0);
    let mut gen = BTreeMap::new();
    timed(seconds, None, |_| {
        if let (CacheMode::Cold, Some(d)) = (w.cache, dir) {
            reset_dir(d);
        }
        let bench = Bench::new(w.scale);
        let (cells, specs) = trace.span("sweep::plan", None, 0, None, |_| {
            let cells = plan_cells(&bench, &w.figs);
            let specs = plan_specs(&bench, &cells);
            (cells, specs)
        });
        let configs: Vec<SystemConfig> = specs
            .iter()
            .map(|s| bench.resolve_config(&s.query))
            .collect();
        let r = Replay {
            trace: &trace,
            own: &own,
            specs: &specs,
            configs: &configs,
            master_seed: w.scale.seed,
            bench: Some(&bench),
            cache_dir: dir,
            jobs: JOBS,
        };
        let got = replay(&r, &cells, &w.figs);
        traced_wall.push(got.wall_s);
        mirrored += check_replay(u, &specs, &got, Some(&u.text), &mut report.problems);
        report.attempted += specs.len() as u64;
        for t in got.trials {
            loads += usize::from(dir.is_some());
            hits += usize::from(t.from_cache);
            report.failed += u64::from(t.metrics.error.is_some());
            kernel.extend(t.kernel);
        }
        // Generation is measured once per (workload, trial) the kernel ran.
        if gen.is_empty() {
            let pairs: BTreeSet<(Wl, u32)> = kernel.iter().map(|k| (k.wl, k.trial)).collect();
            gen = gen_phase(&trace, &own, &pairs, w.scale.seed);
        }
    });
    let spans = trace.into_spans();
    let phase = TracedPhase {
        untraced: u,
        build,
        spans,
        kernel,
        gen,
        traced_wall,
        loads,
        hits,
        jobs: JOBS,
        mirrored,
    };
    report.metrics = phase.layers().into_metrics();
    report.spans = phase.spans;
}

/// The traced replay of `pagerank-paper`: the same trials, one at a time,
/// with the benchmark's own PageRank instance.
fn traced_trials(
    bench: &Bench,
    specs: &[CellSpec],
    configs: &[SystemConfig],
    seconds: f64,
    u: &Untraced,
    report: &mut Report,
) {
    let scale = bench.scale();
    let keep: BTreeSet<Wl> = specs.iter().map(|s| s.query.wl).collect();
    let (own, build, problems) = Own::build(scale, &|wl| bench.footprint(wl), &keep);
    report.problems.extend(problems);

    let trace = Trace::new();
    let mut kernel = Vec::new();
    let mut traced_wall = Vec::new();
    let mut mirrored = 0;
    let pairs: BTreeSet<(Wl, u32)> = specs.iter().map(|s| (s.query.wl, s.trial)).collect();
    let gen = gen_phase(&trace, &own, &pairs, scale.seed);
    timed(seconds, None, |_| {
        let r = Replay {
            trace: &trace,
            own: &own,
            specs,
            configs,
            master_seed: scale.seed,
            bench: None,
            cache_dir: None,
            jobs: 1,
        };
        let got = replay(&r, &[], &[]);
        traced_wall.push(got.wall_s);
        mirrored += check_replay(u, specs, &got, None, &mut report.problems);
        report.attempted += specs.len() as u64;
        for t in got.trials {
            report.failed += u64::from(t.metrics.error.is_some());
            kernel.extend(t.kernel);
        }
    });
    let phase = TracedPhase {
        untraced: u,
        build,
        spans: trace.into_spans(),
        kernel,
        gen,
        traced_wall,
        loads: 0,
        hits: 0,
        jobs: 1,
        mirrored,
    };
    report.metrics = phase.layers().into_metrics();
    report.spans = phase.spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_footprints_match_bench_at_every_scale() {
        for scale in [
            Scale::smoke(),
            Scale::default_scale(),
            Scale::paper(),
            Scale::paper_native(),
        ] {
            let bench = Bench::new(scale);
            let footprints: BTreeMap<Wl, u32> = Wl::all()
                .into_iter()
                .map(|wl| (wl, bench.footprint(wl)))
                .collect();
            drop(bench);
            let (_, _, problems) = Own::build(scale, &|wl| footprints[&wl], &BTreeSet::new());
            assert!(
                problems.is_empty(),
                "footprint {}: {problems:?}",
                scale.footprint
            );
        }
    }

    #[test]
    fn replay_matches_bench_run_trial() {
        let scale = Scale::smoke();
        let bench = Bench::new(scale);
        let specs: Vec<CellSpec> = [Wl::Tpch, Wl::YcsbA]
            .into_iter()
            .map(|wl| CellSpec {
                query: CellQuery::healthy(wl, PolicyChoice::MgLruDefault, SwapChoice::Zram, 0.5),
                trial: 1,
            })
            .collect();
        let configs: Vec<SystemConfig> = specs
            .iter()
            .map(|s| bench.resolve_config(&s.query))
            .collect();
        let keep = BTreeSet::from([Wl::Tpch, Wl::YcsbA]);
        let (own, _, problems) = Own::build(scale, &|wl| bench.footprint(wl), &keep);
        assert!(problems.is_empty(), "{problems:?}");
        let trace = Trace::new();
        let r = Replay {
            trace: &trace,
            own: &own,
            specs: &specs,
            configs: &configs,
            master_seed: scale.seed,
            bench: None,
            cache_dir: None,
            jobs: JOBS,
        };
        let got = replay(&r, &[], &[]);
        for ((spec, t), (text, round_trips)) in specs.iter().zip(&got.trials).zip(&got.texts) {
            assert_eq!(
                *text,
                bench.run_trial(&spec.query, spec.trial).to_cache_text()
            );
            assert!(*round_trips && !t.from_cache && t.kernel.is_some());
        }
        let spans = trace.into_spans();
        let trials: Vec<&Span> = spans.iter().filter(|s| s.name == "sweep::trial").collect();
        assert_eq!(trials.len(), 2);
        assert!(trials
            .iter()
            .all(|s| s.thread >= 1 && s.thread <= JOBS as u32));
        assert!(spans.iter().filter(|s| s.name == "Kernel::run").all(|s| {
            let p = &spans[s.parent.expect("kernel spans have a trial parent")];
            p.name == "sweep::trial" && p.trial == s.trial
        }));
    }

    #[test]
    fn render_matches_the_golden_prefix_format() {
        // The header is the first thing the golden comparison checks.
        let bench = Bench::new(Scale::default_scale());
        let head = header(&bench);
        let golden: Vec<&str> = untimed_lines(GOLDEN);
        for (got, want) in head.lines().zip(golden) {
            assert_eq!(got, want);
        }
    }
}
