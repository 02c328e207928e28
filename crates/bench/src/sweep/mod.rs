//! Deterministic parallel sweep executor with a content-addressed cell
//! cache and a crash-resilient execution layer.
//!
//! The figure drivers in `pagesim::experiments` only read the bench's cell
//! table, and a cell missing from it is a panic, not a recompute. This
//! module is the one thing that runs cells: it turns a figure list into
//! an explicit work plan.
//!
//! 1. **Enumerate** — `pagesim::experiments::figure_cells` expands every
//!    requested figure into the grid of [`CellQuery`]s its
//!    `pagesim::experiments::EXPERIMENTS` entry declares; duplicates across
//!    figures collapse on the cell content key, and each surviving cell
//!    fans out into `trials` independent [`CellSpec`]s.
//! 2. **Execute** — a pool of `jobs` worker threads drains a requeue-capable
//!    spec queue and sends each outcome over a channel. Workers first
//!    consult the on-disk cache ([`cache`]): entries are checksummed, so a
//!    verified hit skips the simulation and a corrupt entry is quarantined
//!    and recomputed. Each trial attempt runs behind the `isolation`
//!    module's `catch_unwind`: a panic costs one attempt, not the sweep;
//!    transient failures retry up to three attempts in all, then the
//!    trial records a typed [`FailureKind`]. A worker that dies outside
//!    per-trial isolation is respawned and its in-flight trial requeued.
//! 3. **Merge** — results are placed by spec index and folded into
//!    [`TrialSet`]s in canonical (enumeration) order, then installed into
//!    the bench. Cells missing a trial become [`CellFailure`]s instead of
//!    panics: the figure layer renders them as explicit holes. Because a
//!    trial's metrics depend only on its spec — never on scheduling —
//!    figure output is byte-identical for any `jobs` value, any cache
//!    state, and any recovered fault schedule.
//!
//! The cache is the sweep's one checkpoint: every entry is durable before
//! its outcome reaches the collector, so rerunning an interrupted sweep
//! with the same cache directory serves every finished trial from it and
//! runs only the rest. Alongside the cache, an append-only JSONL
//! [`journal`] records every trial outcome as the collector receives it,
//! as a write-only audit log; nothing reads it back. The [`chaos`] module
//! injects seeded harness faults so tests and CI can prove all of the
//! above.
//!
//! Nothing here writes to stdout; progress and the final summary belong to
//! stderr so `repro`'s figure stream stays byte-comparable.

pub mod cache;
pub mod chaos;
mod isolation;
pub mod journal;

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
// Wall-clock phase timing for the stderr summary only — never visible to
// the simulation (the two timing fns carry the clippy.toml waiver).
use std::time::Instant;

use pagesim::experiments::{figure_cells, Bench, CellQuery, CellSpec};
use pagesim::{CellFailure, FailureKind, RunMetrics, SimError, TrialSet};
use pagesim_trace::{TraceConfig, TraceData};

pub use chaos::ChaosPlan;
use chaos::ChaosState;

/// A request to trace exactly one trial during a sweep. The traced trial
/// bypasses the cache *read* (a hit would skip the simulation and produce
/// no trace) but still writes its result back, and its metrics flow into
/// the merged cells exactly like any other trial's — so the figure output
/// of a traced sweep is byte-identical to an untraced one.
#[derive(Clone, Debug)]
pub struct TraceRequest {
    /// The cell to trace.
    pub query: CellQuery,
    /// The trial index within that cell.
    pub trial: u32,
    /// Sampler and ring configuration.
    pub config: TraceConfig,
}

/// Attempts per trial before a panic becomes a recorded failure.
const MAX_ATTEMPTS: u32 = 3;

/// How the sweep runs: worker count, cache placement, optional tracing,
/// and the fault-tolerance knobs (journal, budget, chaos).
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads. `1` executes trials strictly serially.
    pub jobs: usize,
    /// Cell cache directory; `None` disables the cache entirely.
    pub cache_dir: Option<PathBuf>,
    /// Trace one trial while sweeping (`repro trace`).
    pub trace: Option<TraceRequest>,
    /// Run journal path; `None` disables journalling. Each sweep
    /// truncates the file and writes its own outcomes.
    pub journal: Option<PathBuf>,
    /// Deterministic per-trial budget in *simulated* nanoseconds: a trial
    /// whose simulation would exceed it is classified as a timeout failure
    /// and its truncated metrics are discarded, never merged or cached.
    /// Being sim-time, the same trial trips (or not) identically on any
    /// host at any `jobs`.
    pub trial_budget: Option<u64>,
    /// Seeded harness fault injection (tests and `repro --chaos`).
    pub chaos: Option<ChaosPlan>,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: default_jobs(),
            cache_dir: None,
            trace: None,
            journal: None,
            trial_budget: None,
            chaos: None,
        }
    }
}

/// Locks `m`, reading through a poisoned state: a worker panic that
/// [`isolation`] caught does not wedge the lock for the rest of the sweep.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What a sweep did, for the stderr summary and for tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Distinct cells planned (after cross-figure dedup).
    pub cells: usize,
    /// Trials planned (`cells * trials_per_cell`).
    pub trials: usize,
    /// Trials served from the on-disk cache (checksum-verified).
    pub cache_hits: usize,
    /// Trials simulated (cache disabled, cold, stale, or quarantined).
    pub cache_misses: usize,
    /// Extra attempts spent retrying transient trial failures.
    pub retries: usize,
    /// Corrupt cache entries quarantined (then recomputed).
    pub quarantined: usize,
    /// Stale `*.tmp*` files removed from the cache dir at startup.
    pub tmp_cleaned: usize,
    /// Trials that exhausted their attempts and recorded a typed failure.
    pub failed: usize,
    /// Workers respawned after dying outside per-trial isolation.
    pub respawns: usize,
    /// Shadow entries left at end-of-run, summed over merged trials.
    pub shadow: u64,
    /// Working-set refaults (shadow-entry hits), summed over merged trials.
    pub ws_refault: u64,
    /// Wall time spent enumerating and deduplicating cells, in ms.
    pub plan_ms: u64,
    /// Wall time spent executing trials (cache reads included), in ms.
    pub exec_ms: u64,
    /// Wall time spent merging and installing results, in ms.
    pub merge_ms: u64,
}

impl SweepStats {
    /// Cache hit rate over planned trials (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.trials as f64
        }
    }
}

impl std::fmt::Display for SweepStats {
    /// One stable-format summary line, greppable by CI:
    /// `sweep cells=2 trials=6 hits=0 misses=6 hit_rate=0.000 plan_ms=0
    /// exec_ms=41 merge_ms=0 retries=0 quarantined=0 tmp_cleaned=0
    /// failed=0 respawns=0 shadow=0 ws_refault=0`.
    /// Single spaces, no trailing space; tools match on the `key=value`
    /// tokens (` hits=0 `, ` hits=N `), so keys are never reordered.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep cells={} trials={} hits={} misses={} hit_rate={:.3} plan_ms={} \
             exec_ms={} merge_ms={} retries={} quarantined={} \
             tmp_cleaned={} failed={} respawns={} shadow={} ws_refault={}",
            self.cells,
            self.trials,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.plan_ms,
            self.exec_ms,
            self.merge_ms,
            self.retries,
            self.quarantined,
            self.tmp_cleaned,
            self.failed,
            self.respawns,
            self.shadow,
            self.ws_refault
        )
    }
}

/// A cell that merged, but with at least one trial carrying a
/// [`SimError`]. Degraded cells still plot — the fault-injection figures
/// depend on it — and are surfaced here so the failure report can say
/// exactly what ran impaired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradedCell {
    /// Cell identity ([`CellQuery::ident`]).
    pub ident: String,
    /// `SimError::name()` of the first degraded trial.
    pub error: String,
    /// How many of the cell's trials ended degraded.
    pub trials: usize,
}

/// Everything a resilient sweep produced.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Counters for the stderr summary.
    pub stats: SweepStats,
    /// Cells that could not be completed, in canonical plan order. Empty
    /// means every planned cell merged.
    pub failures: Vec<CellFailure>,
    /// Cells that merged with `SimError`-carrying trials.
    pub degraded: Vec<DegradedCell>,
    /// The captured trace, when one was requested.
    pub trace: Option<TraceData>,
    /// True when a chaos abort stopped the sweep before merging: nothing
    /// was installed, and rerunning with the same cache directory serves
    /// every trial already finished.
    pub aborted: bool,
}

/// Expands `figs` into the deduplicated cell plan, in canonical order:
/// figures in the order given, each figure's grid in driver order, first
/// occurrence wins. Cells already resident in `bench` are excluded.
pub fn plan_cells(bench: &Bench, figs: &[String]) -> Vec<CellQuery> {
    // Ordered set: dedup order must be a pure function of the figure list
    // (clippy.toml bans the hash containers workspace-wide).
    let mut seen = std::collections::BTreeSet::new();
    let mut plan = Vec::new();
    for fig in figs {
        for q in figure_cells(fig) {
            if seen.insert(q.content_key()) && !bench.has_cell(&q) {
                plan.push(q);
            }
        }
    }
    plan
}

/// Expands a cell plan into per-trial work units, cell-major: the specs of
/// cell `i` occupy indices `i*trials .. (i+1)*trials`.
pub fn plan_specs(bench: &Bench, plan: &[CellQuery]) -> Vec<CellSpec> {
    let trials = bench.scale().trials;
    plan.iter()
        .flat_map(|q| {
            (0..trials).map(move |trial| CellSpec {
                query: q.clone(),
                trial,
            })
        })
        .collect()
}

/// Runs every cell the given figures need and installs the results into
/// `bench`, so the figure drivers can render. Returns the
/// sweep statistics. Output is deterministic: for a fixed bench scale the
/// installed cells are byte-identical regardless of `jobs`, cache state,
/// or completion order. Fault-tolerance outcomes (typed failures,
/// degradation, abort) are available through [`run_sweep_resilient`].
pub fn run_sweep(bench: &Bench, figs: &[String], opts: &SweepOptions) -> SweepStats {
    run_sweep_resilient(bench, figs, opts).stats
}

/// One worker-to-collector message.
enum Msg {
    /// A trial resolved: merged metrics or a recorded failure.
    Trial(usize, Box<TrialOutcome>),
    /// A worker exited. `died` means a panic escaped per-trial isolation;
    /// `in_flight` names the spec it was processing, if any.
    WorkerExit {
        died: bool,
        in_flight: Option<usize>,
    },
}

/// Everything one trial's processing produced.
struct TrialOutcome {
    /// The trial's cache identity, which the journal line reuses.
    key: cache::TrialKey,
    /// Merged metrics; `None` exactly when `failure` is `Some`.
    metrics: Option<RunMetrics>,
    /// The typed failure, when every attempt was exhausted or discarded.
    failure: Option<FailureKind>,
    /// Simulation attempts spent (0 for a cache hit).
    attempts: u32,
    /// Served from the on-disk cache.
    from_cache: bool,
    /// Corrupt cache entries quarantined while reading this trial.
    quarantined: usize,
    /// Retries consumed by transient failures.
    retried: u32,
    /// Wall-clock spent on this trial, for the journal.
    wall_ms: u64,
}

/// Shared, read-only view the workers operate on.
struct WorkerCtx<'a> {
    bench: &'a Bench,
    opts: &'a SweepOptions,
    specs: &'a [CellSpec],
    queue: &'a Mutex<VecDeque<usize>>,
    abort: &'a AtomicBool,
    chaos: Option<&'a ChaosState>,
    traced_idx: Option<usize>,
    trace_slot: &'a Mutex<Option<TraceData>>,
}

/// [`run_sweep`] with the full fault-tolerance outcome: typed per-cell
/// failures, degraded-cell notes, the abort flag, and the trace
/// `opts.trace` asked for. The trace is captured even if the traced
/// trial's cell is outside the figure plan (already resident, or not
/// referenced by `figs`): it then runs standalone after the sweep. This
/// is the authoritative entry point; [`run_sweep`] delegates here.
#[expect(
    clippy::disallowed_methods,
    reason = "the sweep executor is the one place that spawns workers; its phase timings go to the stderr summary only"
)]
pub fn run_sweep_resilient(bench: &Bench, figs: &[String], opts: &SweepOptions) -> SweepOutcome {
    let t0 = Instant::now();
    let plan = plan_cells(bench, figs);
    let specs = plan_specs(bench, &plan);
    let trials = bench.scale().trials as usize;
    let mut stats = SweepStats {
        cells: plan.len(),
        trials: specs.len(),
        ..SweepStats::default()
    };

    let chaos = opts.chaos.clone().map(|p| ChaosState::new(p, specs.len()));

    if let Some(dir) = &opts.cache_dir {
        // Failing to create the cache dir downgrades to cache-off rather
        // than aborting the sweep; the summary's miss count exposes it.
        let _ = fs::create_dir_all(dir);
        stats.tmp_cleaned = cache::clean_stale_tmp(dir);
        if let Some(c) = &chaos {
            c.corrupt_cache(dir);
        }
    }

    let mut jw = opts
        .journal
        .as_deref()
        .and_then(|p| journal::Journal::open(p, false));
    if let Some(j) = jw.as_mut() {
        j.run_header(plan.len(), specs.len(), figs, false);
    }

    // The spec the trace request names, matched on trial index plus cell
    // content key (same equality the cache uses, so label differences
    // that don't change the simulation still match).
    let traced_idx = opts.trace.as_ref().and_then(|req| {
        let req_key = req.query.content_key();
        specs
            .iter()
            .position(|s| s.trial == req.trial && s.query.content_key() == req_key)
    });
    stats.plan_ms = t0.elapsed().as_millis() as u64;

    let t1 = Instant::now();
    let trace_slot = Mutex::new(None::<TraceData>);
    let mut slots: Vec<Option<RunMetrics>> = vec![None; specs.len()];
    let mut spec_failures: BTreeMap<usize, (FailureKind, u32)> = BTreeMap::new();
    let abort = AtomicBool::new(false);

    if !specs.is_empty() {
        let queue = Mutex::new((0..specs.len()).collect::<VecDeque<usize>>());
        let ctx = WorkerCtx {
            bench,
            opts,
            specs: &specs,
            queue: &queue,
            abort: &abort,
            chaos: chaos.as_ref(),
            traced_idx,
            trace_slot: &trace_slot,
        };
        let workers = opts.jobs.clamp(1, specs.len());
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<Msg>();
            let ctx = &ctx;
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || worker_thread(ctx, &tx));
            }
            // The collector: single-threaded owner of slots, stats, and
            // the journal. Workers always send WorkerExit last, so once
            // `live` hits zero every outcome has been received. The
            // collector retains a sender (`tx`), so `rx.recv()` cannot
            // disconnect before then. It drains every ready message, then
            // commits the journal before it blocks: outcomes that arrive
            // together share one sync, and none waits unsynced.
            let mut live = workers;
            let mut done = 0usize;
            let mut deaths: BTreeMap<usize, u32> = BTreeMap::new();
            while live > 0 {
                let msg = match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(_) => {
                        if let Some(j) = jw.as_mut() {
                            j.commit();
                        }
                        let Ok(msg) = rx.recv() else { break };
                        msg
                    }
                };
                match msg {
                    Msg::Trial(i, out) => {
                        done += 1;
                        stats.cache_hits += out.from_cache as usize;
                        stats.retries += out.retried as usize;
                        stats.quarantined += out.quarantined;
                        let cache::TrialKey { hash, ident } = &out.key;
                        match out.failure {
                            Some(kind) => {
                                stats.failed += 1;
                                if let Some(j) = jw.as_mut() {
                                    j.trial(
                                        *hash,
                                        ident,
                                        "failed",
                                        Some(&kind.detail()),
                                        out.attempts,
                                        out.wall_ms,
                                    );
                                }
                                spec_failures.insert(i, (kind, out.attempts));
                            }
                            None => {
                                let degraded = out.metrics.as_ref().and_then(|m| m.error);
                                if let Some(j) = jw.as_mut() {
                                    match degraded {
                                        Some(e) => j.trial(
                                            *hash,
                                            ident,
                                            "done-degraded",
                                            Some(e.name()),
                                            out.attempts,
                                            out.wall_ms,
                                        ),
                                        None => j.trial(
                                            *hash,
                                            ident,
                                            "done",
                                            None,
                                            out.attempts,
                                            out.wall_ms,
                                        ),
                                    }
                                }
                                slots[i] = out.metrics;
                            }
                        }
                        if ctx.chaos.is_some_and(|c| c.should_abort(done)) {
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                    Msg::WorkerExit { died, in_flight } => {
                        live -= 1;
                        if let Some(i) = in_flight {
                            let d = deaths.entry(i).or_insert(0);
                            *d += 1;
                            if *d >= 2 {
                                // The same trial killed two workers: a
                                // deterministic harness-level crash a third
                                // host would not survive either. Record it
                                // instead of requeueing forever.
                                done += 1;
                                stats.failed += 1;
                                let key = cache::TrialKey::of(bench, &specs[i]);
                                let kind = FailureKind::Panic(
                                    "trial killed its worker twice (outside per-trial isolation)"
                                        .to_owned(),
                                );
                                if let Some(j) = jw.as_mut() {
                                    j.trial(
                                        key.hash,
                                        &key.ident,
                                        "failed",
                                        Some(&kind.detail()),
                                        *d,
                                        0,
                                    );
                                }
                                spec_failures.insert(i, (kind, *d));
                            } else {
                                lock(&queue).push_back(i);
                            }
                        }
                        if died && done < specs.len() && !abort.load(Ordering::Relaxed) {
                            stats.respawns += 1;
                            let tx = tx.clone();
                            scope.spawn(move || worker_thread(ctx, &tx));
                            live += 1;
                        }
                    }
                }
            }
            stats.cache_misses = done - stats.cache_hits;
        });
    }
    stats.exec_ms = t1.elapsed().as_millis() as u64;
    let aborted = abort.load(Ordering::Relaxed);

    let t2 = Instant::now();
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut degraded: Vec<DegradedCell> = Vec::new();
    if !aborted {
        for (ci, q) in plan.iter().enumerate() {
            let cell_slots = &mut slots[ci * trials..(ci + 1) * trials];
            if cell_slots.iter().all(|s| s.is_some()) {
                let runs: Vec<RunMetrics> =
                    cell_slots.iter_mut().filter_map(|s| s.take()).collect();
                for m in &runs {
                    stats.shadow += m.shadow_entries;
                    stats.ws_refault += m.workingset_refault;
                }
                let errs = runs.iter().filter(|m| m.error.is_some()).count();
                if let Some(e) = runs.iter().find_map(|m| m.error) {
                    degraded.push(DegradedCell {
                        ident: q.ident(),
                        error: e.name().to_owned(),
                        trials: errs,
                    });
                }
                bench.install_cell(q, TrialSet { runs });
            } else {
                // Typed replacement for the old panicking merge: a cell
                // missing any trial is recorded, not installed, and the
                // figure layer renders it as a hole.
                let (kind, attempts) = (ci * trials..(ci + 1) * trials)
                    .find_map(|i| spec_failures.get(&i).cloned())
                    .unwrap_or((FailureKind::Panic("trial result missing".to_owned()), 0));
                let (_, config_hash) = q.content_key();
                failures.push(CellFailure {
                    wl: q.wl,
                    config_hash,
                    ident: q.ident(),
                    kind,
                    attempts,
                });
            }
        }
    }
    stats.merge_ms = t2.elapsed().as_millis() as u64;

    if let Some(j) = jw.as_mut() {
        j.end(stats.cache_hits + stats.cache_misses, stats.failed, aborted);
    }

    // Like `lock`, this read goes through a poisoned state: a caught
    // worker panic cannot cascade into it (the old std::sync slot needed
    // an `expect`).
    let mut trace = trace_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if !aborted {
        if let (Some(req), None) = (&opts.trace, &trace) {
            // The requested trial was not part of the plan (cell resident
            // or figure list disjoint): trace it standalone.
            let (_, data) =
                bench.run_trial_traced(&req.query, req.trial, opts.trial_budget, req.config);
            trace = Some(data);
        }
    }

    SweepOutcome {
        stats,
        failures,
        degraded,
        trace,
        aborted,
    }
}

/// One worker: drain the queue until it is empty or an abort is flagged.
/// The whole loop runs behind [`isolation::guard`] as a backstop — a panic
/// that escapes per-trial isolation (harness bug, cache I/O) kills only
/// this worker; the collector respawns a replacement and requeues the
/// in-flight trial.
fn worker_thread(ctx: &WorkerCtx<'_>, tx: &mpsc::Sender<Msg>) {
    let current = std::cell::Cell::new(usize::MAX);
    let run = isolation::guard(|| loop {
        if ctx.abort.load(Ordering::Relaxed) {
            break;
        }
        let next = lock(ctx.queue).pop_front();
        let Some(i) = next else { break };
        current.set(i);
        if ctx.chaos.is_some_and(|c| c.kill_worker(i)) {
            // Deliberately outside run_isolated: exercises the
            // respawn-and-requeue path end to end.
            panic!("chaos: killing worker while processing spec {i}");
        }
        let out = process_spec(ctx, i);
        current.set(usize::MAX);
        if tx.send(Msg::Trial(i, Box::new(out))).is_err() {
            break;
        }
    });
    let in_flight = match &run {
        Ok(()) => None,
        Err(_) => Some(current.get()).filter(|&i| i != usize::MAX),
    };
    let _ = tx.send(Msg::WorkerExit {
        died: run.is_err(),
        in_flight,
    });
}

/// Resolves one trial: cache read, then isolated simulation
/// attempts with retry and failure classification.
#[expect(
    clippy::disallowed_methods,
    reason = "per-trial host time for the stderr summary; never visible to the simulation"
)]
fn process_spec(ctx: &WorkerCtx<'_>, i: usize) -> TrialOutcome {
    let t = Instant::now();
    let spec = &ctx.specs[i];
    let traced = ctx.traced_idx == Some(i);
    let mut out = TrialOutcome {
        key: cache::TrialKey::of(ctx.bench, spec),
        metrics: None,
        failure: None,
        attempts: 0,
        from_cache: false,
        quarantined: 0,
        retried: 0,
        wall_ms: 0,
    };

    // The traced trial must actually simulate: a cache hit would produce
    // metrics but no trace.
    if !traced {
        if let Some(dir) = ctx.opts.cache_dir.as_deref() {
            match cache::load_keyed(dir, &out.key) {
                cache::CacheRead::Hit(m) => {
                    out.from_cache = true;
                    out.metrics = Some(*m);
                    out.wall_ms = t.elapsed().as_millis() as u64;
                    return out;
                }
                cache::CacheRead::Quarantined => out.quarantined += 1,
                cache::CacheRead::Miss => {}
            }
        }
    }

    loop {
        let attempt = out.attempts;
        out.attempts += 1;
        let inject_panic = ctx.chaos.is_some_and(|c| c.inject_panic(i, attempt));
        let chaos_budget = ctx.chaos.and_then(|c| c.slow_budget(i, attempt));
        let budget = chaos_budget.or(ctx.opts.trial_budget);
        let run = isolation::run_isolated(|| {
            if inject_panic {
                panic!("chaos: injected panic (spec {i}, attempt {attempt})");
            }
            match (traced, ctx.opts.trace.as_ref()) {
                (true, Some(req)) => {
                    let (m, data) =
                        ctx.bench
                            .run_trial_traced(&spec.query, spec.trial, budget, req.config);
                    *lock(ctx.trace_slot) = Some(data);
                    m
                }
                _ => ctx
                    .bench
                    .run_trial_budgeted(&spec.query, spec.trial, budget),
            }
        });
        match run {
            Err(payload) => {
                if out.attempts >= MAX_ATTEMPTS {
                    out.failure = Some(FailureKind::Panic(payload));
                    break;
                }
                out.retried += 1; // transient until proven persistent
            }
            Ok(m) => {
                // A budget trip only counts when the budget was the binding
                // constraint: the config's own max_sim_time guard tripping
                // is plain degradation and merges below.
                let budget_bound =
                    budget.is_some_and(|b| b < spec.query.system_config().max_sim_time);
                if budget_bound && m.error == Some(SimError::SimTimeExceeded) {
                    if chaos_budget.is_some() && out.attempts < MAX_ATTEMPTS {
                        out.retried += 1; // injected slowness is transient
                        continue;
                    }
                    // Truncated metrics are unusable: classify, discard,
                    // and never cache them under the unbudgeted hash.
                    out.failure = Some(FailureKind::Timeout);
                    break;
                }
                // Degraded (SimError-carrying) metrics merge like any other
                // result — the fault experiments plot them — and cache like
                // any other result.
                if let Some(dir) = ctx.opts.cache_dir.as_deref() {
                    cache::store_keyed(dir, &out.key, &m, i);
                }
                out.metrics = Some(m);
                break;
            }
        }
    }
    out.wall_ms = t.elapsed().as_millis() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::SweepStats;

    fn stats(cache_hits: usize) -> SweepStats {
        SweepStats {
            cells: 2,
            trials: 6,
            cache_hits,
            cache_misses: 6 - cache_hits,
            retries: 0,
            quarantined: 0,
            tmp_cleaned: 0,
            failed: 0,
            respawns: 0,
            shadow: 128,
            ws_refault: 9,
            plan_ms: 0,
            exec_ms: 41,
            merge_ms: 0,
        }
    }

    /// What CI's `sed -E 's/.* key=([0-9]+) .*/\1/'` extracts from a
    /// summary line: the digits after the one ` key=`, ended by a space.
    fn sed_field(line: &str, key: &str) -> Option<usize> {
        let probe = format!(" {key}=");
        let mut hits = line.match_indices(&probe);
        let (at, _) = hits.next()?;
        assert!(hits.next().is_none(), "` {key}=` appears twice: {line}");
        let rest = &line[at + probe.len()..];
        let (digits, _) = rest.split_once(' ')?;
        digits.parse().ok()
    }

    /// The summary's exact byte shape.
    #[test]
    fn sweep_stats_display_format_is_unchanged() {
        assert_eq!(
            stats(0).to_string(),
            "sweep cells=2 trials=6 hits=0 misses=6 hit_rate=0.000 plan_ms=0 \
             exec_ms=41 merge_ms=0 retries=0 quarantined=0 \
             tmp_cleaned=0 failed=0 respawns=0 shadow=128 ws_refault=9"
        );
    }

    /// The exact patterns CI relies on (.github/workflows/ci.yml): a
    /// fully-cold sweep must contain ` hits=0 `, a fully-warm one
    /// ` misses=0 `, a vmstat run ` shadow=[0-9]+ ws_refault=[0-9]+`, and
    /// `sed` must pull `trials=` and `hits=` out of any line (the rerun of
    /// an interrupted sweep compares its hits to the aborted journal).
    #[test]
    fn ci_grep_patterns_match_the_emitted_bytes() {
        for hits in [0, 3, 6] {
            let line = stats(hits).to_string();
            assert!(!line.contains("  ") && !line.ends_with(' '), "{line}");
            // ` hits=0 ` and ` misses=0 ` match with surrounding spaces
            // even mid-line: neither field is ever last.
            assert_eq!(line.contains(" hits=0 "), hits == 0, "{line}");
            assert_eq!(line.contains(" misses=0 "), hits == 6, "{line}");
            assert!(line.contains(" shadow=128 ws_refault=9"));
            assert_eq!(sed_field(&line, "hits"), Some(hits), "{line}");
            assert_eq!(sed_field(&line, "trials"), Some(6), "{line}");
        }
    }
}
