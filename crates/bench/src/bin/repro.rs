//! `repro` — regenerates every figure of the paper.
//!
//! ```text
//! repro [--scale smoke|default|paper|paper-native] [--seed N] [--trials N]
//!       [--jobs N] [--cache-dir DIR | --no-cache]
//!       [--journal FILE] [--resume FILE] [--max-attempts N]
//!       [--trial-budget NS] [--chaos SPEC]
//!       [fig1 fig2 ... | faults | all]
//! repro trace <fig> [--cell N] [--trial N] [--trace-out FILE]...
//!       [--sample-interval NS] [--trace-events N] [--list]
//! repro vmstat <fig>
//! ```
//!
//! Each figure subcommand prints the same normalized series the
//! corresponding figure of the paper plots. Before rendering, every cell
//! the requested figures need is precomputed by the sweep executor:
//! `--jobs N` worker threads (default: all cores) drain the trial queue,
//! consulting a content-addressed cell cache (default `.pagesim-cache/`,
//! `--cache-dir` to relocate, `--no-cache` to disable). Figure output on
//! stdout is byte-identical regardless of `--jobs` and cache state; the
//! sweep summary goes to stderr.
//!
//! The `trace` subcommand runs one figure with deterministic telemetry
//! attached to a single trial (`--cell`/`--trial` pick which; `--list`
//! shows the figure's cell grid). The figure output is unchanged — the
//! traced trial produces identical metrics — and the trace is written to
//! each `--trace-out` path: `.jsonl` suffixes get JSON Lines (read back
//! exactly by `TraceData::from_jsonl`), anything else gets Chrome
//! `trace_event` JSON for Perfetto / `chrome://tracing`. Default:
//! `trace.json`.
//!
//! ## Fault tolerance
//!
//! Every trial runs isolated: a panic costs one attempt (retried up to
//! `--max-attempts`, default 3), not the run. Progress is checkpointed to
//! an append-only JSONL journal (default: `<cache-dir>/run-journal.jsonl`;
//! `--journal` to relocate) and `--resume FILE` continues an interrupted
//! run from it, producing byte-identical figure output. Cache entries are
//! checksummed; a corrupt entry is quarantined (renamed `*.quarantine`)
//! and recomputed, never parsed. Cells that still fail after retries
//! become explicit `# HOLE` comment lines in place of the affected
//! figures, a machine-readable `{"pagesim_failure_report":...}` line on
//! stderr, and a nonzero exit.
//!
//! The `vmstat` subcommand renders the `/proc/vmstat`-analog
//! observability report for one figure: per cell, the Linux-named reclaim
//! and working-set counters summed over trials, the merged
//! refault-distance histogram, and trial 0's `lru_gen`-style policy dump.
//! Like the figures, the report is byte-identical for any `--jobs` value
//! and cache state (CI golden-diffs `vmstat_fig1.txt`).
//!
//! `trace` and `vmstat` sweep with the same options as a figure run
//! (`--max-attempts`, `--trial-budget` and `--chaos` included) but keep
//! no journal. If a cell still fails, they exit 3 with the failure report
//! instead of rendering.
//!
//! Host performance is measured by `pagebench` (see `BENCHMARK.json`),
//! not by this binary.
//!
//! Exit codes: 0 success, 2 usage (including an unknown figure id, which
//! is rejected before any sweep runs and leaves stdout empty),
//! 3 completed with failed cells, 4 sweep aborted before merging (chaos
//! `abort-after`).
//!
//! `--chaos SPEC` injects seeded harness faults (worker panics, cache
//! corruption, forced-slow trials, worker kills, a hard abort) to exercise
//! all of the above; see `ChaosPlan::parse` for the spec grammar.

use pagesim::experiments::{self, Bench, Scale, Wl};
use pagesim::report;
use pagesim_bench::sweep::{
    default_jobs, run_sweep_resilient, ChaosPlan, SweepOptions, SweepOutcome, TraceRequest,
};
use pagesim_trace::json::escape;
use pagesim_trace::TraceConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale smoke|default|paper|paper-native] [--seed N] [--trials N]\n\
         \x20            [--jobs N] [--cache-dir DIR | --no-cache] [--journal FILE]\n\
         \x20            [--resume FILE] [--max-attempts N] [--trial-budget NS]\n\
         \x20            [--chaos SPEC] [fig1..fig12 | faults | all]\n\
         \x20      repro trace <fig> [--cell N] [--trial N] [--trace-out FILE]...\n\
         \x20            [--sample-interval NS] [--trace-events N] [--list]\n\
         \x20      repro vmstat <fig>\n\
         \n\
         --trials N          trials per cell, at least 1 (default: the scale's);\n\
         \x20                    fits and p-values need 2 and print '-' below\n\
         --jobs N            sweep worker threads (default: all cores)\n\
         --cache-dir D       cell cache directory (default: .pagesim-cache)\n\
         --no-cache          disable the on-disk cell cache\n\
         --journal F         run journal path (default: <cache-dir>/run-journal.jsonl)\n\
         --resume F          resume from journal F, skipping trials it records\n\
         \x20                    as done (still verified against the cache)\n\
         --max-attempts N    attempts per trial before recording a failure (default 3)\n\
         --trial-budget NS   per-trial simulated-time budget; exceeding it is a\n\
         \x20                    timeout failure (deterministic, host-independent)\n\
         --chaos SPEC        inject seeded harness faults, e.g.\n\
         \x20                    seed=7,panic=2,corrupt=1,abort-after=40\n\
         \n\
         trace subcommand:\n\
         --cell N            cell index within the figure grid (default 0; see --list)\n\
         --trial N           trial index to trace (default 0)\n\
         --trace-out FILE    output path, repeatable; .jsonl => JSON Lines,\n\
         \x20                    otherwise Chrome trace_event (default: trace.json)\n\
         --sample-interval N sampler interval in simulated ns (default 10ms)\n\
         --trace-events N    event ring capacity (default 65536)\n\
         --list              print the figure's cells and exit\n\
         \n\
         vmstat subcommand:\n\
         \x20  per-cell Linux-named reclaim/working-set counters, merged\n\
         \x20  refault-distance histogram, and trial 0's lru_gen dump\n\
         \n\
         fig1   mean runtime & faults, MG-LRU vs Clock (SSD, 50%)\n\
         fig2   joint runtime/fault distributions, Clock vs MG-LRU\n\
         fig3   YCSB tail latencies (SSD, 50%)\n\
         fig4   MG-LRU variant means (SSD, 50%)\n\
         fig5   joint distributions across MG-LRU variants\n\
         fig6   means at 75%/90% capacity ratios\n\
         fig7   fault box-whiskers at 75%/90%\n\
         fig8   YCSB tails at 75%/90%\n\
         fig9   ZRAM mean performance\n\
         fig10  ZRAM mean faults\n\
         fig11  ZRAM vs SSD runtime/fault deltas\n\
         fig12  YCSB tails under ZRAM\n\
         faults Clock vs MG-LRU on a stalling SSD (not part of 'all')"
    );
    std::process::exit(2)
}

fn render_fig(bench: &Bench, fig: &str) -> String {
    let spec = experiments::experiment(fig).unwrap_or_else(|| usage());
    (spec.render)(bench)
}

fn print_header(bench: &Bench, scale: Scale) {
    println!(
        "# pagesim repro — trials/cell: {}, footprint factor: {:.2}, seed: {}",
        scale.trials, scale.footprint, scale.seed
    );
    for wl in Wl::all() {
        println!(
            "#   {} footprint: {} pages",
            wl.label(),
            bench.footprint(wl)
        );
    }
    println!();
}

#[expect(
    clippy::disallowed_methods,
    reason = "host wall time for the `took` lines and the stderr sweep summary; never part of a figure"
)]
fn main() {
    let mut scale = Scale::default_scale();
    let mut figs: Vec<String> = Vec::new();
    let mut jobs = default_jobs();
    let mut cache_dir = Some(std::path::PathBuf::from(".pagesim-cache"));
    let mut journal: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut max_attempts = 3u32;
    let mut trial_budget: Option<u64> = None;
    let mut chaos: Option<ChaosPlan> = None;
    let mut trace_outs: Vec<std::path::PathBuf> = Vec::new();
    let mut cell_idx = 0usize;
    let mut trial = 0u32;
    let mut trace_cfg = TraceConfig::default();
    let mut list_cells = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale = match v.as_str() {
                    "smoke" => Scale::smoke(),
                    "default" => Scale::default_scale(),
                    "paper" => Scale::paper(),
                    // Million-page footprints, page_compression ~ 1: for
                    // exercising the word-level scan paths at the paper's
                    // native page counts (pair with --trials 1 in CI).
                    "paper-native" => Scale::paper_native(),
                    _ => usage(),
                };
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--trials" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale.trials = v.parse().unwrap_or_else(|_| usage());
                if scale.trials == 0 {
                    usage();
                }
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                jobs = v.parse().unwrap_or_else(|_| usage());
                if jobs == 0 {
                    usage();
                }
            }
            "--cache-dir" => {
                let v = args.next().unwrap_or_else(|| usage());
                cache_dir = Some(std::path::PathBuf::from(v));
            }
            "--no-cache" => cache_dir = None,
            "--journal" => {
                let v = args.next().unwrap_or_else(|| usage());
                journal = Some(std::path::PathBuf::from(v));
            }
            "--resume" => {
                let v = args.next().unwrap_or_else(|| usage());
                journal = Some(std::path::PathBuf::from(v));
                resume = true;
            }
            "--max-attempts" => {
                let v = args.next().unwrap_or_else(|| usage());
                max_attempts = v.parse().unwrap_or_else(|_| usage());
                if max_attempts == 0 {
                    usage();
                }
            }
            "--trial-budget" => {
                let v = args.next().unwrap_or_else(|| usage());
                trial_budget = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--chaos" => {
                let v = args.next().unwrap_or_else(|| usage());
                chaos = Some(ChaosPlan::parse(&v).unwrap_or_else(|| usage()));
            }
            "--cell" => {
                let v = args.next().unwrap_or_else(|| usage());
                cell_idx = v.parse().unwrap_or_else(|_| usage());
            }
            "--trial" => {
                let v = args.next().unwrap_or_else(|| usage());
                trial = v.parse().unwrap_or_else(|_| usage());
            }
            "--trace-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_outs.push(std::path::PathBuf::from(v));
            }
            "--sample-interval" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_cfg.sample_interval = v.parse().unwrap_or_else(|_| usage());
            }
            "--trace-events" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_cfg.event_capacity = v.parse().unwrap_or_else(|_| usage());
            }
            "--list" => list_cells = true,
            "-h" | "--help" => usage(),
            other => figs.push(other.to_owned()),
        }
    }

    let mut opts = SweepOptions {
        jobs,
        cache_dir,
        max_attempts,
        trial_budget,
        chaos,
        ..SweepOptions::default()
    };

    if figs.first().map(String::as_str) == Some("vmstat") {
        figs.remove(0);
        let [fig] = figs.as_slice() else { usage() };
        run_vmstat(fig, scale, &opts);
        return;
    }

    if figs.first().map(String::as_str) == Some("trace") {
        figs.remove(0);
        let [fig] = figs.as_slice() else { usage() };
        run_trace(
            fig, scale, opts, cell_idx, trial, trace_cfg, trace_outs, list_cells,
        );
        return;
    }

    // Reject unknown ids before anything runs or prints, as `vmstat` and
    // `trace` do.
    if figs
        .iter()
        .any(|f| f != "all" && experiments::experiment(f).is_none())
    {
        usage();
    }
    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        figs = (1..=12).map(|i| format!("fig{i}")).collect();
    }

    // Journalling defaults on whenever the cache does: the journal is the
    // checkpoint `--resume` needs, and it lives next to the cache entries.
    if journal.is_none() {
        journal = opts.cache_dir.as_ref().map(|d| d.join("run-journal.jsonl"));
    }
    opts.journal = journal;
    opts.resume = resume;

    let bench = Bench::new(scale);
    let t0 = std::time::Instant::now();
    let outcome = run_sweep_resilient(&bench, &figs, &opts);
    let stats = outcome.stats;
    eprintln!(
        "# {stats} jobs={jobs} total_s={:.1}",
        t0.elapsed().as_secs_f64()
    );

    if outcome.aborted {
        eprintln!("# sweep aborted before merging; journal records partial progress (--resume to continue)");
        print_failure_report(&outcome);
        std::process::exit(4);
    }

    print_header(&bench, scale);

    // Content keys of every cell that could not be completed: figures
    // referencing one render as explicit holes instead of panicking on
    // the missing cell.
    let failed_keys: std::collections::BTreeMap<(Wl, u64), &pagesim::CellFailure> = outcome
        .failures
        .iter()
        .map(|f| ((f.wl, f.config_hash), f))
        .collect();
    if !failed_keys.is_empty() {
        println!("{}\n", report::incomplete_banner(failed_keys.len()));
    }

    for fig in &figs {
        let t0 = std::time::Instant::now();
        let holes: Vec<&pagesim::CellFailure> = experiments::figure_cells(fig)
            .iter()
            .filter_map(|q| failed_keys.get(&q.content_key()).copied())
            .collect();
        if holes.is_empty() {
            let body = render_fig(&bench, fig);
            println!("{body}");
        } else {
            for f in &holes {
                println!("{}", report::hole_line(fig, &f.ident, &f.kind.detail()));
            }
            println!("# ({fig} skipped: {} missing cell(s))", holes.len());
        }
        println!("# ({fig} took {:.1}s)\n", t0.elapsed().as_secs_f64());
    }

    if !outcome.failures.is_empty() || !outcome.degraded.is_empty() || stats.quarantined > 0 {
        print_failure_report(&outcome);
    }
    if !outcome.failures.is_empty() {
        std::process::exit(3);
    }
}

/// One machine-readable stderr line summarizing everything that went wrong
/// (or ran impaired): consumed by CI and by anyone scripting `repro`.
fn print_failure_report(outcome: &SweepOutcome) {
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| {
            format!(
                "{{\"ident\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\",\"attempts\":{}}}",
                escape(&f.ident),
                f.kind.label(),
                escape(&f.kind.detail()),
                f.attempts
            )
        })
        .collect();
    let degraded: Vec<String> = outcome
        .degraded
        .iter()
        .map(|d| {
            format!(
                "{{\"ident\":\"{}\",\"error\":\"{}\",\"trials\":{}}}",
                escape(&d.ident),
                escape(&d.error),
                d.trials
            )
        })
        .collect();
    eprintln!(
        "{{\"pagesim_failure_report\":{{\"aborted\":{},\"quarantined\":{},\
         \"failures\":[{}],\"degraded\":[{}]}}}}",
        outcome.aborted,
        outcome.stats.quarantined,
        failures.join(","),
        degraded.join(",")
    );
}

/// The `vmstat` subcommand: sweep one figure's cells, then render the
/// `/proc/vmstat`-analog observability report on stdout. The report is a
/// pure function of scale and figure — no timing lines — so it can be
/// golden-diffed exactly like the figures themselves.
#[expect(
    clippy::disallowed_methods,
    reason = "host wall time for the stderr sweep summary; the report itself carries no timing"
)]
fn run_vmstat(fig: &str, scale: Scale, opts: &SweepOptions) {
    if experiments::figure_cells(fig).is_empty() {
        eprintln!("repro vmstat: figure '{fig}' has no cell grid");
        std::process::exit(2);
    }
    let bench = Bench::new(scale);
    let t0 = std::time::Instant::now();
    let outcome = run_sweep_resilient(&bench, &[fig.to_owned()], opts);
    eprintln!(
        "# {} jobs={} total_s={:.1}",
        outcome.stats,
        opts.jobs,
        t0.elapsed().as_secs_f64()
    );
    exit_on_failures(&outcome);
    print!("{}", pagesim_bench::vmstat::vmstat_report(&bench, fig));
}

/// For the single-figure subcommands: when a cell failed or the sweep
/// aborted, prints the failure report and exits 3 instead of rendering.
/// A partial render would mislead: the figure would read a cell that is
/// not in the cell table, and the vmstat counters would be partial sums.
fn exit_on_failures(outcome: &SweepOutcome) {
    if !outcome.failures.is_empty() || outcome.aborted {
        print_failure_report(outcome);
        std::process::exit(3);
    }
}

/// The `trace` subcommand: render one figure with telemetry attached to a
/// single trial, then export the trace.
#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::disallowed_methods,
    reason = "host wall time for the stderr sweep summary; the trace is timed in simulated ns"
)]
fn run_trace(
    fig: &str,
    scale: Scale,
    mut opts: SweepOptions,
    cell_idx: usize,
    trial: u32,
    trace_cfg: TraceConfig,
    mut trace_outs: Vec<std::path::PathBuf>,
    list_cells: bool,
) {
    let cells = experiments::figure_cells(fig);
    if cells.is_empty() {
        eprintln!("repro trace: figure '{fig}' has no cell grid");
        std::process::exit(2);
    }
    if list_cells {
        for (i, q) in cells.iter().enumerate() {
            println!("{i}\t{}", q.ident());
        }
        return;
    }
    let Some(query) = cells.get(cell_idx) else {
        eprintln!(
            "repro trace: --cell {cell_idx} out of range ({} cells; try --list)",
            cells.len()
        );
        std::process::exit(2);
    };
    if trace_outs.is_empty() {
        trace_outs.push(std::path::PathBuf::from("trace.json"));
    }

    let bench = Bench::new(scale);
    opts.trace = Some(TraceRequest {
        query: query.clone(),
        trial,
        config: trace_cfg,
    });
    let t0 = std::time::Instant::now();
    let outcome = run_sweep_resilient(&bench, &[fig.to_owned()], &opts);
    eprintln!(
        "# {} jobs={} total_s={:.1}",
        outcome.stats,
        opts.jobs,
        t0.elapsed().as_secs_f64()
    );
    exit_on_failures(&outcome);
    let Some(trace) = outcome.trace else {
        eprintln!("repro trace: no trace captured (internal error)");
        std::process::exit(1);
    };

    // Same stdout stream as a plain figure run, so traced output can be
    // diffed line-for-line against golden figures.
    print_header(&bench, scale);
    let body = render_fig(&bench, fig);
    println!("{body}");
    println!("# ({fig} took {:.1}s)\n", t0.elapsed().as_secs_f64());

    eprintln!(
        "# trace {} samples={} events={} dropped={}",
        trace.meta.ident,
        trace.samples.len(),
        trace.events.len(),
        trace.dropped_events,
    );
    for out in &trace_outs {
        let is_jsonl = out.extension().is_some_and(|e| e == "jsonl");
        let payload = if is_jsonl {
            trace.to_jsonl()
        } else {
            trace.to_chrome_trace()
        };
        if let Err(e) = std::fs::write(out, payload) {
            eprintln!("repro trace: cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!(
            "# trace written: {} ({})",
            out.display(),
            if is_jsonl {
                "jsonl"
            } else {
                "chrome trace_event"
            }
        );
    }
}
