//! Tracing must be a pure observer: the trace for a trial is a function of
//! the trial alone (not of worker count or cache state), and attaching a
//! tracer must not perturb the simulation it observes. The JSONL `repro
//! trace` writes must decode, and re-encode byte for byte; a traced
//! figure with a failed cell must exit 3 instead of rendering.

use std::process::Command;

use pagesim::experiments::{self, Bench, Scale};
use pagesim_bench::sweep::{run_sweep_resilient, SweepOptions, TraceRequest};
use pagesim_trace::{TraceConfig, TraceData, MAX_SAMPLES};

fn smoke_bench() -> Bench {
    Bench::new(Scale::smoke())
}

/// fig1 cell 1 is tpch under default MG-LRU — a cell with real reclaim,
/// aging and kswapd activity even at smoke scale.
fn traced_cell() -> TraceRequest {
    let cells = experiments::figure_cells("fig1");
    TraceRequest {
        query: cells[1].clone(),
        trial: 0,
        config: TraceConfig::default(),
    }
}

fn trace_with_jobs(jobs: usize) -> TraceData {
    let opts = SweepOptions {
        jobs,
        cache_dir: None,
        trace: Some(traced_cell()),
        ..SweepOptions::default()
    };
    let outcome = run_sweep_resilient(&smoke_bench(), &["fig1".to_owned()], &opts);
    outcome.trace.expect("a trace was requested")
}

/// A trial stops at its config's `max_sim_time`, which no scale changes:
/// at the default interval, every cell `repro` can trace fits under the
/// sampler's cap.
#[test]
fn the_default_interval_never_reaches_the_sample_cap() {
    let interval = TraceConfig::default().sample_interval;
    for fig in &experiments::EXPERIMENTS {
        for q in (fig.cells)() {
            let boundaries = q.system_config().max_sim_time / interval + 1;
            assert!(
                boundaries < MAX_SAMPLES as u64,
                "{}: {boundaries} boundaries",
                q.ident()
            );
        }
    }
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    let a = trace_with_jobs(1);
    let b = trace_with_jobs(4);
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    assert!(a.samples.len() > 1, "sampler produced no series");
    assert!(!a.events.is_empty(), "ring captured no events");
}

#[test]
fn tracing_does_not_perturb_metrics() {
    let bench = smoke_bench();
    let req = traced_cell();
    let untraced = bench.run_trial(&req.query, req.trial);
    let (traced, _) = bench.run_trial_traced(&req.query, req.trial, None, req.config);
    assert_eq!(
        format!("{untraced:?}"),
        format!("{traced:?}"),
        "attaching a tracer changed the simulation"
    );
}

/// `repro trace` at the binary boundary: the JSONL file it writes decodes
/// to the trace the sweep captures, and re-encodes byte for byte.
#[test]
fn repro_trace_jsonl_decodes_and_reencodes_exactly() {
    let path = std::env::temp_dir().join(format!("pagesim-trace-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "trace",
            "fig1",
            "--cell",
            "1",
            "--scale",
            "smoke",
            "--no-cache",
        ])
        .arg("--trace-out")
        .arg(&path)
        .output()
        .expect("repro failed to start");
    assert!(
        out.status.success(),
        "repro exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    let data = TraceData::from_jsonl(&jsonl).unwrap_or_else(|e| panic!("decode: {e}"));
    assert_eq!(data.to_jsonl(), jsonl);
    assert_eq!(data, trace_with_jobs(2));
}

/// A traced figure whose cells all fail reports them and exits 3, as a
/// figure run does, instead of rendering cells that are not in the cell
/// table; `vmstat` does the same instead of summing partial counters.
#[test]
fn single_figure_subcommands_exit_3_with_the_failure_report() {
    let path = std::env::temp_dir().join(format!("pagesim-trace-fail-{}.json", std::process::id()));
    let trace_out = path.to_str().expect("utf-8 temp path");
    for sub in [
        &["trace", "fig1", "--cell", "1", "--trace-out", trace_out][..],
        &["vmstat", "fig1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(sub)
            .args(["--scale", "smoke", "--no-cache", "--trial-budget", "1"])
            .output()
            .expect("repro failed to start");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{sub:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{sub:?}: nothing may render");
        assert!(
            stderr.contains("{\"pagesim_failure_report\":"),
            "{sub:?}: {stderr}"
        );
    }
    assert!(!path.exists(), "no trace is written for a failed run");
}
