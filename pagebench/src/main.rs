//! `pagebench` — the benchmark of record for pagesim (see README.md).
//!
//! ```text
//! pagebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE]
//! pagebench --list
//! ```
//!
//! One run measures one workload in one process for `--seconds`, prints a
//! provenance stamp, one `<name> <value> <unit>` line per metric, and as
//! its last line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits 1 when an output check fails.

mod calib;
mod catalog;
mod host;
mod runs;
mod spans;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use pagesim_bench::repro_bench::json;

fn usage() -> ! {
    eprintln!(
        "usage: pagebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--trace-out FILE]\n\
         \x20      pagebench --list\n\
         \n\
         --workload W    one of the workloads --list prints, or all (each in its\n\
         \x20               own process, one after another)\n\
         --seed N        master seed of every generated input (default {})\n\
         --seconds S     how long the timed phase runs (default 25)\n\
         --trace 0|1     1 replays the work with per-layer spans and reports\n\
         \x20               per-layer metrics instead of end-to-end ones\n\
         --trace-out F   where a traced run writes its spans as JSON lines\n\
         \x20               (default .pagebench/spans-<workload>-<seed>.jsonl)\n\
         --list          print the workload and metric catalog",
        runs::GOLDEN_SEED
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    list: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: runs::GOLDEN_SEED,
        seconds: 25,
        trace: false,
        trace_out: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage());
                if a.seconds == 0 {
                    usage();
                }
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value())),
            "--list" => a.list = true,
            _ => usage(),
        }
    }
    a
}

/// Removes the run's scratch directory (cell caches and journals), and
/// its parent when nothing else is left there, when the run ends however
/// it ends short of an abort.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A JSON number for a measured value: every digit Rust's shortest
/// round-trip formatting gives, and 0 for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn write_spans(path: &Path, spans: &[spans::Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = spans::self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, st) in spans.iter().zip(self_ns) {
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"trial\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{st}}}",
            json::escape(s.name),
            opt(s.trial.map(u64::from)),
            s.thread,
            s.start,
            s.end,
            opt(s.parent.map(|p| p as u64)),
        )?;
    }
    out.flush()
}

/// `--workload all`: each workload in its own child process, one after
/// another, so each one's peak memory is its own.
fn run_all(a: &Args) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("pagebench: cannot locate own executable: {e}");
        std::process::exit(1)
    });
    let mut failed = false;
    for w in &catalog::WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("pagebench: workload {} exited with {s}", w.name);
                failed = true;
            }
            Err(e) => {
                eprintln!("pagebench: cannot run workload {}: {e}", w.name);
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed))
}

fn main() {
    let a = parse_args();
    if a.list {
        print!("{}", catalog::listing());
        return;
    }
    if a.workload == "all" {
        run_all(&a);
    }
    if catalog::workload(&a.workload).is_none() {
        usage();
    }

    println!("{}", host::stamp(&a.workload, a.seed, a.seconds, a.trace));
    let work = WorkDir(PathBuf::from(".pagebench").join(format!("work-{}", std::process::id())));
    let report = runs::run(&a.workload, a.seed, a.seconds as f64, a.trace, &work.0);
    drop(work);

    let attempted = report.attempted.max(1);
    // A failed output check condemns every operation of the run.
    let failed = if report.problems.is_empty() {
        report.failed
    } else {
        attempted
    };
    let correct = failed == 0;
    for p in &report.problems {
        eprintln!("pagebench: CHECK FAILED: {p}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {} {unit}", num(*value));
    }
    for (name, value, unit) in &report.info {
        println!("# {name} {} {unit}", num(*value));
    }
    println!("fail_ratio {} ratio", num(failed as f64 / attempted as f64));
    println!("reps {} count", report.reps);
    println!("output_digest {:016x} fnv64", report.digest);
    match report.golden {
        Some(true) => println!("golden figures_default.txt match"),
        Some(false) => println!("golden figures_default.txt MISMATCH"),
        None => println!("golden - not-applicable"),
    }
    if a.trace {
        let path = a.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(".pagebench").join(format!("spans-{}-{}.jsonl", a.workload, a.seed))
        });
        match write_spans(&path, &report.spans) {
            Ok(()) => eprintln!(
                "# spans written: {} ({})",
                path.display(),
                report.spans.len()
            ),
            Err(e) => eprintln!("pagebench: cannot write spans to {}: {e}", path.display()),
        }
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                num(*value),
                json::escape(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
