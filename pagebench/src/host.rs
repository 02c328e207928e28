//! What the benchmark reads about its host and process: the provenance
//! stamp every run prints first, peak memory and CPU time.

use std::path::Path;
use std::process::Command;

/// `commit=… dirty=…` when run from a git work tree, `unknown` otherwise
/// (an exported checkout has no history to name).
fn commit_and_dirty() -> (String, String) {
    if !Path::new(".git").exists() {
        return ("unknown".to_owned(), "unknown".to_owned());
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".to_owned(),
    };
    (commit, dirty)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical cores the process may use.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The provenance line: commit, dirty-tree flag, CPU model, nproc, rustc,
/// profile, workload and seed.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let (commit, dirty) = commit_and_dirty();
    format!(
        "# pagebench commit={commit} dirty={dirty} cpu=\"{}\" nproc={} rustc=\"{}\" profile={} \
         workload={workload} seed={seed} seconds={seconds} trace={}",
        cpu_model(),
        nproc(),
        env!("PAGEBENCH_RUSTC"),
        env!("PAGEBENCH_PROFILE"),
        u8::from(trace),
    )
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of the whole process so far, in seconds
/// (`/proc/self/stat`, clock ticks at the Linux default of 100 Hz).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}
