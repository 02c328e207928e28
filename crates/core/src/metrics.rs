//! Run metrics and the multi-trial experiment runner.

use pagesim_engine::rng::trial_seed;
use pagesim_engine::Nanos;
use pagesim_policy::PolicyStats;
use pagesim_stats::{LatencyHistogram, Summary};
use pagesim_swap::SwapStats;
use pagesim_workloads::Workload;

use crate::config::SystemConfig;
use crate::kernel::{Kernel, SimError};

/// Everything one workload execution produces.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Wall-clock runtime of the workload (ns of simulated time).
    pub runtime_ns: Nanos,
    /// Completed MMU touches.
    pub accesses: u64,
    /// Zero-fill (first touch) faults.
    pub minor_faults: u64,
    /// Faults served from the swap device / backing file — the paper's
    /// "fault count".
    pub major_faults: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Evictions that required a device write.
    pub swap_outs: u64,
    /// Clean evictions served by the swap-cache fast path.
    pub clean_drops: u64,
    /// Faults that found every frame pinned and had to wait.
    pub alloc_stalls: u64,
    /// Faults that waited on another thread's in-flight fault for the
    /// same page (page-lock contention analog).
    pub shared_fault_waits: u64,
    /// Direct-reclaim invocations (allocation dipped into the reserve).
    pub direct_reclaims: u64,
    /// Reclaim batches run by the background reclaim thread.
    pub kswapd_batches: u64,
    /// Times background reclaim paused for write-back throttling.
    pub writeback_throttles: u64,
    /// Slices in which the aging thread did work.
    pub aging_runs: u64,
    /// Read-request latency distribution (YCSB).
    pub read_latency: LatencyHistogram,
    /// Write-request latency distribution (YCSB).
    pub write_latency: LatencyHistogram,
    /// Policy counters.
    pub policy: PolicyStats,
    /// Swap-device counters.
    pub swap_stats: SwapStats,
    /// CPU consumed by application threads.
    pub app_cpu_ns: Nanos,
    /// CPU consumed by kernel threads (reclaim + aging).
    pub kernel_cpu_ns: Nanos,
    /// Workload footprint (pages).
    pub footprint_pages: u32,
    /// Configured physical frames.
    pub capacity_frames: u32,
    /// Bytes held on the swap device at exit (compressed for ZRAM).
    pub swap_used_bytes: u64,
    /// Injected I/O errors observed by the kernel (failed swap-ins and
    /// aborted evictions).
    pub io_errors: u64,
    /// Swap-in retries after transient device errors.
    pub io_retries: u64,
    /// Total time faulting threads slept in retry backoff.
    pub backoff_ns: Nanos,
    /// Tasks killed by an unrecoverable swap-in failure (SIGBUS analog).
    pub io_kills: u64,
    /// Tasks killed by the OOM killer.
    pub oom_kills: u64,
    /// Frames released by task kills (OOM and I/O).
    pub kill_freed_frames: u64,
    /// Evictions rolled back because the device rejected the write-back.
    pub eviction_aborts: u64,
    /// Frames grabbed by memory-pressure balloon steps.
    pub pressure_frames_taken: u64,
    /// Pages scanned by the background reclaim thread (`pgscan_kswapd`).
    pub pgscan_kswapd: u64,
    /// Pages scanned by direct reclaim (`pgscan_direct`).
    pub pgscan_direct: u64,
    /// Anonymous pages reclaimed (`pgsteal_anon`).
    pub pgsteal_anon: u64,
    /// File-backed pages reclaimed (`pgsteal_file`).
    pub pgsteal_file: u64,
    /// Refaults with a live shadow entry (`workingset_refault`).
    pub workingset_refault: u64,
    /// Refaults within one memory-capacity of evictions
    /// (`workingset_activate`).
    pub workingset_activate: u64,
    /// Refaults that restored a clean swap-cache copy without device I/O
    /// pending (`workingset_restore` analog: the slot is kept).
    pub workingset_restore: u64,
    /// Shadow entries dropped when their task was killed
    /// (`workingset_nodereclaim` analog: shadow reclaim).
    pub workingset_nodereclaim: u64,
    /// Shadow entries still live at run end.
    pub shadow_entries: u64,
    /// Refault-distance distribution: evictions between a page's eviction
    /// and its refault (the `workingset.c` distance, in eviction counts).
    pub workingset_refault_distance: LatencyHistogram,
    /// Final `Policy::introspect` dump (`lru_gen` debugfs analog).
    pub lru_gen: String,
    /// First simulation-state violation, if any (the run degrades instead
    /// of panicking).
    pub error: Option<SimError>,
}

impl RunMetrics {
    /// Runtime in seconds of simulated time.
    pub fn runtime_secs(&self) -> f64 {
        self.runtime_ns as f64 / 1e9
    }

    /// Mean request latency across read and write requests, in ns
    /// (the paper normalizes YCSB by average request time).
    pub fn mean_request_latency(&self) -> f64 {
        let n = self.read_latency.count() + self.write_latency.count();
        if n == 0 {
            return 0.0;
        }
        (self.read_latency.mean() * self.read_latency.count() as f64
            + self.write_latency.mean() * self.write_latency.count() as f64)
            / n as f64
    }

    /// Time the run spent in degraded mode: retry backoff sleeps plus
    /// injected device-stall delay.
    pub fn degraded_ns(&self) -> Nanos {
        self.backoff_ns + self.swap_stats.stall_delay_ns
    }

    /// The `/proc/vmstat`-analog counter registry: every counter under its
    /// Linux name, in `/proc/vmstat` order. `pgmajfault` is the existing
    /// major-fault count; the rest are incremented at the same kernel
    /// sites Linux increments them (see the DESIGN.md mapping table).
    pub fn vmstat(&self) -> [(&'static str, u64); 10] {
        [
            ("pgmajfault", self.major_faults),
            ("pgscan_kswapd", self.pgscan_kswapd),
            ("pgscan_direct", self.pgscan_direct),
            ("pgsteal_anon", self.pgsteal_anon),
            ("pgsteal_file", self.pgsteal_file),
            ("workingset_refault", self.workingset_refault),
            ("workingset_activate", self.workingset_activate),
            ("workingset_restore", self.workingset_restore),
            ("workingset_nodereclaim", self.workingset_nodereclaim),
            ("nr_shadow_entries", self.shadow_entries),
        ]
    }

    /// Serializes every field to the versioned line format the on-disk
    /// cell cache stores ([`RunMetrics::from_cache_text`] inverts it
    /// exactly; the roundtrip test in this module covers every field).
    pub fn to_cache_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "format {CACHE_FORMAT_VERSION}");
        self.write_scalars(&mut out);
        write_histogram(&mut out, "read_latency", &self.read_latency);
        write_histogram(&mut out, "write_latency", &self.write_latency);
        write_histogram(
            &mut out,
            "workingset_refault_distance",
            &self.workingset_refault_distance,
        );
        let _ = writeln!(out, "lru_gen {}", escape_line(&self.lru_gen));
        let _ = writeln!(out, "error {}", self.error.map_or("-", |e| e.name()));
        out.push_str("end\n");
        out
    }

    /// Parses [`RunMetrics::to_cache_text`] output. Returns `None` on any
    /// format mismatch (wrong version, missing/extra fields, parse error) —
    /// callers treat that as a cache miss and recompute.
    pub fn from_cache_text(text: &str) -> Option<RunMetrics> {
        let mut m = RunMetrics::default();
        let mut lines = text.lines();
        if lines.next()? != format!("format {CACHE_FORMAT_VERSION}") {
            return None;
        }
        m.read_scalars(&mut lines)?;
        m.read_latency = parse_histogram(lines.next()?, "read_latency")?;
        m.write_latency = parse_histogram(lines.next()?, "write_latency")?;
        m.workingset_refault_distance =
            parse_histogram(lines.next()?, "workingset_refault_distance")?;
        m.lru_gen = unescape_line(lines.next()?.strip_prefix("lru_gen ")?)?;
        match lines.next()?.strip_prefix("error ")? {
            "-" => m.error = None,
            name => m.error = Some(SimError::from_name(name)?),
        }
        if lines.next()? != "end" || lines.next().is_some() {
            return None;
        }
        Some(m)
    }
}

/// Version tag inside every cached cell file; bump on any layout change so
/// stale caches read as misses instead of mis-parses.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Expands a symmetric writer/reader pair over the listed scalar fields.
/// One list drives both directions, so serializer and parser cannot drift;
/// the roundtrip unit test catches a field missing from the list entirely.
macro_rules! codec_scalars {
    ($($($part:ident).+),* $(,)?) => {
        impl RunMetrics {
            fn write_scalars(&self, out: &mut String) {
                use std::fmt::Write as _;
                $(
                    let _ = writeln!(
                        out,
                        concat!(stringify!($($part).+), " {}"),
                        self.$($part).+
                    );
                )*
            }

            fn read_scalars(&mut self, lines: &mut std::str::Lines<'_>) -> Option<()> {
                $(
                    let rest = lines
                        .next()?
                        .strip_prefix(concat!(stringify!($($part).+), " "))?;
                    self.$($part).+ = rest.parse().ok()?;
                )*
                Some(())
            }
        }
    };
}

codec_scalars!(
    runtime_ns,
    accesses,
    minor_faults,
    major_faults,
    evictions,
    swap_outs,
    clean_drops,
    alloc_stalls,
    shared_fault_waits,
    direct_reclaims,
    kswapd_batches,
    writeback_throttles,
    aging_runs,
    app_cpu_ns,
    kernel_cpu_ns,
    footprint_pages,
    capacity_frames,
    swap_used_bytes,
    io_errors,
    io_retries,
    backoff_ns,
    io_kills,
    oom_kills,
    kill_freed_frames,
    eviction_aborts,
    pressure_frames_taken,
    pgscan_kswapd,
    pgscan_direct,
    pgsteal_anon,
    pgsteal_file,
    workingset_refault,
    workingset_activate,
    workingset_restore,
    workingset_nodereclaim,
    shadow_entries,
    policy.pte_scans,
    policy.rmap_walks,
    policy.promotions,
    policy.evictions,
    policy.aging_passes,
    policy.resorted,
    policy.regions_skipped,
    policy.regions_walked,
    policy.tier_protected,
    swap_stats.reads,
    swap_stats.writes,
    swap_stats.read_queue_ns,
    swap_stats.write_queue_ns,
    swap_stats.io_errors,
    swap_stats.pool_rejections,
    swap_stats.stall_delay_ns,
);

fn write_histogram(out: &mut String, name: &str, h: &LatencyHistogram) {
    use std::fmt::Write as _;
    let (sparse, sum, min, max) = h.to_parts();
    let _ = write!(out, "{name} {sum} {min} {max} {}", sparse.len());
    for (i, c) in sparse {
        let _ = write!(out, " {i}:{c}");
    }
    out.push('\n');
}

fn parse_histogram(line: &str, name: &str) -> Option<LatencyHistogram> {
    let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
    let mut it = rest.splitn(4, ' ');
    let sum: u128 = it.next()?.parse().ok()?;
    let min: u64 = it.next()?.parse().ok()?;
    let max: u64 = it.next()?.parse().ok()?;
    let tail = it.next()?;
    let (n, pairs) = tail.split_at(tail.find(' ').unwrap_or(tail.len()));
    let n: usize = n.parse().ok()?;
    // The ` i:c` pairs are most of a cache entry's bytes, so they are read
    // in one pass over the bytes rather than token by token.
    let mut pairs = pairs.as_bytes();
    let mut sparse = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let (i, rest) = leading_u64(pairs.strip_prefix(b" ")?)?;
        let (c, rest) = leading_u64(rest.strip_prefix(b":")?)?;
        sparse.push((u32::try_from(i).ok()?, c));
        pairs = rest;
    }
    if !pairs.is_empty() {
        return None;
    }
    LatencyHistogram::from_parts(&sparse, sum, min, max)
}

/// Splits the decimal `u64` off the front of `b`: at least one digit, no
/// sign, `None` on overflow.
fn leading_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let digits = b.iter().take_while(|d| d.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let mut v: u64 = 0;
    for &d in &b[..digits] {
        v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
    }
    Some((v, &b[digits..]))
}

/// Flattens a multi-line introspection dump onto one cache line
/// (`\` → `\\`, newline → `\n`); [`unescape_line`] inverts it exactly.
fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_line(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

/// Runs one `(config, workload)` cell.
#[derive(Clone, Debug)]
pub struct Experiment {
    config: SystemConfig,
}

impl Experiment {
    /// Creates an experiment for `config`.
    pub fn new(config: SystemConfig) -> Self {
        Experiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// One execution ("one reboot"), fully determined by `seed`.
    pub fn run(&self, workload: &dyn Workload, seed: u64) -> RunMetrics {
        Kernel::build(&self.config, workload, seed).run()
    }

    /// Runs `trials` independent executions, one after another, with
    /// seeds derived from `master_seed` (the paper runs 25 per cell). The
    /// parallel path is the bench crate's sweep executor (`repro`).
    pub fn run_trials<W: Workload>(&self, workload: &W, master_seed: u64, trials: u32) -> TrialSet {
        TrialSet {
            runs: (0..trials)
                .map(|i| self.run(workload, trial_seed(master_seed, i)))
                .collect(),
        }
    }
}

/// The trials of one experiment cell.
#[derive(Clone, Debug)]
pub struct TrialSet {
    /// Per-trial metrics, in trial order.
    pub runs: Vec<RunMetrics>,
}

impl TrialSet {
    /// Runtimes in seconds.
    pub fn runtimes(&self) -> Vec<f64> {
        self.runs.iter().map(RunMetrics::runtime_secs).collect()
    }

    /// Major-fault counts.
    pub fn faults(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.major_faults as f64).collect()
    }

    /// Mean request latencies (YCSB cells).
    pub fn mean_request_latencies(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(RunMetrics::mean_request_latency)
            .collect()
    }

    /// Summary of runtimes.
    pub fn runtime_summary(&self) -> Summary {
        Summary::of(&self.runtimes())
    }

    /// Summary of fault counts.
    pub fn fault_summary(&self) -> Summary {
        Summary::of(&self.faults())
    }

    /// All trials' read-latency histograms merged.
    pub fn merged_read_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for r in &self.runs {
            h.merge(&r.read_latency);
        }
        h
    }

    /// All trials' write-latency histograms merged.
    pub fn merged_write_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for r in &self.runs {
            h.merge(&r.write_latency);
        }
        h
    }

    /// Injected I/O errors summed over trials.
    pub fn total_io_errors(&self) -> u64 {
        self.runs.iter().map(|r| r.io_errors).sum()
    }

    /// Swap-in retries summed over trials.
    pub fn total_io_retries(&self) -> u64 {
        self.runs.iter().map(|r| r.io_retries).sum()
    }

    /// OOM and I/O kills summed over trials.
    pub fn total_kills(&self) -> u64 {
        self.runs.iter().map(|r| r.oom_kills + r.io_kills).sum()
    }

    /// OOM kills summed over trials.
    pub fn total_oom_kills(&self) -> u64 {
        self.runs.iter().map(|r| r.oom_kills).sum()
    }

    /// Allocation stalls summed over trials.
    pub fn total_alloc_stalls(&self) -> u64 {
        self.runs.iter().map(|r| r.alloc_stalls).sum()
    }

    /// Degraded-mode time summed over trials.
    pub fn total_degraded_ns(&self) -> Nanos {
        self.runs.iter().map(RunMetrics::degraded_ns).sum()
    }

    /// Trials that ended with a [`SimError`].
    pub fn error_count(&self) -> usize {
        self.runs.iter().filter(|r| r.error.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyChoice, SwapChoice};
    use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};

    #[test]
    fn trials_are_reproducible_and_distinct() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let e = Experiment::new(
            SystemConfig::new(PolicyChoice::Clock, SwapChoice::Zram)
                .capacity_ratio(0.5)
                .cores(2),
        );
        let a = e.run_trials(&w, 99, 3);
        let b = e.run_trials(&w, 99, 3);
        assert_eq!(a.runtimes(), b.runtimes());
        assert_eq!(a.faults(), b.faults());
        // trials within a set differ (different derived seeds)
        let r = a.runtimes();
        assert!(r.windows(2).any(|w| w[0] != w[1]), "no variance: {r:?}");
    }

    #[test]
    fn cache_text_roundtrips_every_field() {
        // A real run exercises realistic histogram and counter state...
        let w = TpchWorkload::new(TpchConfig::tiny());
        let e = Experiment::new(
            SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Zram)
                .capacity_ratio(0.5)
                .cores(2),
        );
        let real = e.run(&w, 3);
        let back = RunMetrics::from_cache_text(&real.to_cache_text()).expect("parse");
        assert_eq!(format!("{real:?}"), format!("{back:?}"));

        // ...and a synthetic one pins every scalar field to a distinct
        // value so a field dropped from the codec list fails loudly.
        let mut m = RunMetrics::default();
        let mut next = 1u64;
        let mut stamp = |slot: &mut u64| {
            *slot = next;
            next += 1;
        };
        stamp(&mut m.runtime_ns);
        stamp(&mut m.accesses);
        stamp(&mut m.minor_faults);
        stamp(&mut m.major_faults);
        stamp(&mut m.evictions);
        stamp(&mut m.swap_outs);
        stamp(&mut m.clean_drops);
        stamp(&mut m.alloc_stalls);
        stamp(&mut m.shared_fault_waits);
        stamp(&mut m.direct_reclaims);
        stamp(&mut m.kswapd_batches);
        stamp(&mut m.writeback_throttles);
        stamp(&mut m.aging_runs);
        stamp(&mut m.app_cpu_ns);
        stamp(&mut m.kernel_cpu_ns);
        m.footprint_pages = 91;
        m.capacity_frames = 92;
        stamp(&mut m.swap_used_bytes);
        stamp(&mut m.io_errors);
        stamp(&mut m.io_retries);
        stamp(&mut m.backoff_ns);
        stamp(&mut m.io_kills);
        stamp(&mut m.oom_kills);
        stamp(&mut m.kill_freed_frames);
        stamp(&mut m.eviction_aborts);
        stamp(&mut m.pressure_frames_taken);
        stamp(&mut m.pgscan_kswapd);
        stamp(&mut m.pgscan_direct);
        stamp(&mut m.pgsteal_anon);
        stamp(&mut m.pgsteal_file);
        stamp(&mut m.workingset_refault);
        stamp(&mut m.workingset_activate);
        stamp(&mut m.workingset_restore);
        stamp(&mut m.workingset_nodereclaim);
        stamp(&mut m.shadow_entries);
        stamp(&mut m.policy.pte_scans);
        stamp(&mut m.policy.rmap_walks);
        stamp(&mut m.policy.promotions);
        stamp(&mut m.policy.evictions);
        stamp(&mut m.policy.aging_passes);
        stamp(&mut m.policy.resorted);
        stamp(&mut m.policy.regions_skipped);
        stamp(&mut m.policy.regions_walked);
        stamp(&mut m.policy.tier_protected);
        stamp(&mut m.swap_stats.reads);
        stamp(&mut m.swap_stats.writes);
        stamp(&mut m.swap_stats.read_queue_ns);
        stamp(&mut m.swap_stats.write_queue_ns);
        stamp(&mut m.swap_stats.io_errors);
        stamp(&mut m.swap_stats.pool_rejections);
        stamp(&mut m.swap_stats.stall_delay_ns);
        m.read_latency.record(123);
        m.read_latency.record(456_789);
        m.write_latency.record(7);
        m.workingset_refault_distance.record(42);
        m.workingset_refault_distance.record(9_001);
        m.lru_gen = "memcg 0\n gen 3 age 2\\tier 0\n".to_string();
        m.error = Some(SimError::Deadlock);
        let back = RunMetrics::from_cache_text(&m.to_cache_text()).expect("parse");
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    #[test]
    fn cache_text_rejects_corruption() {
        let m = RunMetrics::default();
        let text = m.to_cache_text();
        assert!(RunMetrics::from_cache_text(&text).is_some());
        // Wrong version.
        let bad = text.replacen("format ", "format 9", 1);
        assert!(RunMetrics::from_cache_text(&bad).is_none());
        // Truncated.
        let cut = &text[..text.len() / 2];
        assert!(RunMetrics::from_cache_text(cut).is_none());
        // Trailing garbage.
        let long = format!("{text}junk\n");
        assert!(RunMetrics::from_cache_text(&long).is_none());
        // A renamed field.
        let renamed = text.replacen("major_faults", "major_fault", 1);
        assert!(RunMetrics::from_cache_text(&renamed).is_none());
        // A non-numeric value.
        let nan = text.replacen("runtime_ns 0", "runtime_ns x", 1);
        assert!(RunMetrics::from_cache_text(&nan).is_none());
        // An unknown error name.
        let err = text.replacen("error -", "error bogus", 1);
        assert!(RunMetrics::from_cache_text(&err).is_none());
    }

    #[test]
    fn histogram_lines_parse_strictly() {
        let h = |line: &str| parse_histogram(line, "h").map(|h| h.to_parts());
        assert_eq!(
            h("h 0 18446744073709551615 0 0"),
            Some((vec![], 0, u64::MAX, 0))
        );
        assert_eq!(
            h("h 12 5 7 2 5:1 7:1"),
            Some((vec![(5, 1), (7, 1)], 12, 5, 7))
        );
        for bad in [
            "h 0 0 0 0 ",
            "h 12 5 7 2 5:1",
            "h 12 5 7 2 5:1 7:1 ",
            "h 12 5 7 2 5:1  7:1",
            "h 12 5 7 1 5:1 7:1",
            "h 12 5 7 2 5:1 +7:1",
            "h 12 5 7 2 5:1 7:",
            "h 12 5 7 2 5:1 :1",
            "h 12 5 7 2 5:1 7-1",
            "h 12 5 7 1 4294967296:1",
            "h 12 5 7 1 5:18446744073709551616",
            "h 12 5 7 1 3712:1",
        ] {
            assert_eq!(h(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn summaries_cover_all_trials() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let e = Experiment::new(
            SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Zram)
                .capacity_ratio(0.5)
                .cores(2),
        );
        let set = e.run_trials(&w, 5, 4);
        assert_eq!(set.runtime_summary().n, 4);
        assert_eq!(set.fault_summary().n, 4);
        assert!(set.runtime_summary().mean > 0.0);
    }
}
