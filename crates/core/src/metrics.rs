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
    fn mean_request_latency(&self) -> f64 {
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
    fn degraded_ns(&self) -> Nanos {
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
        out.push_str(FORMAT_LINE);
        out.push('\n');
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
        Self::from_cache_bytes(text.as_bytes()).ok()
    }

    /// Decodes [`RunMetrics::to_cache_text`] output straight from bytes,
    /// in one forward pass.
    ///
    /// The accepted language is the writer's, read the way `str::lines`
    /// and `str::parse` would read it:
    /// - the lines come in the writer's order, each `<key> <value>`; a
    ///   line ends in `\n` or `\r\n`, and the final `end` line may also
    ///   end the input without one;
    /// - a scalar, a histogram's sum, min, max and pair count are
    ///   decimal with an optional leading `+` (leading zeros allowed);
    ///   the histogram's ` index:count` pairs are bare digits, any order,
    ///   a repeated index adding its counts;
    /// - `lru_gen` is the one line that may hold any UTF-8, with `\\` and
    ///   `\n` as its only escapes; it alone is checked for UTF-8.
    ///
    /// Anything else — a wrong version, a missing, renamed or extra line,
    /// a value past its type, a bucket past the histogram's range, counts
    /// that overflow `u64` — is a [`CacheTextError`] naming the line and
    /// the byte offset where decoding stopped. No input panics.
    pub fn from_cache_bytes(bytes: &[u8]) -> Result<RunMetrics, CacheTextError> {
        let mut cur = Cursor {
            rest: bytes,
            line: "format",
        };
        decode(&mut cur).ok_or(CacheTextError {
            line: cur.line,
            offset: bytes.len() - cur.rest.len(),
        })
    }
}

/// Why [`RunMetrics::from_cache_bytes`] rejected its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheTextError {
    /// The key of the line being decoded: `format`, a scalar field, a
    /// histogram, `lru_gen`, `error` or `end`.
    pub line: &'static str,
    /// Byte offset of the first byte the decoder could not accept.
    pub offset: usize,
}

impl std::fmt::Display for CacheTextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metrics cache text rejected in line `{}` at byte {}",
            self.line, self.offset
        )
    }
}

impl std::error::Error for CacheTextError {}

/// Spells the body format's version once, for the constant and for the
/// header line the codec writes and expects.
macro_rules! cache_format_version {
    () => {
        2
    };
}

/// Version tag inside every cached cell file; bump on any layout change so
/// stale caches read as misses instead of mis-parses.
pub const CACHE_FORMAT_VERSION: u32 = cache_format_version!();

/// The first line of every metrics cache text.
const FORMAT_LINE: &str = concat!("format ", cache_format_version!());

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

            fn read_scalars(&mut self, cur: &mut Cursor<'_>) -> Option<()> {
                $(
                    self.$($part).+ = cur.scalar(stringify!($($part).+))?;
                )*
                Some(())
            }

            /// Sets every listed field from `next` (truncating into the
            /// narrower fields), for generated test inputs.
            #[cfg(test)]
            fn fill_scalars(&mut self, next: &mut dyn FnMut() -> u64) {
                $(
                    self.$($part).+ = next() as _;
                )*
            }

            /// The line-by-line reader the byte decoder replaced, kept as
            /// the reference the decoder is tested against.
            #[cfg(test)]
            fn reference_read_scalars(&mut self, lines: &mut std::str::Lines<'_>) -> Option<()> {
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

/// Inverts [`escape_line`] on one line's bytes: the only UTF-8 check the
/// decoder makes, then a scan from one `\` to the next.
fn unescape_line(line: &[u8]) -> Option<String> {
    let mut rest = std::str::from_utf8(line).ok()?;
    let mut out = String::with_capacity(rest.len());
    while let Some(i) = rest.find('\\') {
        let (plain, escaped) = rest.split_at(i);
        out.push_str(plain);
        out.push(match escaped.as_bytes().get(1)? {
            b'\\' => '\\',
            b'n' => '\n',
            _ => return None,
        });
        rest = escaped.get(2..)?;
    }
    out.push_str(rest);
    Some(out)
}

/// The whole decode, in the writer's order; `None` leaves `cur` where the
/// input stopped matching.
fn decode(cur: &mut Cursor<'_>) -> Option<RunMetrics> {
    let mut m = RunMetrics::default();
    cur.tag(FORMAT_LINE.as_bytes())?;
    cur.eol()?;
    m.read_scalars(cur)?;
    m.read_latency = cur.histogram("read_latency")?;
    m.write_latency = cur.histogram("write_latency")?;
    m.workingset_refault_distance = cur.histogram("workingset_refault_distance")?;
    cur.key("lru_gen")?;
    m.lru_gen = unescape_line(cur.rest_of_line())?;
    cur.key("error")?;
    m.error = match cur.rest_of_line() {
        b"-" => None,
        name => Some(SimError::from_name(name)?),
    };
    cur.line = "end";
    cur.tag(b"end")?;
    matches!(cur.rest, b"" | b"\n" | b"\r\n").then_some(m)
}

/// The decoder's position: the bytes not yet read, and the key of the
/// line they are in (for [`CacheTextError`]).
struct Cursor<'a> {
    rest: &'a [u8],
    line: &'static str,
}

impl<'a> Cursor<'a> {
    fn tag(&mut self, tag: &[u8]) -> Option<()> {
        self.rest = self.rest.strip_prefix(tag)?;
        Some(())
    }

    fn byte(&mut self, b: u8) -> Option<()> {
        match self.rest.split_first() {
            Some((&first, rest)) if first == b => {
                self.rest = rest;
                Some(())
            }
            _ => None,
        }
    }

    /// A line's end: `\n`, or `\r\n` as `str::lines` reads it.
    fn eol(&mut self) -> Option<()> {
        match self.rest {
            [b'\n', rest @ ..] | [b'\r', b'\n', rest @ ..] => {
                self.rest = rest;
                Some(())
            }
            _ => None,
        }
    }

    /// Starts line `key`: the key and one space.
    fn key(&mut self, key: &'static str) -> Option<()> {
        self.line = key;
        self.tag(key.as_bytes())?;
        self.byte(b' ')
    }

    /// Everything up to the next line end, which it consumes; without one,
    /// the rest of the input.
    fn rest_of_line(&mut self) -> &'a [u8] {
        let rest = self.rest;
        match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let (line, tail) = rest.split_at(i);
                self.rest = tail.get(1..).unwrap_or_default();
                line.strip_suffix(b"\r").unwrap_or(line)
            }
            None => {
                self.rest = &[];
                rest
            }
        }
    }

    /// At least one ASCII digit as a `u64`; `None` on overflow. Nineteen
    /// digits cannot overflow, so only longer runs pay for the checks.
    fn digits(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        let mut n = 0;
        for &b in self.rest {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = if n < 19 {
                v * 10 + u64::from(d)
            } else {
                v.checked_mul(10)?.checked_add(u64::from(d))?
            };
            n += 1;
        }
        if n == 0 {
            return None;
        }
        self.rest = self.rest.get(n..)?;
        Some(v)
    }

    /// A `u64` as `str::parse` reads one: an optional `+`, then digits.
    fn number(&mut self) -> Option<u64> {
        if let [b'+', rest @ ..] = self.rest {
            self.rest = rest;
        }
        self.digits()
    }

    /// A `u128` as `str::parse` reads one (a histogram's sum).
    fn number_u128(&mut self) -> Option<u128> {
        if let [b'+', rest @ ..] = self.rest {
            self.rest = rest;
        }
        let mut v: u128 = 0;
        let mut n = 0;
        for &b in self.rest {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v.checked_mul(10)?.checked_add(u128::from(d))?;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        self.rest = self.rest.get(n..)?;
        Some(v)
    }

    /// One whole scalar line, `<key> <number>`; the value must fit `T`.
    fn scalar<T: TryFrom<u64>>(&mut self, key: &'static str) -> Option<T> {
        self.key(key)?;
        let v = self.number()?;
        self.eol()?;
        T::try_from(v).ok()
    }

    /// One whole histogram line, `<name> <sum> <min> <max> <n>` and `n`
    /// ` index:count` pairs, which go straight into bucket storage.
    fn histogram(&mut self, name: &'static str) -> Option<LatencyHistogram> {
        self.key(name)?;
        let sum = self.number_u128()?;
        self.byte(b' ')?;
        let min = self.number()?;
        self.byte(b' ')?;
        let max = self.number()?;
        self.byte(b' ')?;
        let n = usize::try_from(self.number()?).ok()?;
        let h = LatencyHistogram::try_from_pairs((0..n).map(|_| self.pair()), sum, min, max)?;
        self.eol()?;
        Some(h)
    }

    fn pair(&mut self) -> Option<(u32, u64)> {
        self.byte(b' ')?;
        let idx = u32::try_from(self.digits()?).ok()?;
        self.byte(b':')?;
        Some((idx, self.digits()?))
    }
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

/// The line-by-line decoder that [`RunMetrics::from_cache_bytes`]
/// replaced, kept as the reference the byte decoder is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn from_cache_text(text: &str) -> Option<RunMetrics> {
        let mut m = RunMetrics::default();
        let mut lines = text.lines();
        if lines.next()? != format!("format {CACHE_FORMAT_VERSION}") {
            return None;
        }
        m.reference_read_scalars(&mut lines)?;
        m.read_latency = parse_histogram(lines.next()?, "read_latency")?;
        m.write_latency = parse_histogram(lines.next()?, "write_latency")?;
        m.workingset_refault_distance =
            parse_histogram(lines.next()?, "workingset_refault_distance")?;
        m.lru_gen = unescape_line(lines.next()?.strip_prefix("lru_gen ")?)?;
        match lines.next()?.strip_prefix("error ")? {
            "-" => m.error = None,
            name => m.error = Some(SimError::from_name(name.as_bytes())?),
        }
        if lines.next()? != "end" || lines.next().is_some() {
            return None;
        }
        Some(m)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyChoice, SwapChoice};
    use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
    use proptest::prelude::*;

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
        let h = |line: &str| {
            let text = format!("{line}\n");
            let mut cur = Cursor {
                rest: text.as_bytes(),
                line: "",
            };
            cur.histogram("h").map(|h| h.to_parts())
        };
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
            "h 12 5 7 2 5:9223372036854775808 6:9223372036854775808",
            "h 12 5 7 2 5:9223372036854775808 5:9223372036854775808",
        ] {
            assert_eq!(h(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn rejection_names_the_line_and_offset() {
        let text = RunMetrics::default().to_cache_text();
        let bad = text.replacen("major_faults 0", "major_faults x", 1);
        let err = RunMetrics::from_cache_bytes(bad.as_bytes()).unwrap_err();
        assert_eq!(err.line, "major_faults");
        assert_eq!(&bad[err.offset..err.offset + 1], "x");
        let err = RunMetrics::from_cache_bytes(&text.as_bytes()[..3]).unwrap_err();
        assert_eq!((err.line, err.offset), ("format", 0));
        let err = RunMetrics::from_cache_bytes(format!("{text}x").as_bytes()).unwrap_err();
        assert_eq!(err.line, "end");
    }

    /// A splitmix64 stream for generated decoder inputs.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Random metrics with every field set: scalars from tiny to
    /// `u64::MAX`, non-empty histograms (sums past `u64` included) and an
    /// `lru_gen` dump full of characters the codec escapes.
    fn random_metrics(seed: u64) -> RunMetrics {
        let mut next = stream(seed);
        let mut m = RunMetrics::default();
        m.fill_scalars(&mut || match next() % 4 {
            0 => 0,
            1 => next() % 1000,
            2 => u64::MAX,
            _ => next(),
        });
        for h in [
            &mut m.read_latency,
            &mut m.write_latency,
            &mut m.workingset_refault_distance,
        ] {
            for _ in 0..1 + next() % 24 {
                // Log-uniform below 2^63, the top of the bucket range.
                h.record((next() >> 1) >> (next() % 63));
            }
        }
        const PALETTE: [char; 10] = ['a', 'Z', '0', ' ', ':', '\\', '\n', '\r', 'é', '→'];
        m.lru_gen = (0..next() % 48)
            .map(|_| PALETTE[(next() % 10) as usize])
            .collect();
        m.error = [
            None,
            Some(SimError::RequestWithoutStart),
            Some(SimError::NestedRequest),
            Some(SimError::Deadlock),
            Some(SimError::SimTimeExceeded),
        ][(next() % 5) as usize];
        m
    }

    /// The byte decoder against the reference on `bytes`, which the
    /// reference reads only if they are UTF-8 (its input is a `&str`).
    fn same_as_reference(bytes: &[u8]) -> Result<(), String> {
        let new = RunMetrics::from_cache_bytes(bytes)
            .ok()
            .map(|m| format!("{m:?}"));
        let old = std::str::from_utf8(bytes)
            .ok()
            .and_then(reference::from_cache_text)
            .map(|m| format!("{m:?}"));
        if new == old {
            Ok(())
        } else {
            Err(format!(
                "decoders disagree on {:?}:\n new: {new:?}\n old: {old:?}",
                String::from_utf8_lossy(bytes)
            ))
        }
    }

    proptest! {
        /// The byte decoder accepts exactly what the line decoder did,
        /// decodes it to the same metrics, and panics on nothing: the
        /// writer's output, every truncation of it, and single-byte flips
        /// and insertions.
        #[test]
        fn byte_decoder_matches_the_reference(seed in any::<u64>()) {
            let m = random_metrics(seed);
            let text = m.to_cache_text();
            let bytes = text.as_bytes();
            let back = RunMetrics::from_cache_bytes(bytes).map(|b| format!("{b:?}"));
            // The line reader drops a `\r` before a line's `\n` and the
            // writer does not escape `\r`: such a dump is the one that
            // comes back changed, identically from both decoders.
            if !m.lru_gen.ends_with('\r') {
                prop_assert_eq!(back, Ok(format!("{m:?}")));
            }
            same_as_reference(bytes)?;
            for cut in 0..bytes.len() {
                same_as_reference(&bytes[..cut])?;
            }
            let mut next = stream(!seed);
            const GRAMMAR: [u8; 12] =
                [b' ', b'\n', b'\r', b'+', b'-', b'0', b'9', b':', b'\\', b'n', 0xC3, 0xFF];
            for _ in 0..64 {
                let at = (next() % bytes.len() as u64) as usize;
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 + (next() % 255) as u8;
                same_as_reference(&flipped)?;
                let mut grown = bytes.to_vec();
                let b = match next() % 2 {
                    0 => GRAMMAR[(next() % 12) as usize],
                    _ => next() as u8,
                };
                grown.insert(at, b);
                same_as_reference(&grown)?;
            }
        }
    }

    /// Inputs the writer never emits, each decoded the same by both
    /// decoders, with the verdict pinned.
    #[test]
    fn byte_decoder_matches_the_reference_on_edge_cases() {
        let mut m = RunMetrics::default();
        m.read_latency.record(5);
        m.read_latency.record(7);
        let text = m.to_cache_text();
        let read_line = "read_latency 12 5 7 2 5:1 7:1";
        assert!(text.contains(read_line));
        let cases: &[(&str, String, bool)] = &[
            ("as written", text.clone(), true),
            (
                "u64::MAX",
                text.replacen("accesses 0", "accesses 18446744073709551615", 1),
                true,
            ),
            (
                "20 digits past u64",
                text.replacen("accesses 0", "accesses 18446744073709551616", 1),
                false,
            ),
            (
                "20 digits, leading zero",
                text.replacen("accesses 0", "accesses 01844674407370955161", 1),
                true,
            ),
            (
                "many leading zeros",
                text.replacen("accesses 0", "accesses 0000000000000000000000000007", 1),
                true,
            ),
            (
                "plus sign",
                text.replacen("accesses 0", "accesses +7", 1),
                true,
            ),
            (
                "two plus signs",
                text.replacen("accesses 0", "accesses ++7", 1),
                false,
            ),
            (
                "bare plus",
                text.replacen("accesses 0", "accesses +", 1),
                false,
            ),
            (
                "minus sign",
                text.replacen("accesses 0", "accesses -0", 1),
                false,
            ),
            (
                "trailing space",
                text.replacen("accesses 0", "accesses 0 ", 1),
                false,
            ),
            (
                "u32 field at its max",
                text.replacen("footprint_pages 0", "footprint_pages 4294967295", 1),
                true,
            ),
            (
                "u32 field past its max",
                text.replacen("footprint_pages 0", "footprint_pages 4294967296", 1),
                false,
            ),
            (
                "u128 sum at its max",
                text.replacen(
                    read_line,
                    "read_latency 340282366920938463463374607431768211455 5 7 2 5:1 7:1",
                    1,
                ),
                true,
            ),
            (
                "u128 sum past its max",
                text.replacen(
                    read_line,
                    "read_latency 340282366920938463463374607431768211456 5 7 2 5:1 7:1",
                    1,
                ),
                false,
            ),
            (
                "signed histogram header",
                text.replacen(read_line, "read_latency +12 +5 +7 +2 5:1 7:1", 1),
                true,
            ),
            (
                "signed bucket index",
                text.replacen(read_line, "read_latency 12 5 7 2 +5:1 7:1", 1),
                false,
            ),
            (
                "unsorted buckets",
                text.replacen(read_line, "read_latency 12 5 7 2 7:1 5:1", 1),
                true,
            ),
            (
                "duplicate bucket",
                text.replacen(read_line, "read_latency 12 5 7 2 5:1 5:1", 1),
                true,
            ),
            (
                "duplicate bucket overflow",
                text.replacen(
                    read_line,
                    "read_latency 12 5 7 2 5:9223372036854775808 5:9223372036854775808",
                    1,
                ),
                false,
            ),
            (
                "total overflow",
                text.replacen(
                    read_line,
                    "read_latency 12 5 7 2 5:9223372036854775808 7:9223372036854775808",
                    1,
                ),
                false,
            ),
            (
                "histogram trailing space",
                text.replacen(read_line, "read_latency 12 5 7 2 5:1 7:1 ", 1),
                false,
            ),
            ("CRLF line ends", text.replace('\n', "\r\n"), true),
            (
                "bare CR line end",
                text.replacen("accesses 0\n", "accesses 0\r", 1),
                false,
            ),
            (
                "no final newline",
                text.trim_end_matches('\n').to_owned(),
                true,
            ),
            (
                "end then CR",
                format!("{}\r", text.trim_end_matches('\n')),
                false,
            ),
            ("blank line after end", format!("{text}\n"), false),
            (
                "unknown escape",
                text.replacen("lru_gen ", "lru_gen \\t", 1),
                false,
            ),
            (
                "dangling escape",
                text.replacen("lru_gen \n", "lru_gen \\\n", 1),
                false,
            ),
            (
                "unknown error name",
                text.replacen("error -", "error oops", 1),
                false,
            ),
            (
                "wrong version",
                text.replacen("format 2", "format 02", 1),
                false,
            ),
        ];
        for (what, input, accepted) in cases {
            same_as_reference(input.as_bytes()).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                RunMetrics::from_cache_text(input).is_some(),
                *accepted,
                "{what}"
            );
        }
        // Bytes that are not UTF-8 anywhere are rejected, including in
        // `lru_gen`, the one line that may hold any text.
        let mut bad = text.replacen("lru_gen ", "lru_gen x", 1).into_bytes();
        let at = bad.windows(9).position(|w| w == b"lru_gen x").unwrap() + 8;
        bad[at] = 0xFF;
        assert_eq!(
            RunMetrics::from_cache_bytes(&bad).unwrap_err().line,
            "lru_gen"
        );
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
