//! Spark-SQL-style TPC-H.
//!
//! The paper runs TPC-H through Spark-SQL with 12 threads and observes the
//! traits this model reproduces:
//!
//! * execution is a sequence of *stages*, each split into balanced tasks
//!   (one per thread) with a barrier at the stage end and little work-time
//!   variation between tasks;
//! * access patterns are regular — sequential scans over large tables plus
//!   probes into a hash region — so under memory pressure the runtime is
//!   essentially `work + faults × fault_cost`, producing the near-perfect
//!   linear faults↔runtime relationship of Fig. 2a/5a;
//! * each stage re-scans table data whose footprint exceeds capacity at a
//!   50 % capacity ratio, so the workload cycles through memory and keeps
//!   steady eviction pressure.
//!
//! Stages rotate through three flavours mirroring a query plan:
//! `build` (scan + hash-table writes), `probe` (scan + hash reads +
//! shuffle writes), `aggregate` (hash reads + shuffle read/write).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use pagesim_engine::rng::derive_seed;
use pagesim_mem::{AsId, EntropyClass, Vpn};

use crate::{AccessStream, Annotation, Op, OpBuf, SpaceSpec, Workload};

/// Configuration of the TPC-H model.
#[derive(Clone, Copy, Debug)]
pub struct TpchConfig {
    /// Worker threads (the paper uses 12).
    pub threads: usize,
    /// Pages of base-table data (scanned sequentially each stage).
    pub table_pages: u32,
    /// Pages of hash-join / aggregation state (probed randomly, hot).
    pub hash_pages: u32,
    /// Pages of shuffle buffers (written per stage).
    pub shuffle_pages: u32,
    /// Queries executed back to back.
    pub queries: u32,
    /// Stages per query (build/probe/aggregate rotation).
    pub stages_per_query: u32,
    /// Touches per scanned table page.
    pub touches_per_page: u32,
    /// Compute per touch, nanoseconds.
    pub cpu_per_touch_ns: u32,
    /// Fraction of the table each query's window covers. Queries scan
    /// different (overlapping) windows — TPC-H queries hit different
    /// tables/columns — so data reuse spans a query's stages but only
    /// partially carries across queries.
    pub window_frac: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            threads: 12,
            table_pages: 5_200,
            hash_pages: 8_000,
            shuffle_pages: 2_800,
            queries: 8,
            stages_per_query: 3,
            touches_per_page: 8,
            cpu_per_touch_ns: 120_000,
            window_frac: 0.4,
        }
    }
}

impl TpchConfig {
    /// A reduced configuration for fast tests.
    pub fn tiny() -> Self {
        TpchConfig {
            threads: 4,
            table_pages: 240,
            hash_pages: 100,
            shuffle_pages: 60,
            queries: 2,
            stages_per_query: 3,
            touches_per_page: 2,
            cpu_per_touch_ns: 60,
            window_frac: 0.5,
        }
    }

    /// Scales all region sizes by `factor` (footprint knob).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.table_pages = ((self.table_pages as f64 * factor) as u32).max(64);
        self.hash_pages = ((self.hash_pages as f64 * factor) as u32).max(32);
        self.shuffle_pages = ((self.shuffle_pages as f64 * factor) as u32).max(16);
        self
    }
}

/// The TPC-H workload (see module docs).
#[derive(Clone, Debug)]
pub struct TpchWorkload {
    cfg: TpchConfig,
}

impl TpchWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or any region is empty.
    pub fn new(cfg: TpchConfig) -> Self {
        assert!(cfg.threads > 0, "need at least one thread");
        assert!(cfg.table_pages > 0 && cfg.hash_pages > 0 && cfg.shuffle_pages > 0);
        TpchWorkload { cfg }
    }

    fn hash_base(&self) -> Vpn {
        self.cfg.table_pages
    }

    fn shuffle_base(&self) -> Vpn {
        self.cfg.table_pages + self.cfg.hash_pages
    }
}

impl Workload for TpchWorkload {
    fn name(&self) -> String {
        "tpch".to_owned()
    }

    fn spaces(&self) -> Vec<SpaceSpec> {
        let total = self.cfg.table_pages + self.cfg.hash_pages + self.cfg.shuffle_pages;
        vec![SpaceSpec {
            pages: total,
            annotations: vec![
                Annotation {
                    start: 0,
                    count: self.cfg.table_pages,
                    entropy: EntropyClass::Structured,
                    file_backed: false,
                },
                Annotation {
                    start: self.hash_base(),
                    count: self.cfg.hash_pages,
                    entropy: EntropyClass::Text,
                    file_backed: false,
                },
                Annotation {
                    start: self.shuffle_base(),
                    count: self.cfg.shuffle_pages,
                    entropy: EntropyClass::Text,
                    file_backed: false,
                },
            ],
        }]
    }

    fn barriers(&self) -> Vec<usize> {
        vec![self.cfg.threads]
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn AccessStream>> {
        // Live execution-memory fraction for this run: Spark's per-task
        // execution/aggregation memory varies between otherwise identical
        // runs (GC timing, task placement, spill thresholds), which is the
        // run-to-run footprint variation behind the paper's wide TPC-H
        // runtime distributions (Fig. 2a). One draw per run, shared by all
        // threads.
        let mut live_rng = SmallRng::seed_from_u64(derive_seed(seed, "tpch-live"));
        // Calibrated so the per-query live set straddles a 50% capacity
        // ratio: runs land on a spectrum from fits-with-room to
        // steady thrash, like the paper's 700–2000s TPC-H spread.
        let live_frac = 0.30 + 0.30 * live_rng.random::<f64>();
        // The query plan (which table window each query scans) is shared
        // by all threads of the run.
        let plan_seed = derive_seed(seed, "tpch-plan");
        (0..self.cfg.threads)
            .map(|t| {
                Box::new(TpchStream::new(
                    self.cfg,
                    t,
                    live_frac,
                    plan_seed,
                    derive_seed(seed, &format!("tpch-thread-{t}")),
                )) as Box<dyn AccessStream>
            })
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StageKind {
    Build,
    Probe,
    Aggregate,
}

/// Per-thread access stream: walks the stage schedule, buffering the ops of
/// one scanned page at a time.
struct TpchStream {
    cfg: TpchConfig,
    thread: usize,
    /// Fraction of this thread's execution-memory partition live this run.
    live_frac: f64,
    /// Shared plan seed: all threads of a run agree on query windows.
    plan_seed: u64,
    rng: SmallRng,
    buf: OpBuf,
    stage: u32,
    total_stages: u32,
}

impl TpchStream {
    fn new(cfg: TpchConfig, thread: usize, live_frac: f64, plan_seed: u64, seed: u64) -> Self {
        TpchStream {
            cfg,
            thread,
            live_frac,
            plan_seed,
            rng: SmallRng::seed_from_u64(seed),
            buf: OpBuf::default(),
            stage: 0,
            total_stages: cfg.queries * cfg.stages_per_query,
        }
    }

    /// The table window query `q` scans: `window_frac` of the table at a
    /// plan-determined offset. Stages of one query reuse the same window;
    /// successive queries move to (partially overlapping) windows.
    fn query_window(&self, q: u32) -> (Vpn, u32) {
        let t = self.cfg.table_pages;
        let window = ((t as f64 * self.cfg.window_frac) as u32).clamp(1, t);
        let span = t - window + 1;
        let start = (pagesim_engine::rng::splitmix64(self.plan_seed ^ (q as u64) << 8)
            % span as u64) as u32;
        (start, window)
    }

    /// This thread's slice of the execution-memory (hash) region. Spark
    /// execution memory is per-task, so each thread owns a contiguous
    /// partition — the "thread-specific pages" whose en-bloc eviction the
    /// paper identifies as the Scan-All straggler mechanism (§V-B).
    fn hash_partition(&self) -> (Vpn, u32) {
        let part = self.cfg.hash_pages / self.cfg.threads as u32;
        let base = self.cfg.table_pages + self.thread as u32 * part;
        let live = ((part as f64 * self.live_frac) as u32).max(8).min(part);
        (base, live)
    }

    /// Skewed index into the live partition: hash buckets and aggregation
    /// state have zipf-like popularity (a few keys dominate), giving the
    /// replacement policies a hot/warm/cold spectrum to rank rather than a
    /// uniform blob.
    fn skewed(&mut self, live: u32) -> u32 {
        let u: f64 = self.rng.random();
        ((u * u * live as f64) as u32).min(live - 1)
    }

    fn stage_kind(&self, stage: u32) -> StageKind {
        match stage % 3 {
            0 => StageKind::Build,
            1 => StageKind::Probe,
            _ => StageKind::Aggregate,
        }
    }

    fn push_access(&mut self, vpn: Vpn, write: bool) {
        self.buf.push(Op::Access {
            space: AsId(0),
            vpn,
            write,
            cpu_ns: self.cfg.cpu_per_touch_ns,
        });
    }

    /// Emits one stage's worth of ops for this thread, ending in a barrier.
    fn fill_stage(&mut self) {
        let kind = self.stage_kind(self.stage);
        let t = self.cfg.table_pages;
        let s = self.cfg.shuffle_pages;
        let threads = self.cfg.threads as u32;
        let shuffle_base = t + self.cfg.hash_pages;
        let (hash_base, hash_live) = self.hash_partition();

        // This query's table window, split into balanced tasks with ±4%
        // task-size jitter (the "mostly balanced work per thread" the
        // paper describes).
        let query = self.stage / self.cfg.stages_per_query;
        let (win_start, win_pages) = self.query_window(query);
        let slice = (win_pages / threads).max(1);
        let jitter = 1.0 + (self.rng.random::<f64>() - 0.5) * 0.08;
        let my_pages = ((slice as f64) * jitter) as u32;
        // Rotate slice ownership per stage so every thread touches
        // different table pages across stages (Spark task placement).
        let rotation = (self.stage * 7) % threads;
        let owner = (self.thread as u32 + rotation) % threads;
        let start = win_start + owner * slice;

        match kind {
            StageKind::Build => {
                // Scan my table slice; build my execution-memory hash.
                for p in 0..my_pages {
                    let vpn = (start + p) % t;
                    for _ in 0..self.cfg.touches_per_page {
                        self.push_access(vpn, false);
                    }
                    for _ in 0..self.cfg.touches_per_page / 2 {
                        let hp = hash_base + self.skewed(hash_live);
                        self.push_access(hp, true);
                    }
                }
            }
            StageKind::Probe => {
                for p in 0..my_pages {
                    let vpn = (start + p) % t;
                    for _ in 0..self.cfg.touches_per_page {
                        self.push_access(vpn, false);
                    }
                    for _ in 0..self.cfg.touches_per_page / 2 {
                        let hp = hash_base + self.skewed(hash_live);
                        self.push_access(hp, false);
                    }
                    // matched rows spill to my shuffle partition
                    let sp = shuffle_base
                        + (self.thread as u32 * (s / threads))
                        + self.rng.random_range(0..(s / threads).max(1));
                    self.push_access(sp, true);
                }
            }
            StageKind::Aggregate => {
                // Read shuffle output (all partitions, interleaved) and
                // update my aggregation state.
                let my_share = (s / threads).max(1);
                let mut order: Vec<u32> = (0..my_share).collect();
                order.shuffle(&mut self.rng);
                for i in order {
                    let sp = shuffle_base + (i * threads + self.thread as u32) % s;
                    for _ in 0..self.cfg.touches_per_page {
                        self.push_access(sp, false);
                    }
                    for _ in 0..self.cfg.touches_per_page {
                        let hp = hash_base + self.skewed(hash_live);
                        self.push_access(hp, true);
                    }
                }
            }
        }
        self.buf.push(Op::Barrier { id: 0 });
    }
}

impl AccessStream for TpchStream {
    /// One batch is one stage, ending in its barrier.
    fn refill(&mut self) -> bool {
        if self.stage >= self.total_stages {
            return false;
        }
        self.fill_stage();
        self.stage += 1;
        true
    }

    fn buf(&mut self) -> &mut OpBuf {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(stream: &mut dyn AccessStream) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = stream.next_op();
            if op == Op::Done {
                break;
            }
            ops.push(op);
        }
        ops
    }

    #[test]
    fn stages_end_with_barriers() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let mut streams = w.streams(1);
        let ops = drain(streams[0].as_mut());
        let barriers = ops
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        assert_eq!(barriers as u32, 2 * 3, "one barrier per stage");
        assert!(matches!(ops.last(), Some(Op::Barrier { id: 0 })));
    }

    #[test]
    fn all_threads_have_similar_volume() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let mut streams = w.streams(2);
        let counts: Vec<usize> = streams
            .iter_mut()
            .map(|s| drain(s.as_mut()).len())
            .collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.25, "imbalanced tasks: {counts:?}");
    }

    #[test]
    fn touches_stay_in_bounds() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let total = w.footprint_pages();
        let mut streams = w.streams(3);
        for s in &mut streams {
            for op in drain(s.as_mut()) {
                if let Op::Access { vpn, .. } = op {
                    assert!(vpn < total, "vpn {vpn} out of bounds");
                }
            }
        }
    }

    #[test]
    fn writes_target_hash_and_shuffle_regions() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let table = TpchConfig::tiny().table_pages;
        let mut streams = w.streams(4);
        let ops = drain(streams[0].as_mut());
        for op in ops {
            if let Op::Access {
                vpn, write: true, ..
            } = op
            {
                assert!(vpn >= table, "table pages are read-only, wrote {vpn}");
            }
        }
    }

    #[test]
    fn seeds_change_the_op_sequence() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let a = drain(w.streams(10)[0].as_mut());
        let b = drain(w.streams(10)[0].as_mut());
        let c = drain(w.streams(11)[0].as_mut());
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn footprint_matches_spec() {
        let cfg = TpchConfig::default();
        let w = TpchWorkload::new(cfg);
        assert_eq!(
            w.footprint_pages(),
            cfg.table_pages + cfg.hash_pages + cfg.shuffle_pages
        );
        assert_eq!(w.spaces().len(), 1);
        assert_eq!(w.barriers(), vec![12]);
    }

    #[test]
    fn done_is_sticky() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let mut s = w.streams(5);
        drain(s[0].as_mut());
        assert_eq!(s[0].next_op(), Op::Done);
        assert_eq!(s[0].next_op(), Op::Done);
    }
}
