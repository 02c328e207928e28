//! A buffered-I/O workload exercising MG-LRU's tiers and PID controller.
//!
//! The paper's workloads do little file-descriptor I/O, so it leaves the
//! tier/PID machinery untested (§III-D: "leaving it instead for future
//! work with workloads affected by it"). This workload fills that gap for
//! our ablation benches: threads stream a large "file" once (cold, read
//! via fds — no PTE accessed bits) while repeatedly re-reading a hot
//! subset of it, interleaved with an anonymous working set. Without tier
//! protection, the streaming reads keep flushing the hot file pages; with
//! the PID controller, refaults on the hot subset push its tier above the
//! base tier's refault rate and eviction starts protecting it.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use pagesim_engine::rng::derive_seed;
use pagesim_mem::{AsId, EntropyClass, Vpn};

use crate::{AccessStream, Annotation, Op, OpBuf, SpaceSpec, Workload};

/// Configuration of the buffered-I/O workload.
#[derive(Clone, Copy, Debug)]
pub struct BufferedIoConfig {
    /// Reader threads.
    pub threads: usize,
    /// Pages of file data streamed via fds.
    pub file_pages: u32,
    /// Leading pages of the file that form the hot, re-read subset.
    pub hot_pages: u32,
    /// Pages of anonymous working memory.
    pub anon_pages: u32,
    /// Streaming passes over the file.
    pub passes: u32,
    /// Hot re-reads interleaved per streamed page.
    pub hot_rereads_per_page: u32,
    /// Compute per access, nanoseconds.
    pub cpu_per_touch_ns: u32,
}

impl Default for BufferedIoConfig {
    fn default() -> Self {
        BufferedIoConfig {
            threads: 4,
            file_pages: 6_000,
            hot_pages: 600,
            anon_pages: 2_000,
            passes: 4,
            hot_rereads_per_page: 2,
            cpu_per_touch_ns: 8_000,
        }
    }
}

impl BufferedIoConfig {
    /// A reduced configuration for fast tests.
    pub fn tiny() -> Self {
        BufferedIoConfig {
            threads: 2,
            file_pages: 300,
            hot_pages: 30,
            anon_pages: 100,
            passes: 2,
            hot_rereads_per_page: 1,
            cpu_per_touch_ns: 8_000,
        }
    }
}

/// The buffered-I/O workload (see module docs).
#[derive(Clone, Debug)]
pub struct BufferedIoWorkload {
    cfg: BufferedIoConfig,
}

impl BufferedIoWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if the hot subset is larger than the file.
    pub fn new(cfg: BufferedIoConfig) -> Self {
        assert!(cfg.hot_pages <= cfg.file_pages, "hot subset exceeds file");
        assert!(cfg.threads > 0);
        BufferedIoWorkload { cfg }
    }
}

impl Workload for BufferedIoWorkload {
    fn name(&self) -> String {
        "buffered-io".to_owned()
    }

    fn spaces(&self) -> Vec<SpaceSpec> {
        vec![SpaceSpec {
            pages: self.cfg.file_pages + self.cfg.anon_pages,
            annotations: vec![
                Annotation {
                    start: 0,
                    count: self.cfg.file_pages,
                    entropy: EntropyClass::Text,
                    file_backed: true,
                },
                Annotation {
                    start: self.cfg.file_pages,
                    count: self.cfg.anon_pages,
                    entropy: EntropyClass::Structured,
                    file_backed: false,
                },
            ],
        }]
    }

    fn barriers(&self) -> Vec<usize> {
        Vec::new()
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn AccessStream>> {
        (0..self.cfg.threads)
            .map(|t| {
                Box::new(BufferedIoStream {
                    cfg: self.cfg,
                    thread: t,
                    rng: SmallRng::seed_from_u64(derive_seed(seed, &format!("bufio-{t}"))),
                    pass: 0,
                    cursor: 0,
                    buf: OpBuf::default(),
                }) as Box<dyn AccessStream>
            })
            .collect()
    }
}

struct BufferedIoStream {
    cfg: BufferedIoConfig,
    thread: usize,
    rng: SmallRng,
    pass: u32,
    cursor: u32,
    buf: OpBuf,
}

impl BufferedIoStream {
    fn my_slice(&self) -> (Vpn, Vpn) {
        let per = self.cfg.file_pages / self.cfg.threads as u32;
        let lo = self.thread as u32 * per;
        let hi = if self.thread == self.cfg.threads - 1 {
            self.cfg.file_pages
        } else {
            lo + per
        };
        (lo, hi)
    }
}

impl AccessStream for BufferedIoStream {
    /// One batch is one step: a streamed cold page, its hot re-reads and
    /// one anonymous touch.
    fn refill(&mut self) -> bool {
        loop {
            let (lo, hi) = self.my_slice();
            if self.pass >= self.cfg.passes {
                return false;
            }
            // Each pass streams a *different* segment of this thread's
            // slice (read-once data, like a log scan): the cold stream
            // never refaults, so tier 0's refault rate stays near zero and
            // the controller's signal is the hot subset's refaults.
            let seg_len = ((hi - lo) / self.cfg.passes).max(1);
            let seg_lo = lo + self.pass * seg_len;
            let vpn = seg_lo + self.cursor;
            if vpn >= (seg_lo + seg_len).min(hi) {
                self.pass += 1;
                self.cursor = 0;
                continue;
            }
            self.cursor += 1;
            // Stream one cold file page...
            self.buf.push(Op::FdAccess {
                space: AsId(0),
                vpn,
                write: false,
                cpu_ns: self.cfg.cpu_per_touch_ns,
            });
            // ...re-read hot file pages...
            for _ in 0..self.cfg.hot_rereads_per_page {
                let hot = self.rng.random_range(0..self.cfg.hot_pages);
                self.buf.push(Op::FdAccess {
                    space: AsId(0),
                    vpn: hot,
                    write: false,
                    cpu_ns: self.cfg.cpu_per_touch_ns,
                });
            }
            // ...and touch the anonymous working set.
            let anon = self.cfg.file_pages + self.rng.random_range(0..self.cfg.anon_pages);
            self.buf.push(Op::Access {
                space: AsId(0),
                vpn: anon,
                write: self.rng.random_bool(0.3),
                cpu_ns: self.cfg.cpu_per_touch_ns,
            });
            return true;
        }
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
            match stream.next_op() {
                Op::Done => break,
                op => ops.push(op),
            }
        }
        ops
    }

    #[test]
    fn file_region_uses_fd_accesses_only() {
        let cfg = BufferedIoConfig::tiny();
        let w = BufferedIoWorkload::new(cfg);
        for op in drain(w.streams(1)[0].as_mut()) {
            match op {
                Op::FdAccess { vpn, .. } => assert!(vpn < cfg.file_pages),
                Op::Access { vpn, .. } => assert!(vpn >= cfg.file_pages),
                _ => {}
            }
        }
    }

    #[test]
    fn hot_pages_rereads_dominate_their_range() {
        let cfg = BufferedIoConfig::tiny();
        let w = BufferedIoWorkload::new(cfg);
        let mut hot = 0u32;
        let mut cold = 0u32;
        for op in drain(w.streams(2)[0].as_mut()) {
            if let Op::FdAccess { vpn, .. } = op {
                if vpn < cfg.hot_pages {
                    hot += 1;
                } else {
                    cold += 1;
                }
            }
        }
        // Each streamed page brings one hot re-read; hot range is 10% of
        // the file, so hot touches outnumber per-page cold coverage.
        assert!(hot > cold / 2, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn passes_cover_whole_slice() {
        let cfg = BufferedIoConfig::tiny();
        let w = BufferedIoWorkload::new(cfg);
        let ops = drain(w.streams(3)[0].as_mut());
        let streamed: std::collections::BTreeSet<Vpn> = ops
            .iter()
            .filter_map(|o| match o {
                Op::FdAccess { vpn, .. } if *vpn >= cfg.hot_pages => Some(*vpn),
                _ => None,
            })
            .collect();
        // Thread 0's slice is 0..150; its cold part (>= hot_pages) must be
        // fully covered.
        assert!(streamed.len() as u32 >= 150 - cfg.hot_pages);
    }

    #[test]
    fn annotations_mark_file_region() {
        let w = BufferedIoWorkload::new(BufferedIoConfig::tiny());
        let spec = &w.spaces()[0];
        assert!(spec.annotations[0].file_backed);
        assert!(!spec.annotations[1].file_backed);
    }
}
