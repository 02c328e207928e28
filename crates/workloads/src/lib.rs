//! # pagesim-workloads
//!
//! The memory-intensive workloads of the paper's methodology (§IV),
//! rebuilt as deterministic page-access generators:
//!
//! * [`tpch::TpchWorkload`] — Spark-SQL-style TPC-H: highly parallel
//!   stages of balanced tasks (scan → hash-join probe → shuffle write)
//!   separated by barriers. Regular access patterns; runtime is
//!   fault-dominated under pressure, giving the paper's linear
//!   faults↔runtime relationship.
//! * [`pagerank::PageRankWorkload`] — GAP-style PageRank over a synthetic
//!   power-law graph: per-vertex work proportional to degree, dynamic
//!   chunk scheduling, a barrier per iteration. A few high-degree
//!   stragglers decide iteration time, decoupling runtime from the total
//!   fault count.
//! * [`ycsb::YcsbWorkload`] — YCSB A/B/C over the
//!   [`pagesim-kv`](pagesim_kv) store: scrambled-zipfian item popularity,
//!   50/5/0 % update mixes, per-request latency markers for tail CDFs.
//! * [`buffered::BufferedIoWorkload`] — a buffered-I/O reader that
//!   exercises MG-LRU's file tiers and PID controller (the machinery the
//!   paper describes in §III-D but leaves unstressed).
//!
//! A workload describes its address spaces ([`SpaceSpec`]) and yields one
//! [`AccessStream`] per simulated thread; the kernel executes the streams'
//! [`Op`]s, a batch at a time. All randomness derives from the trial seed.

pub mod buffered;
pub mod graph;
pub mod pagerank;
pub mod tpch;
pub mod ycsb;
pub mod zipf;

use pagesim_mem::{AsId, EntropyClass, Vpn};

/// Latency class of a request (YCSB reports read and write tails
/// separately).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqClass {
    /// GET-style request.
    Read,
    /// UPDATE-style request.
    Write,
}

/// One instruction from a workload thread to the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Spend `cpu_ns` of compute, then touch a page through the MMU
    /// (sets the PTE accessed bit; faults if not resident).
    Access {
        /// Address space.
        space: AsId,
        /// Page touched.
        vpn: Vpn,
        /// Store (sets the dirty bit) vs. load.
        write: bool,
        /// Compute preceding the touch.
        cpu_ns: u32,
    },
    /// Touch a file-backed page through a file descriptor: the kernel
    /// routes it to the page cache, so the PTE accessed bit is *not* set;
    /// MG-LRU sees it only as a tier bump.
    FdAccess {
        /// Address space.
        space: AsId,
        /// Page touched.
        vpn: Vpn,
        /// Whether the access dirties the page.
        write: bool,
        /// Compute preceding the touch.
        cpu_ns: u32,
    },
    /// Pure compute.
    Compute {
        /// Nanoseconds of CPU work.
        cpu_ns: u64,
    },
    /// Arrive at workload barrier `id` (block until all parties arrive).
    Barrier {
        /// Barrier index into [`Workload::barriers`].
        id: usize,
    },
    /// Begin a latency-tracked request.
    RequestStart {
        /// Read or write tail bucket.
        class: ReqClass,
        /// Requests issued during warmup are excluded from tail stats.
        warmup: bool,
    },
    /// Complete the current request (latency = now − start).
    RequestEnd,
    /// The thread is finished.
    Done,
}

/// A contiguous attribute annotation within a space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Annotation {
    /// First page of the range.
    pub start: Vpn,
    /// Pages in the range.
    pub count: u32,
    /// Content class (drives ZRAM compression).
    pub entropy: EntropyClass,
    /// Whether accesses to this range are file-backed.
    pub file_backed: bool,
}

/// Description of one address space a workload needs.
#[derive(Clone, Debug)]
pub struct SpaceSpec {
    /// Total pages.
    pub pages: u32,
    /// Attribute annotations (non-overlapping).
    pub annotations: Vec<Annotation>,
}

/// A deterministic generator of [`Op`]s for one simulated thread.
///
/// A stream generates its ops in *batches*: one PageRank vertex chunk or
/// barrier, one TPC-H stage, a block of up to 64 YCSB requests, one
/// buffered-I/O step.
/// [`refill`](AccessStream::refill) is its one generation routine; it
/// writes the next batch into the stream's [`OpBuf`]. The two drains are
/// provided on top of it:
///
/// * [`next_op`](AccessStream::next_op) hands out one op at a time;
/// * [`next_batch`](AccessStream::next_batch) hands over the whole
///   undrained batch at once, by swapping `Vec`s, so a caller that drains
///   batch after batch neither copies nor allocates in steady state.
///
/// Both drains generate a batch only when the previous one is spent, and
/// both yield the same ops in the same order. The timing matters:
/// streams of one workload may share generator state (PageRank's threads
/// take vertex chunks from shared per-iteration counters), so the op
/// sequences depend on the order in which the streams refill. Because a
/// refill happens exactly when a per-op caller would have asked for the
/// first op of the next batch, a caller that asks for a new batch only
/// once it has executed every op of the last one sees the shared state
/// read in the same order as a per-op caller, and the same ops.
///
/// So how much one batch may hold depends on what its stream shares. A
/// PageRank batch is one chunk: taking a second chunk ahead of time would
/// read the shared counters before the other threads' earlier claims,
/// and hand out different chunks. YCSB streams share only an immutable
/// request table, and each draws from its own generators, so generating
/// 64 requests at once yields the ops of 64 single requests, whenever
/// it happens.
pub trait AccessStream {
    /// Writes the stream's next batch, at least one op, into
    /// [`buf`](AccessStream::buf), and returns `true`; returns `false`,
    /// writing nothing, once the stream is done (and on every later call).
    /// Called only when the buffer is drained.
    fn refill(&mut self) -> bool;

    /// The buffer [`refill`](AccessStream::refill) writes into.
    fn buf(&mut self) -> &mut OpBuf;

    /// The next operation. After returning [`Op::Done`] it keeps
    /// returning `Done`.
    fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.buf().pop() {
                return op;
            }
            if !self.refill() {
                return Op::Done;
            }
        }
    }

    /// Replaces the contents of `out` with every op of the current batch
    /// not yet handed out, generating the next batch first if none are
    /// left. Once the stream is done, `out` holds just [`Op::Done`].
    fn next_batch(&mut self, out: &mut Vec<Op>) {
        while !self.buf().take_into(out) {
            if !self.refill() {
                out.push(Op::Done);
                return;
            }
        }
    }
}

/// The ops a stream has generated but not yet handed out: a `Vec` plus a
/// read cursor. A stream refills it only once it is drained, and draining
/// clears it, so its capacity is reused from one batch to the next.
#[derive(Debug, Default)]
pub struct OpBuf {
    ops: Vec<Op>,
    next: usize,
}

impl OpBuf {
    /// Appends an op to the batch.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends ops to the batch.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = Op>) {
        self.ops.extend(ops);
    }

    /// The next buffered op, or `None` (leaving the buffer empty) once
    /// every op has been handed out.
    fn pop(&mut self) -> Option<Op> {
        let op = self.ops.get(self.next).copied();
        match op {
            Some(_) => self.next += 1,
            None => {
                self.ops.clear();
                self.next = 0;
            }
        }
        op
    }

    /// Moves every op not yet handed out into `out`, replacing its
    /// contents, and leaves the buffer empty; returns whether any op moved.
    /// An undrained batch trades storage with `out` instead of being
    /// copied, so the buffer keeps `out`'s old capacity for its next batch.
    /// A drained buffer trades nothing: `out` keeps its capacity, so the
    /// [`Op::Done`] pushed at the end of the stream does not allocate.
    fn take_into(&mut self, out: &mut Vec<Op>) -> bool {
        out.clear();
        if self.next == self.ops.len() {
            self.ops.clear();
            self.next = 0;
            return false;
        }
        if self.next == 0 {
            std::mem::swap(&mut self.ops, out);
        } else {
            out.extend_from_slice(&self.ops[self.next..]);
            self.ops.clear();
            self.next = 0;
        }
        true
    }
}

/// A workload: address-space layout plus one stream per thread.
pub trait Workload {
    /// Short name for reports ("tpch", "pagerank", "ycsb-a", ...).
    fn name(&self) -> String;

    /// Address spaces to create (index = `AsId`).
    fn spaces(&self) -> Vec<SpaceSpec>;

    /// Barrier party counts; stream `Op::Barrier { id }` indexes this.
    fn barriers(&self) -> Vec<usize>;

    /// One access stream per simulated thread, randomized by `seed`.
    fn streams(&self, seed: u64) -> Vec<Box<dyn AccessStream>>;

    /// Total footprint in pages (for capacity-ratio configuration).
    fn footprint_pages(&self) -> u32 {
        self.spaces().iter().map(|s| s.pages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `batches` batches of three barrier ops.
    struct Barriers {
        batches: u32,
        buf: OpBuf,
    }

    impl AccessStream for Barriers {
        fn refill(&mut self) -> bool {
            if self.batches == 0 {
                return false;
            }
            self.batches -= 1;
            for id in 0..3 {
                self.buf.push(Op::Barrier { id });
            }
            true
        }

        fn buf(&mut self) -> &mut OpBuf {
            &mut self.buf
        }
    }

    #[test]
    fn next_batch_hands_over_what_next_op_left() {
        let barriers = |ids: &[usize]| ids.iter().map(|&id| Op::Barrier { id }).collect::<Vec<_>>();
        let mut s = Barriers {
            batches: 2,
            buf: OpBuf::default(),
        };
        let mut out = vec![Op::RequestEnd];
        assert_eq!(s.next_op(), Op::Barrier { id: 0 });
        s.next_batch(&mut out);
        assert_eq!(out, barriers(&[1, 2]));
        s.next_batch(&mut out);
        assert_eq!(out, barriers(&[0, 1, 2]));
        s.next_batch(&mut out);
        assert_eq!(out, [Op::Done]);
        s.next_batch(&mut out);
        assert_eq!(out, [Op::Done]);
        assert_eq!(s.next_op(), Op::Done);
    }

    #[test]
    fn ops_are_small() {
        // The simulator moves millions of these; keep them register-sized.
        assert!(std::mem::size_of::<Op>() <= 24);
    }
}
