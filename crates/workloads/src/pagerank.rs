//! GAP-style PageRank.
//!
//! PageRank over a scale-free graph is the paper's irregular workload: the
//! work a thread does per vertex is proportional to the vertex's degree,
//! vertices are handed out in dynamically scheduled chunks (GAP uses
//! OpenMP `dynamic`), and every iteration ends in a barrier. A handful of
//! hub vertices dominate iteration time, so overall runtime is governed by
//! *which* pages fault on the hub's critical path rather than by the total
//! fault count — the paper's explanation for why PageRank's runtime is
//! uncorrelated with faults (Fig. 2b/5b) and highly sensitive to
//! replacement-decision quality.
//!
//! Memory layout (one address space, CSR-like):
//!
//! ```text
//! [ offsets | edges | rank_a | rank_b ]
//! ```
//!
//! The edges array is streamed sequentially once per iteration (large,
//! evict-friendly); the rank arrays are accessed randomly with hub skew
//! (small, hot) — the tension a replacement policy must resolve.
//!
//! ## Rank pages without a `powf` per edge group
//!
//! Each edge group touches the rank page of one neighbor, the group's
//! representative edge `(v, i)`: `neighbor(v, i) · 8 / PAGE_SIZE`. That page
//! is a pure function of the graph seed, `v` and `i`, so
//! [`PageRankWorkload::edge_pages`] resolves it once per edge and workload
//! into a flat `u16` table indexed by the edge's CSR offset. A stream reads
//! `edge_pages[offset(v) + i]`: one load, and the groups of one vertex lie
//! `2 · edge_group` bytes apart, so a vertex walks its entries forward. The
//! first [`Workload::streams`] call builds the table; every trial and
//! stream then shares it.
//!
//! The build evaluates one neighbor page per edge, so it must not pay a
//! `powf` for each. Edge `(v, i)` hashes to a 53-bit draw `m`
//! ([`PowerLawGraph::neighbor_draw`]), and its page
//! `neighbor_of_draw(m) · 8 / PAGE_SIZE` is a monotone step function of
//! `m`: a multiply, a truncation and a division, each monotone, after a
//! `powf` warp that is monotone up to its sub-ULP rounding error. So it is
//! fixed by its thresholds `T_k`, the least draw whose page is `>= k`, one
//! per rank page. [`RankPageTable::new`] finds each `T_k`. It starts from
//! the analytic inverse of the warp, `(k · 512 / V)^(1 − skew) · 2^53`, and
//! then gallops and bisects against `neighbor_of_draw` itself. The search
//! evaluates the definition and makes no approximation, so every threshold
//! is exact, and so is the table: `page(m) = k` exactly when
//! `T_k <= m < T_{k+1}`. A lookup indexes a bucket array by the top bits of
//! `m`. There are at least four buckets per rank page, so it then steps
//! over at most a threshold or two. Rounding can only matter within a few
//! draws of a page boundary, that is, of a threshold, and
//! `tests/rank_pages.rs` checks the threshold table against the definition
//! on every draw within 64 of every threshold, and the edge table on every
//! edge, at every scale the figures use. The threshold table lives only
//! while the edge table is built.
//!
//! Entries are `u16`, so a workload has at most 2^16 rank pages, that is,
//! 2^25 vertices: exactly the paper-native graph.
//! [`PageRankWorkload::new`] rejects a larger one.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use pagesim_engine::rng::derive_seed;
use pagesim_mem::{AsId, EntropyClass, Vpn, PAGE_SIZE};

use crate::graph::{least_draw, PowerLawGraph, DRAWS};
use crate::{AccessStream, Annotation, Op, OpBuf, SpaceSpec, Workload};

/// Configuration of the PageRank model.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Worker threads (the paper uses 12).
    pub threads: usize,
    /// Graph vertices.
    pub vertices: u32,
    /// Target edge count (drives the edges-region footprint).
    pub edges: u64,
    /// Degree/neighbor skew in `(0, 1)`.
    pub skew: f64,
    /// PageRank iterations.
    pub iterations: u32,
    /// Vertices per dynamically scheduled chunk (GAP uses 64).
    pub chunk: u32,
    /// Edges summarized per rank-array touch (simulation batching; the
    /// touched-page distribution is unchanged).
    pub edge_group: u32,
    /// Compute per edge, nanoseconds.
    pub cpu_per_edge_ns: u32,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            threads: 12,
            vertices: 1 << 19,
            edges: 5_200_000,
            skew: 0.6,
            iterations: 6,
            chunk: 64,
            edge_group: 16,
            cpu_per_edge_ns: 14_500,
        }
    }
}

impl PageRankConfig {
    /// A reduced configuration for fast tests.
    pub fn tiny() -> Self {
        PageRankConfig {
            threads: 4,
            vertices: 2_000,
            edges: 40_000,
            skew: 0.6,
            iterations: 2,
            chunk: 16,
            edge_group: 8,
            cpu_per_edge_ns: 4,
        }
    }

    /// Scales the graph by `factor` (footprint knob).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.vertices = ((self.vertices as f64 * factor) as u32).max(256);
        self.edges = ((self.edges as f64 * factor) as u64).max(1_000);
        self
    }
}

/// Ranks (8-byte `f64`s) per page of a rank array.
const RANKS_PER_PAGE: u32 = (PAGE_SIZE / 8) as u32;

/// Rank pages an edge-table entry can name: `u16` entries.
const MAX_RANK_PAGES: u64 = 1 << 16;

/// The rank-array page each neighbor draw lands on, as a table lookup: the
/// builder of [`PageRankWorkload::edge_pages`].
///
/// `page(m)` equals `graph.neighbor_of_draw(m) / RANKS_PER_PAGE` for every
/// draw `m` (see the module docs for why the table is exact).
#[derive(Clone, Debug)]
pub struct RankPageTable {
    /// `thresholds[k]` is the least draw whose page is `>= k`, for
    /// `k in 0..pages`; `thresholds[pages]` is a `u64::MAX` sentinel.
    thresholds: Vec<u64>,
    /// `buckets[b]` is the page of draw `b << shift`, the first draw of
    /// bucket `b`.
    buckets: Vec<u32>,
    shift: u32,
}

impl RankPageTable {
    /// Builds the table of `graph`'s rank pages.
    pub fn new(graph: &PowerLawGraph) -> Self {
        let pages = graph.vertices().div_ceil(RANKS_PER_PAGE);
        let page_of = |m: u64| graph.neighbor_of_draw(m) / RANKS_PER_PAGE;
        let mut thresholds = Vec::with_capacity(pages as usize + 1);
        thresholds.push(0);
        for k in 1..pages {
            // Inverse of the warp: draw m reaches vertex n at about
            // (n / V)^(1 - skew) · DRAWS. Start there, then search exactly.
            let frac = (k * RANKS_PER_PAGE) as f64 / graph.vertices() as f64;
            let guess = (frac.powf(1.0 - graph.skew()) * DRAWS as f64) as u64;
            thresholds.push(least_draw(0, guess, |m| page_of(m) >= k));
        }
        thresholds.push(u64::MAX);
        let nbuckets = (4 * pages as usize).next_power_of_two();
        let shift = DRAWS.trailing_zeros() - nbuckets.trailing_zeros();
        let buckets = (0..nbuckets as u64)
            .map(|b| (thresholds.partition_point(|&t| t <= b << shift) - 1) as u32)
            .collect();
        RankPageTable {
            thresholds,
            buckets,
            shift,
        }
    }

    /// The rank page of draw `m` in `0..DRAWS`: start at the page of `m`'s
    /// bucket, then step over the thresholds at or below `m` (rarely more
    /// than one, since there are at least four buckets per page).
    pub fn page(&self, m: u64) -> u32 {
        debug_assert!(m < DRAWS);
        let mut p = self.buckets[(m >> self.shift) as usize] as usize;
        // The first step is branch-free: a bucket rarely spans more than
        // one threshold, so the loop below almost never runs.
        p += (m >= self.thresholds[p + 1]) as usize;
        while m >= self.thresholds[p + 1] {
            p += 1;
        }
        p as u32
    }

    /// The least draw of each page after the first: entry `k - 1` is the
    /// least `m` with `page(m) >= k`.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds[1..self.thresholds.len() - 1]
    }
}

/// The PageRank workload (see module docs).
#[derive(Clone, Debug)]
pub struct PageRankWorkload {
    cfg: PageRankConfig,
    graph: Arc<PowerLawGraph>,
    /// The rank page of every edge, built by the first
    /// [`Workload::streams`] call and shared by every clone.
    edge_pages: Arc<OnceLock<Arc<[u16]>>>,
    offsets_pages: u32,
    edges_pages: u32,
    rank_pages: u32,
}

impl PageRankWorkload {
    /// Builds the graph (deterministic in `graph_seed`) and the workload.
    ///
    /// The paper regenerates nothing between trials — the same input graph
    /// is used for all 25 executions — so the graph seed is separate from
    /// the per-trial stream seed.
    ///
    /// # Panics
    ///
    /// Panics if the rank array spans more than 2^16 pages (2^25
    /// vertices), the most a `u16` edge-table entry can name.
    pub fn new(cfg: PageRankConfig, graph_seed: u64) -> Self {
        assert!(cfg.threads > 0 && cfg.iterations > 0);
        assert!(cfg.chunk > 0 && cfg.edge_group > 0);
        let rank_pages = (cfg.vertices as u64 * 8).div_ceil(PAGE_SIZE as u64);
        assert!(
            rank_pages <= MAX_RANK_PAGES,
            "{} vertices need {rank_pages} rank pages; u16 edge-table entries name at most 2^16",
            cfg.vertices
        );
        let graph = PowerLawGraph::new(cfg.vertices, cfg.edges, cfg.skew, graph_seed);
        let offsets_pages = ((cfg.vertices as u64 + 1) * 8).div_ceil(PAGE_SIZE as u64) as u32;
        let edges_pages = (graph.edges() * 4).div_ceil(PAGE_SIZE as u64) as u32;
        PageRankWorkload {
            cfg,
            graph: Arc::new(graph),
            edge_pages: Arc::default(),
            offsets_pages,
            edges_pages,
            rank_pages: rank_pages as u32,
        }
    }

    /// The generated graph.
    pub fn graph(&self) -> &PowerLawGraph {
        &self.graph
    }

    /// The edge table, built on first use: entry `offset(v) + i` is the
    /// rank page of edge `(v, i)`'s neighbor,
    /// `graph.neighbor(v, i) · 8 / PAGE_SIZE`.
    pub fn edge_pages(&self) -> &Arc<[u16]> {
        self.edge_pages.get_or_init(|| {
            let graph = &*self.graph;
            let ranks = RankPageTable::new(graph);
            // A `Range` mapped is `TrustedLen`, so this collects straight
            // into the `Arc`'s one allocation.
            let mut v = 0;
            (0..graph.edges())
                .map(|e| {
                    while graph.edge_offset(v + 1) <= e {
                        v += 1;
                    }
                    let i = (e - graph.edge_offset(v)) as u32;
                    ranks.page(graph.neighbor_draw(v, i)) as u16
                })
                .collect()
        })
    }

    fn layout(&self) -> Layout {
        Layout {
            offsets_base: 0,
            edges_base: self.offsets_pages,
            rank_a_base: self.offsets_pages + self.edges_pages,
            rank_b_base: self.offsets_pages + self.edges_pages + self.rank_pages,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Layout {
    offsets_base: Vpn,
    edges_base: Vpn,
    rank_a_base: Vpn,
    rank_b_base: Vpn,
}

impl Workload for PageRankWorkload {
    fn name(&self) -> String {
        "pagerank".to_owned()
    }

    fn spaces(&self) -> Vec<SpaceSpec> {
        let l = self.layout();
        let total = self.offsets_pages + self.edges_pages + 2 * self.rank_pages;
        vec![SpaceSpec {
            pages: total,
            annotations: vec![
                Annotation {
                    start: l.offsets_base,
                    count: self.offsets_pages,
                    entropy: EntropyClass::Structured,
                    file_backed: false,
                },
                Annotation {
                    start: l.edges_base,
                    count: self.edges_pages,
                    entropy: EntropyClass::Structured,
                    file_backed: false,
                },
                Annotation {
                    start: l.rank_a_base,
                    count: 2 * self.rank_pages,
                    entropy: EntropyClass::Random,
                    file_backed: false,
                },
            ],
        }]
    }

    fn barriers(&self) -> Vec<usize> {
        vec![self.cfg.threads]
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn AccessStream>> {
        let nchunks = self.cfg.vertices.div_ceil(self.cfg.chunk);
        let counters: Arc<Vec<AtomicU32>> = Arc::new(
            (0..self.cfg.iterations)
                .map(|_| AtomicU32::new(0))
                .collect(),
        );
        (0..self.cfg.threads)
            .map(|t| {
                Box::new(PageRankStream {
                    cfg: self.cfg,
                    layout: self.layout(),
                    graph: Arc::clone(&self.graph),
                    edge_pages: Arc::clone(self.edge_pages()),
                    counters: Arc::clone(&counters),
                    nchunks,
                    nbr_salt: derive_seed(seed, &format!("pr-nbr-{t}")),
                    iteration: 0,
                    buf: OpBuf::default(),
                }) as Box<dyn AccessStream>
            })
            .collect()
    }
}

/// One worker thread: grabs vertex chunks from the shared per-iteration
/// counter (dynamic scheduling), emits the page touches of each vertex.
struct PageRankStream {
    cfg: PageRankConfig,
    layout: Layout,
    graph: Arc<PowerLawGraph>,
    edge_pages: Arc<[u16]>,
    counters: Arc<Vec<AtomicU32>>,
    nchunks: u32,
    /// Per-trial salt: decides which neighbor represents each edge group,
    /// modeling run-to-run variation in the sampled access interleaving.
    nbr_salt: u64,
    iteration: u32,
    buf: OpBuf,
}

impl PageRankStream {
    fn rank_bases(&self) -> (Vpn, Vpn) {
        // Even iterations read A and write B; odd iterations swap.
        if self.iteration.is_multiple_of(2) {
            (self.layout.rank_a_base, self.layout.rank_b_base)
        } else {
            (self.layout.rank_b_base, self.layout.rank_a_base)
        }
    }

    /// Emits the ops of one vertex chunk.
    fn fill_chunk(&mut self, chunk: u32) {
        let (src_base, dst_base) = self.rank_bases();
        let PageRankStream {
            cfg,
            layout,
            graph,
            edge_pages,
            nbr_salt,
            buf,
            ..
        } = self;
        let mut push = |vpn, write, cpu_ns| {
            buf.push(Op::Access {
                space: AsId(0),
                vpn,
                write,
                cpu_ns,
            })
        };
        let v_lo = chunk * cfg.chunk;
        let v_hi = (v_lo + cfg.chunk).min(cfg.vertices);
        let group = cfg.edge_group;
        let cpu_group = cfg.cpu_per_edge_ns * group;
        let mut last_edge_page = u32::MAX;
        for v in v_lo..v_hi {
            // offsets[v]: one touch per offsets page actually crossed.
            let off_vpn = layout.offsets_base + (v as u64 * 8 / PAGE_SIZE as u64) as u32;
            if v == v_lo || (v as u64 * 8).is_multiple_of(PAGE_SIZE as u64) {
                push(off_vpn, false, 8);
            }
            let deg = graph.degree(v);
            let first = graph.edge_offset(v);
            // Stream the CSR edge pages for this vertex.
            let e_pg_lo = (first * 4 / PAGE_SIZE as u64) as u32;
            let e_pg_hi = ((first + deg as u64) * 4 / PAGE_SIZE as u64) as u32;
            for pg in e_pg_lo..=e_pg_hi {
                if pg != last_edge_page {
                    push(layout.edges_base + pg, false, 16);
                    last_edge_page = pg;
                }
            }
            // Gather neighbor ranks: one representative touch per edge
            // group, destination skewed toward hubs.
            let pages = &edge_pages[first as usize..(first + deg as u64) as usize];
            let groups = deg.div_ceil(group);
            for gidx in 0..groups {
                let rep_edge = (gidx * group
                    + (pagesim_engine::rng::splitmix64(
                        *nbr_salt ^ ((v as u64) << 24) ^ gidx as u64,
                    ) % group as u64) as u32)
                    .min(deg - 1);
                push(src_base + pages[rep_edge as usize] as u32, false, cpu_group);
            }
            // Write the new rank.
            let dst = dst_base + (v as u64 * 8 / PAGE_SIZE as u64) as u32;
            push(dst, true, 8);
        }
    }
}

impl AccessStream for PageRankStream {
    /// One batch is one vertex chunk, or the barrier that ends an
    /// iteration once its chunks run out.
    fn refill(&mut self) -> bool {
        if self.iteration >= self.cfg.iterations {
            return false;
        }
        // Grab the next chunk of this iteration (dynamic scheduling).
        let chunk = self.counters[self.iteration as usize].fetch_add(1, Ordering::Relaxed);
        if chunk >= self.nchunks {
            // Iteration exhausted: converge at the barrier.
            self.iteration += 1;
            self.buf.push(Op::Barrier { id: 0 });
        } else {
            self.fill_chunk(chunk);
        }
        true
    }

    fn buf(&mut self) -> &mut OpBuf {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &PageRankWorkload, seed: u64) -> Vec<Vec<Op>> {
        // Streams share chunk counters: interleave round-robin like the
        // simulator would.
        let mut streams = w.streams(seed);
        let mut out = vec![Vec::new(); streams.len()];
        let mut live: Vec<usize> = (0..streams.len()).collect();
        while !live.is_empty() {
            live.retain(|&i| {
                let op = streams[i].next_op();
                if op == Op::Done {
                    false
                } else {
                    out[i].push(op);
                    true
                }
            });
        }
        out
    }

    /// Drains with round-robin interleaving, preserving global time order.
    fn drain_merged(w: &PageRankWorkload, seed: u64) -> Vec<Op> {
        let mut streams = w.streams(seed);
        let mut merged = Vec::new();
        let mut live: Vec<usize> = (0..streams.len()).collect();
        while !live.is_empty() {
            live.retain(|&i| {
                let op = streams[i].next_op();
                if op == Op::Done {
                    false
                } else {
                    merged.push(op);
                    true
                }
            });
        }
        merged
    }

    #[test]
    fn barriers_once_per_iteration_per_thread() {
        let w = PageRankWorkload::new(PageRankConfig::tiny(), 1);
        let ops = drain_all(&w, 2);
        for thread_ops in &ops {
            let barriers = thread_ops
                .iter()
                .filter(|o| matches!(o, Op::Barrier { .. }))
                .count();
            assert_eq!(barriers, 2, "one barrier per iteration");
        }
    }

    #[test]
    fn every_chunk_processed_exactly_once() {
        let cfg = PageRankConfig::tiny();
        let w = PageRankWorkload::new(cfg, 1);
        let ops = drain_all(&w, 3);
        // Count rank writes across all threads: one per vertex per iter.
        let writes: usize = ops
            .iter()
            .flatten()
            .filter(|o| matches!(o, Op::Access { write: true, .. }))
            .count();
        assert_eq!(
            writes as u32,
            cfg.vertices * cfg.iterations,
            "each vertex written once per iteration"
        );
    }

    #[test]
    fn touches_stay_in_bounds() {
        let w = PageRankWorkload::new(PageRankConfig::tiny(), 1);
        let total = w.footprint_pages();
        for thread_ops in drain_all(&w, 4) {
            for op in thread_ops {
                if let Op::Access { vpn, .. } = op {
                    assert!(vpn < total);
                }
            }
        }
    }

    #[test]
    fn rank_reads_skew_to_hub_pages() {
        let w = PageRankWorkload::new(PageRankConfig::tiny(), 1);
        let l = w.layout();
        let rank_pages = w.rank_pages;
        let mut touches = vec![0u32; rank_pages as usize];
        for thread_ops in drain_all(&w, 5) {
            for op in thread_ops {
                if let Op::Access {
                    vpn, write: false, ..
                } = op
                {
                    if vpn >= l.rank_a_base && vpn < l.rank_a_base + rank_pages {
                        touches[(vpn - l.rank_a_base) as usize] += 1;
                    }
                }
            }
        }
        let first = touches[0];
        let last = touches[rank_pages as usize - 1];
        assert!(
            first > 3 * last.max(1),
            "hub page {first} vs cold page {last}"
        );
    }

    #[test]
    fn chunk_work_is_heavy_tailed() {
        // Degree skew means the hub's chunk carries far more work than a
        // typical chunk — the straggler mechanism. (Dynamic scheduling
        // equalizes per-thread op volume, so measure per-chunk work.)
        let w = PageRankWorkload::new(PageRankConfig::tiny(), 1);
        let g = w.graph();
        let cfg = PageRankConfig::tiny();
        let nchunks = cfg.vertices.div_ceil(cfg.chunk);
        let chunk_edges = |c: u32| -> u64 {
            let lo = c * cfg.chunk;
            let hi = (lo + cfg.chunk).min(cfg.vertices);
            (lo..hi).map(|v| g.degree(v) as u64).sum()
        };
        let hub = chunk_edges(0);
        let mut all: Vec<u64> = (0..nchunks).map(chunk_edges).collect();
        all.sort_unstable();
        let median = all[all.len() / 2];
        assert!(hub > 5 * median, "hub chunk {hub} vs median chunk {median}");
    }

    #[test]
    fn iteration_parity_alternates_rank_arrays() {
        let cfg = PageRankConfig::tiny();
        let w = PageRankWorkload::new(cfg, 1);
        let l = w.layout();
        // Use the time-ordered merge so iteration 0 precedes iteration 1.
        let merged = drain_merged(&w, 7);
        let writes: Vec<Vpn> = merged
            .iter()
            .filter_map(|o| match o {
                Op::Access {
                    vpn, write: true, ..
                } => Some(*vpn),
                _ => None,
            })
            .collect();
        let half = writes.len() / 2;
        let first_half_b = writes[..half]
            .iter()
            .filter(|&&v| v >= l.rank_b_base)
            .count();
        let second_half_b = writes[half..]
            .iter()
            .filter(|&&v| v >= l.rank_b_base)
            .count();
        assert!(
            first_half_b > second_half_b,
            "iteration 0 writes B, 1 writes A"
        );
    }

    #[test]
    fn graph_is_shared_across_trials_but_salt_differs() {
        let w = PageRankWorkload::new(PageRankConfig::tiny(), 9);
        let a: usize = drain_all(&w, 1).iter().map(Vec::len).sum();
        let b: usize = drain_all(&w, 2).iter().map(Vec::len).sum();
        // Same graph => same op volume; different salt => different
        // neighbor sampling (checked via sequence inequality elsewhere).
        assert_eq!(a, b);
    }
}
