//! YCSB A/B/C over the memcached-like KV store.
//!
//! The paper serves YCSB core workloads from Memcached (4 server threads)
//! and reports read/write tail latencies. We model the measurement loop
//! the same way YCSB's default closed-loop clients drive it: each server
//! thread continuously serves requests — zipfian-popular items, an
//! update share of 50 % (A), 5 % (B) or 0 % (C) — and the simulator
//! timestamps [`Op::RequestStart`]/[`Op::RequestEnd`] pairs to build the
//! latency CDFs. Under memory pressure a request's latency is dominated by
//! the page faults its bucket/item touches incur, which is precisely the
//! tail mechanism §V-A/§V-D analyses.
//!
//! A stream writes its requests in blocks of up to 64 (one
//! [`AccessStream::refill`]): it draws the block's ranks, then looks up
//! their plans, then writes the requests in order, so the table lookups
//! of a block overlap instead of each waiting on the last. The ops are
//! those of one request at a time: the ranks and the update coins come
//! from two separate generators, so drawing every rank of a block first
//! changes neither sequence, and the streams share nothing mutable (the
//! [`RequestTable`] is immutable), so when a block is generated does not
//! matter. PageRank cannot do the same; see [`AccessStream`].

use std::sync::{Arc, OnceLock};

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};

use pagesim_engine::rng::derive_seed;
use pagesim_kv::{KvConfig, KvStore, Touch};
use pagesim_mem::{AsId, EntropyClass, Vpn};

use crate::zipf::{item_of_rank, ZipfianDist, ZipfianTable, YCSB_THETA};
use crate::{AccessStream, Annotation, Op, OpBuf, ReqClass, SpaceSpec, Workload};

/// Which YCSB core workload to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbMix {
    /// 50 % reads / 50 % updates.
    A,
    /// 95 % reads / 5 % updates.
    B,
    /// 100 % reads.
    C,
}

impl YcsbMix {
    /// Update fraction of the mix.
    pub fn update_fraction(self) -> f64 {
        match self {
            YcsbMix::A => 0.5,
            YcsbMix::B => 0.05,
            YcsbMix::C => 0.0,
        }
    }

    /// Workload letter.
    fn letter(self) -> char {
        match self {
            YcsbMix::A => 'a',
            YcsbMix::B => 'b',
            YcsbMix::C => 'c',
        }
    }
}

/// Configuration of the YCSB workload.
#[derive(Clone, Copy, Debug)]
pub struct YcsbConfig {
    /// Which mix (A/B/C).
    pub mix: YcsbMix,
    /// Server threads (memcached default: 4).
    pub threads: usize,
    /// Items loaded into the store.
    pub items: u32,
    /// Value size in bytes.
    pub value_size: u32,
    /// Requests to serve across all threads.
    pub requests: u64,
    /// Leading fraction of requests marked as warmup (excluded from tail
    /// statistics; plays the role of the paper's load phase).
    pub warmup_fraction: f64,
}

impl YcsbConfig {
    /// Paper-proportioned defaults for a given mix: ~10 requests per item.
    pub fn with_mix(mix: YcsbMix) -> Self {
        YcsbConfig {
            mix,
            threads: 4,
            items: 40_000,
            value_size: 1_200,
            requests: 400_000,
            warmup_fraction: 0.05,
        }
    }

    /// A reduced configuration for fast tests.
    pub fn tiny(mix: YcsbMix) -> Self {
        YcsbConfig {
            mix,
            threads: 2,
            items: 2_000,
            value_size: 1_200,
            requests: 4_000,
            warmup_fraction: 0.1,
        }
    }
}

/// Every request a YCSB stream can make, tabulated by zipfian rank.
///
/// A request draws a rank from [`ZipfianTable`] and replays that rank's
/// plan: the touches [`KvStore::plan_into`] gives for the rank's scrambled
/// item ([`item_of_rank`]). Plans are stored in rank order, so the hot
/// ranks' plans share a few cache lines. A GET and an UPDATE of an item
/// differ only in the `write` flag of the item's own pages, the last
/// [`RequestPlan::own_pages`] touches of its plan, so one plan serves
/// both.
#[derive(Debug)]
pub struct RequestTable {
    ranks: ZipfianTable,
    /// `plans[r]` locates rank `r`'s plan; `plans[n]` is a sentinel whose
    /// `start` ends the last plan.
    plans: Vec<PlanEntry>,
    /// Every plan's pages, back to back in rank order.
    pages: Vec<Vpn>,
    /// The trailing touches of every plan that are the item's own pages.
    own_pages: usize,
}

/// Where one rank's plan lives in [`RequestTable::pages`], and its CPU.
#[derive(Clone, Copy, Debug)]
struct PlanEntry {
    /// First page of the plan; the plan ends at the next entry's start.
    start: u32,
    /// The request's base CPU divided evenly over its touches.
    cpu_per_touch: u32,
}

/// One rank's request plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestPlan<'a> {
    /// The pages touched, in order.
    pub pages: &'a [Vpn],
    /// How many trailing pages are the item's own (written by an UPDATE).
    pub own_pages: usize,
    /// CPU charged before each touch, in nanoseconds.
    pub cpu_per_touch: u32,
}

impl RequestPlan<'_> {
    /// The plan's touches for a GET (`write == false`) or an UPDATE.
    pub fn touches(&self, write: bool) -> impl Iterator<Item = Touch> + '_ {
        let (shared, own) = self.pages.split_at(self.pages.len() - self.own_pages);
        let touch = |write| move |&vpn| Touch { vpn, write };
        shared
            .iter()
            .map(touch(false))
            .chain(own.iter().map(touch(write)))
    }
}

impl RequestTable {
    /// Tabulates the ranks of `zipf` and the plans of their items in
    /// `store`.
    pub fn new(store: &KvStore, zipf: &ZipfianDist) -> Self {
        let n = zipf.n();
        assert_eq!(n, store.items() as u64, "one rank per item");
        let mut touches = Vec::new();
        store.plan_into(item_of_rank(0, n) as u32, true, &mut touches);
        let own_pages = touches.iter().filter(|t| t.write).count();
        let mut plans = Vec::with_capacity(n as usize + 1);
        let mut pages = Vec::new();
        for rank in 0..n {
            let cpu_ns = store.plan_into(item_of_rank(rank, n) as u32, false, &mut touches);
            plans.push(PlanEntry {
                start: pages.len() as u32,
                cpu_per_touch: (cpu_ns / touches.len() as u64) as u32,
            });
            pages.extend(touches.iter().map(|t| t.vpn));
        }
        plans.push(PlanEntry {
            start: u32::try_from(pages.len()).expect("plan pages overflow u32"),
            cpu_per_touch: 0,
        });
        RequestTable {
            ranks: ZipfianTable::new(zipf),
            plans,
            pages,
            own_pages,
        }
    }

    /// The plan of the item at zipfian rank `rank`.
    pub fn plan(&self, rank: u32) -> RequestPlan<'_> {
        let [entry, next] = [self.plans[rank as usize], self.plans[rank as usize + 1]];
        RequestPlan {
            pages: &self.pages[entry.start as usize..next.start as usize],
            own_pages: self.own_pages,
            cpu_per_touch: entry.cpu_per_touch,
        }
    }
}

/// The YCSB workload (see module docs).
#[derive(Clone, Debug)]
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    store: Arc<KvStore>,
    /// Item popularity, computed once and shared by every stream.
    zipf: ZipfianDist,
    /// The request table, built by the first [`Workload::streams`] call
    /// and shared by every workload [`with_mix`](Self::with_mix) derives.
    requests: Arc<OnceLock<Arc<RequestTable>>>,
}

impl YcsbWorkload {
    /// Builds the store (deterministic in `store_seed`) and the workload.
    pub fn new(cfg: YcsbConfig, store_seed: u64) -> Self {
        assert!(cfg.threads > 0 && cfg.requests > 0);
        assert!((0.0..1.0).contains(&cfg.warmup_fraction));
        let store = KvStore::build(KvConfig {
            items: cfg.items,
            value_size: cfg.value_size,
            load_factor: 1.0,
            seed: store_seed,
        });
        YcsbWorkload {
            cfg,
            store: Arc::new(store),
            zipf: ZipfianDist::new(cfg.items as u64, YCSB_THETA),
            requests: Arc::default(),
        }
    }

    /// The same workload with another mix: it shares this one's store and
    /// request table.
    pub fn with_mix(&self, mix: YcsbMix) -> Self {
        YcsbWorkload {
            cfg: YcsbConfig { mix, ..self.cfg },
            ..self.clone()
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The request table, built on first use.
    pub fn requests(&self) -> &Arc<RequestTable> {
        self.requests
            .get_or_init(|| Arc::new(RequestTable::new(&self.store, &self.zipf)))
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> String {
        format!("ycsb-{}", self.cfg.mix.letter())
    }

    fn spaces(&self) -> Vec<SpaceSpec> {
        vec![SpaceSpec {
            pages: self.store.total_pages(),
            annotations: vec![
                Annotation {
                    start: 0,
                    count: self.store.bucket_pages(),
                    entropy: EntropyClass::Structured,
                    file_backed: false,
                },
                Annotation {
                    start: self.store.bucket_pages(),
                    count: self.store.total_pages() - self.store.bucket_pages(),
                    entropy: EntropyClass::Text,
                    file_backed: false,
                },
            ],
        }]
    }

    fn barriers(&self) -> Vec<usize> {
        Vec::new()
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn AccessStream>> {
        let per_thread = self.cfg.requests / self.cfg.threads as u64;
        // A request is warmup while `served < warmup_fraction · total`;
        // `served` is an integer, so that is `served < ceil(..)`.
        let warmup = (self.cfg.warmup_fraction * per_thread as f64).ceil() as u64;
        (0..self.cfg.threads)
            .map(|t| {
                let s = derive_seed(seed, &format!("ycsb-{t}"));
                Box::new(YcsbStream {
                    requests: Arc::clone(self.requests()),
                    update_fraction: self.cfg.mix.update_fraction(),
                    draws: SmallRng::seed_from_u64(s),
                    rng: SmallRng::seed_from_u64(s ^ 0xFACE),
                    remaining: per_thread,
                    total: per_thread,
                    warmup,
                    buf: OpBuf::default(),
                }) as Box<dyn AccessStream>
            })
            .collect()
    }
}

/// Requests one [`YcsbStream::refill`] writes, at most: fewer only at the
/// stream's end.
const BLOCK: usize = 64;

/// One server thread: a closed loop of zipfian requests.
struct YcsbStream {
    requests: Arc<RequestTable>,
    update_fraction: f64,
    /// The zipfian draws, one word per request: the RNG a
    /// [`ScrambledZipfian`](crate::zipf::ScrambledZipfian) seeded alike
    /// would draw from.
    draws: SmallRng,
    /// The update coins.
    rng: SmallRng,
    remaining: u64,
    total: u64,
    /// Requests served before this count are warmup.
    warmup: u64,
    buf: OpBuf,
}

impl AccessStream for YcsbStream {
    /// One batch is a block of up to [`BLOCK`] requests, each its start
    /// marker, its page touches and its end marker, built in the three
    /// passes the module docs describe.
    fn refill(&mut self) -> bool {
        let n = self.remaining.min(BLOCK as u64) as usize;
        if n == 0 {
            return false;
        }
        let served = self.total - self.remaining;
        self.remaining -= n as u64;
        let table = &*self.requests;

        let mut ranks = [0u32; BLOCK];
        for rank in &mut ranks[..n] {
            *rank = table.ranks.rank(self.draws.next_u64() >> 11);
        }
        let mut plans = [RequestPlan::default(); BLOCK];
        for (plan, &rank) in plans[..n].iter_mut().zip(&ranks[..n]) {
            *plan = table.plan(rank);
        }
        for (served, plan) in (served..).zip(&plans[..n]) {
            let is_update = self.rng.random_bool(self.update_fraction);
            let class = if is_update {
                ReqClass::Write
            } else {
                ReqClass::Read
            };
            self.buf.push(Op::RequestStart {
                class,
                warmup: served < self.warmup,
            });
            self.buf.extend(plan.touches(is_update).map(|t| Op::Access {
                space: AsId(0),
                vpn: t.vpn,
                write: t.write,
                cpu_ns: plan.cpu_per_touch,
            }));
            self.buf.push(Op::RequestEnd);
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
    fn request_markers_are_paired() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::B), 1);
        let ops = drain(w.streams(2)[0].as_mut());
        let mut depth = 0i32;
        let mut count = 0;
        for op in &ops {
            match op {
                Op::RequestStart { .. } => {
                    depth += 1;
                    count += 1;
                    assert_eq!(depth, 1, "requests must not nest");
                }
                Op::RequestEnd => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert_eq!(count, 2_000, "requests / threads");
    }

    #[test]
    fn mix_c_has_no_writes() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::C), 1);
        for op in drain(w.streams(3)[0].as_mut()) {
            match op {
                Op::Access { write, .. } => assert!(!write),
                Op::RequestStart { class, .. } => assert_eq!(class, ReqClass::Read),
                _ => {}
            }
        }
    }

    #[test]
    fn mix_a_is_half_writes() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 1);
        let ops = drain(w.streams(4)[0].as_mut());
        let (mut reads, mut writes) = (0u32, 0u32);
        for op in &ops {
            if let Op::RequestStart { class, .. } = op {
                match class {
                    ReqClass::Read => reads += 1,
                    ReqClass::Write => writes += 1,
                }
            }
        }
        let frac = writes as f64 / (reads + writes) as f64;
        assert!((0.45..0.55).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn warmup_marks_leading_requests_only() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::B), 1);
        let ops = drain(w.streams(5)[0].as_mut());
        let warmups: Vec<bool> = ops
            .iter()
            .filter_map(|o| match o {
                Op::RequestStart { warmup, .. } => Some(*warmup),
                _ => None,
            })
            .collect();
        let boundary = warmups.iter().position(|w| !w).unwrap();
        assert_eq!(boundary, 200, "10% of 2000 requests warm up");
        assert!(warmups[boundary..].iter().all(|w| !w));
    }

    #[test]
    fn popularity_is_skewed_across_item_pages() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::C), 1);
        let bucket_pages = w.store().bucket_pages();
        let mut counts = std::collections::BTreeMap::new();
        for op in drain(w.streams(6)[0].as_mut()) {
            if let Op::Access { vpn, .. } = op {
                if vpn >= bucket_pages {
                    *counts.entry(vpn).or_insert(0u32) += 1;
                }
            }
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
        let top: u32 = freqs.iter().take(10).sum();
        let total: u32 = freqs.iter().sum();
        assert!(
            top as f64 > 0.2 * total as f64,
            "zipfian hot pages missing: top10 {top}/{total}"
        );
    }

    #[test]
    fn name_includes_mix() {
        assert_eq!(
            YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 1).name(),
            "ycsb-a"
        );
    }

    #[test]
    fn footprint_matches_store() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::B), 1);
        assert_eq!(w.footprint_pages(), w.store().total_pages());
    }
}
