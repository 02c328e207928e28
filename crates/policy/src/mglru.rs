//! Multi-Generational LRU.
//!
//! A faithful user-space model of the policy the paper characterizes
//! (Linux 6.x `lru_gen`):
//!
//! * **Generations** — pages live on per-generation lists between
//!   `min_seq` (oldest, eviction end) and `max_seq` (youngest). Accessed
//!   pages are promoted to the youngest generation; eviction consumes the
//!   oldest. The maximum generation count is configurable: the kernel
//!   default is 4, and the paper's *Gen-14* variant raises it to 2^14 so
//!   every aging pass can create a fresh generation.
//! * **Aging** — a background walk that scans leaf page tables *linearly*
//!   (cheap per PTE, unlike rmap pointer chases), gated per PMD region by
//!   a bloom filter of regions that looked hot on the previous walk. The
//!   paper's `Scan-All` / `Scan-None` / `Scan-Rand` variants replace the
//!   bloom gate ([`ScanMode`]).
//! * **Eviction** — scans the oldest generation through the reverse map;
//!   accessed pages are promoted and their surrounding PTE cache line is
//!   scanned opportunistically (spatial locality), feeding hot regions
//!   back into the next bloom filter — the aging↔eviction feedback loop.
//! * **Tiers + PID** — pages accessed via file descriptors are promoted by
//!   tier within their generation instead of jumping to the youngest
//!   generation; a controller protects tiers whose refault rate exceeds
//!   the base tier's.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use pagesim_engine::Nanos;
use pagesim_mem::{
    AsId, PageKey, LINES_PER_REGION, PTES_PER_LINE, PTES_PER_REGION, PTES_PER_WORD,
    WORDS_PER_REGION,
};

use crate::bloom::DualBloom;
use crate::cost::CostModel;
use crate::list::{Links, PageList};
use crate::memview::MemView;
use crate::pid::{TierBalancer, MAX_TIERS};
use crate::{BgOutcome, Policy, PolicyStats, ReclaimOutcome};

/// The kernel keeps at least this many generations at all times.
const MIN_NR_GENS: usize = 2;

const NONE_SEQ: u64 = u64::MAX;

/// How the aging walk decides which PMD regions to scan — the paper's
/// §V-B parameter study.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ScanMode {
    /// Default MG-LRU: scan regions present in the bloom filter built by
    /// the previous walk (plus eviction feedback).
    Bloom,
    /// *Scan-All*: scan the entire page table every walk.
    All,
    /// *Scan-None*: scan nothing; accessed bits are only consumed by the
    /// eviction scan.
    None,
    /// *Scan-Rand*: scan each region independently with this probability
    /// (the paper uses 0.5).
    Rand(f64),
}

/// Configuration of an [`MgLru`] instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MgLruConfig {
    /// Maximum number of generations (kernel default: 4; *Gen-14*: 2^14).
    pub max_gens: u32,
    /// Aging-walk region gate.
    pub scan_mode: ScanMode,
    /// log2 bits in each bloom filter (kernel: 15).
    pub bloom_shift: u32,
    /// A region enters the next bloom filter when its accessed-PTE count
    /// reaches `insert_threshold_per_line` × (cache lines in the region) —
    /// the default 1.0 is the kernel's "one accessed PTE per cache line".
    pub insert_threshold_per_line: f64,
    /// Whether the eviction scan examines the PTE cache line around an
    /// accessed page (spatial-locality lookaround; on in the kernel).
    pub spatial_scan: bool,
    /// PID gains for the tier controller `(kp, ki, kd)`.
    pub pid_gains: (f64, f64, f64),
    /// Seed for `ScanMode::Rand`.
    pub seed: u64,
}

impl MgLruConfig {
    /// Kernel-default MG-LRU.
    pub fn kernel_default() -> Self {
        MgLruConfig {
            max_gens: 4,
            scan_mode: ScanMode::Bloom,
            bloom_shift: 15,
            insert_threshold_per_line: 1.0,
            spatial_scan: true,
            pid_gains: (1.0, 0.0, 0.0),
            seed: 0,
        }
    }

    /// The paper's *Gen-14* variant: 2^14 generations.
    pub fn gen14() -> Self {
        MgLruConfig {
            max_gens: 1 << 14,
            ..Self::kernel_default()
        }
    }

    /// The paper's *Scan-All* variant.
    pub fn scan_all() -> Self {
        MgLruConfig {
            scan_mode: ScanMode::All,
            ..Self::kernel_default()
        }
    }

    /// The paper's *Scan-None* variant.
    pub fn scan_none() -> Self {
        MgLruConfig {
            scan_mode: ScanMode::None,
            ..Self::kernel_default()
        }
    }

    /// The paper's *Scan-Rand* variant (p = 0.5).
    pub fn scan_rand(seed: u64) -> Self {
        MgLruConfig {
            scan_mode: ScanMode::Rand(0.5),
            seed,
            ..Self::kernel_default()
        }
    }

    fn validate(&self) {
        assert!(self.max_gens as usize >= MIN_NR_GENS, "max_gens too small");
        if let ScanMode::Rand(p) = self.scan_mode {
            assert!((0.0..=1.0).contains(&p), "scan probability out of range");
        }
        assert!(self.insert_threshold_per_line >= 0.0);
    }
}

impl Default for MgLruConfig {
    fn default() -> Self {
        Self::kernel_default()
    }
}

#[derive(Clone, Copy, Debug)]
struct PageMeta {
    /// Logical generation of the page (`folio_update_gen` semantics), or
    /// `NONE_SEQ` when not tracked. Aging updates this *lazily* without
    /// moving the page between lists.
    seq: u64,
    /// Physical generation list the page sits on, or `NONE_SEQ` when
    /// detached. Diverges from `seq` after a lazy promotion until the
    /// eviction scan re-sorts the page.
    pos: u64,
    /// Tier (file pages only; anon pages are always tier 0).
    tier: u8,
    /// fd-access count within the current generation (drives the tier).
    refs: u8,
    /// Tier the page had when last evicted (refault attribution).
    evicted_tier: u8,
    /// Cached file-backed flag.
    is_file: bool,
}

impl Default for PageMeta {
    fn default() -> Self {
        PageMeta {
            seq: NONE_SEQ,
            pos: NONE_SEQ,
            tier: 0,
            refs: 0,
            evicted_tier: 0,
            is_file: false,
        }
    }
}

#[derive(Debug, Default)]
struct Gen {
    seq: u64,
    anon: PageList,
    file: [PageList; MAX_TIERS],
}

impl Gen {
    fn new(seq: u64) -> Self {
        Gen {
            seq,
            ..Default::default()
        }
    }

    fn total(&self) -> u32 {
        self.anon.len() + self.file.iter().map(PageList::len).sum::<u32>()
    }

    fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Progress of an in-flight aging walk. Walks are incremental: they make
/// bounded progress per background slice, so accessed-bit clears spread
/// over wall-clock time like the kernel's real walks do.
#[derive(Debug)]
struct WalkState {
    /// Spaces are identified densely as `AsId(0..space_count)`.
    space_count: u16,
    space_i: u16,
    region: u32,
    /// Snapshot of "is the current filter usable" at walk start.
    filter_unusable: bool,
}

/// Multi-Generational LRU (see module docs).
#[derive(Debug)]
pub struct MgLru {
    cfg: MgLruConfig,
    costs: CostModel,
    nodes: Vec<Links>,
    meta: Vec<PageMeta>,
    /// Front = oldest generation (`min_seq`), back = youngest (`max_seq`).
    gens: VecDeque<Gen>,
    bloom: DualBloom,
    /// Accessed PTEs a region needs to enter the next bloom filter:
    /// `insert_threshold_per_line` × lines per region, rounded up, at
    /// least 1.
    insert_threshold: u32,
    /// Insertions that went into the *current* filter while it was "next".
    current_filter_fill: u64,
    tiers: TierBalancer,
    rng: SmallRng,
    needs_aging: bool,
    walk: Option<WalkState>,
    stats: PolicyStats,
}

/// A region's bloom insertion threshold in accessed PTEs (see
/// [`MgLruConfig::insert_threshold_per_line`]).
#[expect(
    clippy::float_arithmetic,
    reason = "the per-line threshold is an f64 config knob; converted once, in `MgLru::new`"
)]
fn insert_threshold(per_line: f64) -> u32 {
    ((per_line * LINES_PER_REGION as f64).ceil() as u32).max(1)
}

impl MgLru {
    /// Creates the policy for a system of `total_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MgLruConfig`]).
    pub fn new(total_pages: u32, cfg: MgLruConfig, costs: CostModel) -> Self {
        cfg.validate();
        let mut gens = VecDeque::new();
        gens.push_back(Gen::new(0));
        gens.push_back(Gen::new(1));
        let (kp, ki, kd) = cfg.pid_gains;
        MgLru {
            cfg,
            costs,
            nodes: vec![Links::default(); total_pages as usize],
            meta: vec![PageMeta::default(); total_pages as usize],
            gens,
            bloom: DualBloom::new(cfg.bloom_shift),
            insert_threshold: insert_threshold(cfg.insert_threshold_per_line),
            current_filter_fill: 0,
            tiers: TierBalancer::new(kp, ki, kd),
            rng: SmallRng::seed_from_u64(cfg.seed),
            needs_aging: true,
            walk: None,
            stats: PolicyStats::default(),
        }
    }

    /// Oldest live generation sequence number.
    pub fn min_seq(&self) -> u64 {
        self.gens.front().expect("at least MIN_NR_GENS gens").seq
    }

    /// Youngest generation sequence number.
    pub fn max_seq(&self) -> u64 {
        self.gens.back().expect("at least MIN_NR_GENS gens").seq
    }

    /// Number of live generations.
    pub fn nr_gens(&self) -> usize {
        self.gens.len()
    }
    fn gen_index(&self, seq: u64) -> usize {
        debug_assert!(seq >= self.min_seq() && seq <= self.max_seq());
        (seq - self.min_seq()) as usize
    }

    fn detach(&mut self, key: PageKey) {
        let meta = self.meta[key as usize];
        if meta.pos == NONE_SEQ {
            return;
        }
        let idx = self.gen_index(meta.pos);
        let gen = &mut self.gens[idx];
        if meta.is_file {
            gen.file[meta.tier as usize].remove(&mut self.nodes, key);
        } else {
            gen.anon.remove(&mut self.nodes, key);
        }
        self.meta[key as usize].seq = NONE_SEQ;
        self.meta[key as usize].pos = NONE_SEQ;
    }

    /// Moves a page to the head of a generation's appropriate list.
    fn attach(&mut self, key: PageKey, seq: u64) {
        debug_assert_eq!(self.meta[key as usize].pos, NONE_SEQ);
        let idx = self.gen_index(seq);
        let meta = &mut self.meta[key as usize];
        meta.seq = seq;
        meta.pos = seq;
        let tier = meta.tier as usize;
        let is_file = meta.is_file;
        let gen = &mut self.gens[idx];
        if is_file {
            gen.file[tier].push_front(&mut self.nodes, key);
        } else {
            gen.anon.push_front(&mut self.nodes, key);
        }
    }

    /// Lazily promotes an accessed page to the youngest generation: only
    /// the generation tag changes (`folio_update_gen`); the page stays on
    /// its current list until the eviction scan re-sorts it. This is the
    /// kernel's actual aging behaviour — cheap for the walk, but every
    /// lazily promoted page later consumes eviction-scan budget.
    fn promote_to_youngest(&mut self, key: PageKey) -> bool {
        let max_seq = self.gens.back().expect("gens").seq;
        let meta = &mut self.meta[key as usize];
        if meta.seq == NONE_SEQ || meta.seq == max_seq {
            return false;
        }
        meta.seq = max_seq;
        meta.refs = 0;
        self.stats.promotions += 1;
        true
    }

    /// Starts a new aging walk: creates the next youngest generation when
    /// under the generation cap and positions the walk cursor.
    fn start_walk(&mut self, mem: &mut dyn MemView) {
        debug_assert!(self.walk.is_none(), "walk already in progress");
        if (self.gens.len() as u32) < self.cfg.max_gens {
            let next = self.max_seq() + 1;
            self.gens.push_back(Gen::new(next));
        }
        self.walk = Some(WalkState {
            space_count: mem.space_count(),
            space_i: 0,
            region: 0,
            // When the current filter is empty (bootstrap or an all-cold
            // previous walk) the kernel walks everything; mirror that.
            filter_unusable: self.current_filter_fill == 0,
        });
    }

    /// Advances the in-flight walk by up to `budget_ns` of scan cost.
    /// Returns `(cost, finished)`.
    fn walk_step(&mut self, mem: &mut dyn MemView, budget_ns: Nanos) -> (Nanos, bool) {
        let mut cost: Nanos = 0;
        loop {
            if cost >= budget_ns {
                return (cost, false);
            }
            // Pull the next (space, region) pair off the cursor.
            let (space, region, filter_unusable) = {
                let Some(ws) = self.walk.as_mut() else {
                    return (cost, true);
                };
                loop {
                    if ws.space_i >= ws.space_count {
                        break;
                    }
                    if ws.region >= mem.region_count(AsId(ws.space_i)) {
                        ws.space_i += 1;
                        ws.region = 0;
                        continue;
                    }
                    break;
                }
                if ws.space_i >= ws.space_count {
                    // Walk complete: rotate the bloom filters and publish
                    // the new generation state.
                    self.walk = None;
                    self.current_filter_fill = self.bloom.next_insertions();
                    self.bloom.flip();
                    self.stats.aging_passes += 1;
                    self.needs_aging = false;
                    return (cost, true);
                }
                let space = AsId(ws.space_i);
                let region = ws.region;
                ws.region += 1;
                (space, region, ws.filter_unusable)
            };

            cost += self.costs.region_check_ns;
            let scan = match self.cfg.scan_mode {
                ScanMode::All => true,
                ScanMode::None => false,
                ScanMode::Rand(p) => self.rng.random_bool(p),
                ScanMode::Bloom => filter_unusable || self.bloom.test_current(space, region),
            };
            if !scan {
                self.stats.regions_skipped += 1;
                continue;
            }
            if mem.region_present_count(space, region) == 0 {
                // The walk sees an empty PMD and skips the whole region at
                // upper-level cost.
                self.stats.regions_skipped += 1;
                continue;
            }
            self.stats.regions_walked += 1;
            // Harvest the whole region's accessed bits as 8 words, then
            // visit only the set bits in ascending vpn order — the same
            // visits, promotions, and *simulated* cost as a per-PTE walk
            // (`examined` counts every PTE the scan covers), with host
            // work proportional to the hot pages only.
            let mut words = [0u64; WORDS_PER_REGION];
            let examined = mem.scan_region(space, region, &mut words);
            cost += examined as u64 * self.costs.pte_scan_ns;
            self.stats.pte_scans += examined as u64;
            let mut accessed_in_region: u32 = 0;
            let region_base = region * PTES_PER_REGION as u32;
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let vpn = region_base + w as u32 * PTES_PER_WORD as u32 + bits.trailing_zeros();
                    bits &= bits - 1;
                    accessed_in_region += 1;
                    let key = mem.key_at(space, vpn);
                    if self.promote_to_youngest(key) {
                        cost += self.costs.list_op_ns;
                    }
                }
            }
            if accessed_in_region >= self.insert_threshold {
                self.bloom.insert_next(space, region);
            }
        }
    }

    /// One full aging pass, run to completion synchronously (the
    /// `try_to_inc_max_seq` direct-reclaim path, also used by tests). If a
    /// background walk is in flight, it is finished first.
    pub fn age_once(&mut self, mem: &mut dyn MemView) -> Nanos {
        if self.walk.is_none() {
            self.start_walk(mem);
        }
        let mut total: Nanos = 0;
        loop {
            let (cost, done) = self.walk_step(mem, Nanos::MAX);
            total += cost;
            if done {
                return total;
            }
        }
    }

    /// Pops empty oldest generations (advancing `min_seq`) while more than
    /// the minimum remain.
    fn advance_min_seq(&mut self) {
        while self.gens.len() > MIN_NR_GENS && self.gens.front().is_some_and(Gen::is_empty) {
            self.gens.pop_front();
        }
    }

    /// Picks the next eviction candidate from the oldest generation's
    /// lists: unprotected file tiers first (low tiers first), then anon.
    /// The candidate is physically unlinked; its logical generation tag is
    /// preserved so the caller can detect lazy promotions.
    fn next_candidate(&mut self) -> Option<(PageKey, bool, u8)> {
        let gen = self.gens.front_mut()?;
        for tier in 0..MAX_TIERS {
            if let Some(key) = gen.file[tier].pop_back(&mut self.nodes) {
                self.meta[key as usize].pos = NONE_SEQ;
                return Some((key, true, tier as u8));
            }
        }
        if let Some(key) = gen.anon.pop_back(&mut self.nodes) {
            self.meta[key as usize].pos = NONE_SEQ;
            return Some((key, false, 0));
        }
        None
    }
}

impl Policy for MgLru {
    fn name(&self) -> String {
        let mode = match self.cfg.scan_mode {
            ScanMode::Bloom => String::new(),
            ScanMode::All => "-scan-all".to_owned(),
            ScanMode::None => "-scan-none".to_owned(),
            ScanMode::Rand(_) => "-scan-rand".to_owned(),
        };
        let gens = if self.cfg.max_gens != 4 {
            format!("-gen{}", self.cfg.max_gens.ilog2())
        } else {
            String::new()
        };
        format!("mglru{mode}{gens}")
    }

    fn on_page_resident(&mut self, key: PageKey, refault: bool, mem: &mut dyn MemView) {
        let info = mem.page_info(key);
        if refault {
            let tier = self.meta[key as usize].evicted_tier;
            self.tiers.note_refault(tier as usize);
        }
        let meta = &mut self.meta[key as usize];
        debug_assert_eq!(meta.seq, NONE_SEQ, "page resident twice");
        meta.is_file = info.file_backed;
        meta.refs = 0;
        meta.tier = 0;
        // Anonymous pages (and refaulted pages, which were just demanded)
        // start young; file pages read in start near the old end so
        // streaming data ages out quickly (§III-D).
        let seq = if info.file_backed {
            let second_oldest = self.gens.get(1).map_or(self.min_seq(), |g| g.seq);
            second_oldest
        } else {
            self.max_seq()
        };
        self.attach(key, seq);
    }

    fn on_page_evicted(&mut self, key: PageKey, _mem: &mut dyn MemView) {
        // Victims are detached during selection; nothing to unlink.
        debug_assert_eq!(self.meta[key as usize].seq, NONE_SEQ);
    }

    fn forget(&mut self, key: PageKey) {
        // `detach` is tolerant of untracked pages and resets seq/pos.
        self.detach(key);
        self.meta[key as usize].refs = 0;
        self.meta[key as usize].tier = 0;
    }

    fn on_fd_access(&mut self, key: PageKey, _mem: &mut dyn MemView) {
        let meta = self.meta[key as usize];
        if !meta.is_file || meta.seq == NONE_SEQ {
            return;
        }
        let refs = meta.refs.saturating_add(1).min(0x3F);
        // tier = floor(log2(refs + 1)), capped: 0 refs -> tier 0,
        // 1 -> 1, 3 -> 2, 7 -> 3 (the kernel's order_base_2 rule).
        let tier = (u8::BITS - (refs + 1).leading_zeros() - 1).min(MAX_TIERS as u32 - 1) as u8;
        let seq = meta.seq;
        if tier != meta.tier {
            // Promote by tier *within* the generation, never to the
            // youngest generation (the paper's §III-D).
            self.detach(key);
            self.meta[key as usize].tier = tier;
            self.meta[key as usize].refs = refs;
            self.attach(key, seq);
        } else {
            self.meta[key as usize].refs = refs;
        }
    }

    fn reclaim(&mut self, victims: &mut [PageKey], mem: &mut dyn MemView) -> ReclaimOutcome {
        let mut out = ReclaimOutcome::default();
        let want = victims.len() as u32;
        let scan_cap = (want as u64 * 16).max(128);
        let mut sync_ages = 0;

        'outer: while out.victims < victims.len() {
            self.advance_min_seq();
            if self.gens.front().is_some_and(Gen::is_empty) {
                // All pages live in the youngest MIN_NR_GENS generations:
                // eviction cannot proceed without aging. Direct reclaim
                // ages synchronously (try_to_inc_max_seq), paying the full
                // walk cost on this thread.
                if sync_ages >= 3 {
                    break;
                }
                sync_ages += 1;
                out.cpu_ns += self.age_once(mem);
                self.advance_min_seq();
                if self.gens.front().is_some_and(Gen::is_empty) {
                    // Aging promoted nothing downward (it never does) and
                    // the old generations are still empty: nothing to do.
                    break;
                }
                continue;
            }

            while out.victims < victims.len() {
                if out.scanned >= scan_cap {
                    break 'outer;
                }
                let oldest_seq = self.min_seq();
                let Some((key, is_file, tier)) = self.next_candidate() else {
                    break; // oldest gen drained; advance min_seq
                };
                out.scanned += 1;

                if self.meta[key as usize].seq != oldest_seq {
                    // Lazily promoted by the aging walk: re-sort the page
                    // onto its logical generation. This consumes eviction
                    // scan budget without producing a victim — the cost
                    // heavy scanning shifts onto the reclaim path.
                    let target = self.meta[key as usize].seq;
                    self.meta[key as usize].seq = NONE_SEQ;
                    self.attach(key, target);
                    self.stats.resorted += 1;
                    out.cpu_ns += self.costs.list_op_ns;
                    continue;
                }

                if is_file && self.tiers.is_protected(tier as usize) {
                    // Protected tier: move one generation younger instead
                    // of evicting; tier is kept.
                    let target = self.gens.get(1).map_or(self.max_seq(), |g| g.seq);
                    self.meta[key as usize].tier = tier;
                    self.attach(key, target);
                    self.stats.tier_protected += 1;
                    out.cpu_ns += self.costs.list_op_ns;
                    continue;
                }

                // The eviction scan walks the rmap to probe the PTE.
                out.cpu_ns += self.costs.rmap_walk_ns;
                self.stats.rmap_walks += 1;
                if mem.rmap_test_clear_accessed(key) {
                    // Referenced at eviction time: protect by ONE
                    // generation (`folio_inc_gen`), not to the youngest —
                    // only the aging walk grants full rejuvenation. Then
                    // exploit spatial locality: scan the surrounding PTE
                    // cache line and feed the hot region into the next
                    // bloom filter (§III-C).
                    let protect_seq = self.gens.get(1).map_or(self.max_seq(), |g| g.seq);
                    self.meta[key as usize].tier = tier;
                    self.attach(key, protect_seq);
                    self.meta[key as usize].refs = 0;
                    out.promoted += 1;
                    self.stats.promotions += 1;
                    out.cpu_ns += self.costs.list_op_ns;
                    if self.cfg.spatial_scan {
                        let info = mem.page_info(key);
                        let line = pagesim_mem::line_of(info.vpn);
                        let (mask, examined) = mem.scan_line_mask(info.as_id, line);
                        out.cpu_ns += examined as u64 * self.costs.pte_scan_ns;
                        self.stats.pte_scans += examined as u64;
                        let line_base = line * PTES_PER_LINE as u32;
                        let mut bits = mask;
                        while bits != 0 {
                            let vpn = line_base + bits.trailing_zeros();
                            bits &= bits - 1;
                            let neighbor = mem.key_at(info.as_id, vpn);
                            if neighbor != key && self.promote_to_youngest(neighbor) {
                                out.cpu_ns += self.costs.list_op_ns;
                                out.promoted += 1;
                            }
                        }
                        self.bloom
                            .insert_next(info.as_id, pagesim_mem::region_of(info.vpn));
                    }
                } else {
                    let eff_tier = if is_file { tier } else { 0 };
                    self.tiers.note_eviction(eff_tier as usize);
                    self.meta[key as usize].evicted_tier = eff_tier;
                    self.meta[key as usize].seq = NONE_SEQ;
                    victims[out.victims] = key;
                    out.victims += 1;
                    out.cpu_ns += self.costs.evict_fixed_ns;
                    self.stats.evictions += 1;
                }
            }
        }

        // Ask for background aging when the old-generation supply runs
        // low — roughly once per generation turnover, like the kernel,
        // rather than continuously.
        let oldest_supply = self.gens.front().map_or(0, Gen::total);
        if self.gens.len() <= MIN_NR_GENS || oldest_supply < want.max(8) {
            self.needs_aging = true;
        }
        self.tiers.rebalance();
        out
    }

    fn wants_background(&self, _mem: &dyn MemView) -> bool {
        self.needs_aging || self.walk.is_some()
    }

    fn background_work(&mut self, budget_ns: Nanos, mem: &mut dyn MemView) -> BgOutcome {
        if self.walk.is_none() {
            if !self.needs_aging {
                return BgOutcome::default();
            }
            self.start_walk(mem);
        }
        let (cpu_ns, done) = self.walk_step(mem, budget_ns);
        BgOutcome {
            cpu_ns,
            more: !done,
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn occupancy(&self) -> Vec<(u64, u64)> {
        self.gens
            .iter()
            .map(|g| (g.seq, g.total() as u64))
            .collect()
    }

    // Mirrors `/sys/kernel/debug/lru_gen`: one line per generation with
    // its age (in generations, youngest = 0) and per-list sizes, followed
    // by the tier controller's refault windows. Integers only.
    fn introspect(&self, out: &mut String) {
        use std::fmt::Write as _;
        let max_seq = self.max_seq();
        let _ = writeln!(
            out,
            "policy {} min_seq {} max_seq {} nr_gens {}",
            self.name(),
            self.min_seq(),
            max_seq,
            self.nr_gens()
        );
        for g in &self.gens {
            let _ = write!(
                out,
                " gen {} age {} anon {} file",
                g.seq,
                max_seq - g.seq,
                g.anon.len()
            );
            for tier in &g.file {
                let _ = write!(out, " {}", tier.len());
            }
            out.push('\n');
        }
        let _ = writeln!(out, " tiers protect_from {}", self.tiers.protect_from());
        for t in 0..MAX_TIERS {
            let (evicted, refaulted) = self.tiers.window(t);
            let _ = writeln!(out, " tier {t} evicted {evicted} refaulted {refaulted}");
        }
    }

    #[cfg(feature = "sanitize")]
    fn check_invariants(&self) -> Option<u64> {
        let min_seq = self.min_seq();
        let max_seq = self.max_seq();
        assert!(
            (MIN_NR_GENS..=self.cfg.max_gens as usize).contains(&self.gens.len()),
            "sanitize: gen-population: {} generations outside [{MIN_NR_GENS}, {}]",
            self.gens.len(),
            self.cfg.max_gens
        );
        let mut listed = vec![false; self.nodes.len()];
        let mut total: u64 = 0;
        for (i, gen) in self.gens.iter().enumerate() {
            assert_eq!(
                gen.seq,
                min_seq + i as u64,
                "sanitize: gen-population: gen index {i} has seq {} (min_seq {min_seq})",
                gen.seq
            );
            let mut walk = |list: &PageList, is_file: bool, tier: u8| -> u64 {
                let mut count: u32 = 0;
                for key in list.iter_from_back(&self.nodes) {
                    let meta = &self.meta[key as usize];
                    assert!(
                        !std::mem::replace(&mut listed[key as usize], true),
                        "sanitize: gen-population: page {key} on two lists"
                    );
                    assert_eq!(
                        meta.pos, gen.seq,
                        "sanitize: gen-population: page {key} on gen {} but pos tag {}",
                        gen.seq, meta.pos
                    );
                    assert_eq!(
                        meta.is_file, is_file,
                        "sanitize: gen-population: page {key} on the wrong kind of list"
                    );
                    if is_file {
                        assert_eq!(
                            meta.tier, tier,
                            "sanitize: gen-population: page {key} on tier {tier} list but tier tag {}",
                            meta.tier
                        );
                    }
                    assert!(
                        meta.seq >= meta.pos && meta.seq <= max_seq,
                        "sanitize: gen-population: page {key} logical seq {} outside [{}, {max_seq}]",
                        meta.seq,
                        meta.pos
                    );
                    count += 1;
                }
                assert_eq!(
                    count,
                    list.len(),
                    "sanitize: gen-population: list claims {} pages, walk found {count}",
                    list.len()
                );
                count as u64
            };
            total += walk(&gen.anon, false, 0);
            for (t, list) in gen.file.iter().enumerate() {
                total += walk(list, true, t as u8);
            }
        }
        for (key, node) in self.nodes.iter().enumerate() {
            assert_eq!(
                node.attached(),
                listed[key],
                "sanitize: gen-population: page {key} attached flag disagrees with list membership"
            );
            if !node.attached() {
                let meta = &self.meta[key];
                assert!(
                    meta.pos == NONE_SEQ && meta.seq == NONE_SEQ,
                    "sanitize: gen-population: detached page {key} keeps seq {} / pos {}",
                    meta.seq,
                    meta.pos
                );
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memview::tests_support::{reclaim_vec, FakeMem};

    fn setup(pages: u32, resident: u32, cfg: MgLruConfig) -> (MgLru, FakeMem) {
        let mut mem = FakeMem::new(pages);
        let mut lru = MgLru::new(pages, cfg, CostModel::default());
        for k in 0..resident {
            mem.set_resident(k, true);
            lru.on_page_resident(k, false, &mut mem);
        }
        (lru, mem)
    }

    #[test]
    fn starts_with_min_gens() {
        let (lru, _) = setup(64, 0, MgLruConfig::kernel_default());
        assert_eq!(lru.nr_gens(), MIN_NR_GENS);
        assert_eq!(lru.min_seq(), 0);
        assert_eq!(lru.max_seq(), 1);
    }

    #[test]
    fn occupancy_labels_generations_by_seq() {
        let (lru, _) = setup(64, 8, MgLruConfig::kernel_default());
        let occ = lru.occupancy();
        assert_eq!(occ.len(), lru.nr_gens());
        assert_eq!(occ.iter().map(|&(_, n)| n).sum::<u64>(), 8);
        // Oldest first, sequence numbers ascending.
        assert!(occ.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn introspect_dumps_generations_and_tiers() {
        let (mut lru, mut mem) = setup(64, 8, MgLruConfig::kernel_default());
        lru.age_once(&mut mem);
        let mut dump = String::new();
        lru.introspect(&mut dump);
        assert!(
            dump.starts_with("policy mglru min_seq 0 max_seq 2 nr_gens 3\n"),
            "{dump}"
        );
        // One line per generation, youngest has age 0, oldest the largest.
        assert!(dump.contains(" gen 0 age 2 anon "), "{dump}");
        assert!(dump.contains(" gen 2 age 0 anon "), "{dump}");
        assert!(dump.contains(" tiers protect_from 4\n"), "{dump}");
        for t in 0..MAX_TIERS {
            assert!(dump.contains(&format!(" tier {t} evicted ")), "{dump}");
        }
        // Pure reporting: a second dump is identical.
        let mut again = String::new();
        lru.introspect(&mut again);
        assert_eq!(dump, again);
    }

    #[test]
    fn aging_creates_generations_up_to_max() {
        let (mut lru, mut mem) = setup(64, 8, MgLruConfig::kernel_default());
        lru.age_once(&mut mem);
        lru.age_once(&mut mem);
        assert_eq!(lru.nr_gens(), 4);
        let before = lru.max_seq();
        lru.age_once(&mut mem); // capped at max_gens = 4
        assert_eq!(lru.nr_gens(), 4);
        assert_eq!(lru.max_seq(), before, "no new gen beyond the cap");
    }

    #[test]
    fn gen14_always_creates_generations() {
        let (mut lru, mut mem) = setup(64, 8, MgLruConfig::gen14());
        for _ in 0..10 {
            lru.age_once(&mut mem);
        }
        assert_eq!(lru.max_seq(), 11);
    }

    #[test]
    fn cold_pages_are_evicted_hot_pages_promoted() {
        let (mut lru, mut mem) = setup(64, 16, MgLruConfig::scan_none());
        // ages pages into older gens
        lru.age_once(&mut mem);
        lru.age_once(&mut mem);
        // Pages 0..4 are hot.
        for k in 0..4 {
            mem.set_accessed(k, true);
        }
        let (out, victims) = reclaim_vec(&mut lru, 8, &mut mem);
        assert!(!victims.is_empty());
        for k in 0..4u32 {
            assert!(!victims.contains(&k), "hot page {k} evicted");
        }
        assert!(out.promoted >= 1);
        assert!(out.cpu_ns > 0);
    }

    #[test]
    fn eviction_spatial_scan_promotes_neighbors() {
        let mut cfg = MgLruConfig::scan_none();
        cfg.spatial_scan = true;
        let (mut lru, mut mem) = setup(64, 16, cfg);
        lru.age_once(&mut mem);
        lru.age_once(&mut mem);
        // All of cache line 0 (pages 0..8) is hot.
        for k in 0..8 {
            mem.set_accessed(k, true);
        }
        let (out, victims) = reclaim_vec(&mut lru, 4, &mut mem);
        // rmap probe finds one page hot; the line scan promotes its 7
        // neighbours without 7 more rmap walks.
        assert!(out.promoted >= 8, "promoted {}", out.promoted);
        assert!(mem.lines_scanned >= 1);
        for k in 0..8u32 {
            assert!(!victims.contains(&k));
        }
    }

    #[test]
    fn spatial_scan_off_costs_more_rmap_walks() {
        let mut cfg = MgLruConfig::scan_none();
        cfg.spatial_scan = false;
        let (mut lru, mut mem) = setup(64, 16, cfg);
        lru.age_once(&mut mem);
        lru.age_once(&mut mem);
        for k in 0..8 {
            mem.set_accessed(k, true);
        }
        reclaim_vec(&mut lru, 4, &mut mem);
        assert_eq!(mem.lines_scanned, 0);
    }

    #[test]
    fn scan_all_walks_every_region() {
        let (mut lru, mut mem) = setup(2048, 2048, MgLruConfig::scan_all());
        lru.age_once(&mut mem);
        assert_eq!(lru.stats().regions_walked, 4);
        assert_eq!(lru.stats().regions_skipped, 0);
        assert_eq!(lru.stats().pte_scans, 2048);
    }

    #[test]
    fn scan_none_walks_nothing() {
        let (mut lru, mut mem) = setup(2048, 2048, MgLruConfig::scan_none());
        lru.age_once(&mut mem);
        assert_eq!(lru.stats().regions_walked, 0);
        assert_eq!(lru.stats().pte_scans, 0);
    }

    #[test]
    fn scan_rand_is_probabilistic_but_deterministic() {
        let run = |seed| {
            let (mut lru, mut mem) = setup(512 * 64, 0, MgLruConfig::scan_rand(seed));
            // make all regions non-empty so present-count skip doesn't hide
            // the mode decision
            for r in 0..64u32 {
                mem.set_resident(r * 512, true);
                lru.on_page_resident(r * 512, false, &mut mem);
            }
            lru.age_once(&mut mem);
            (lru.stats().regions_walked, lru.stats().regions_skipped)
        };
        let (w1, s1) = run(7);
        let (w2, s2) = run(7);
        assert_eq!((w1, s1), (w2, s2), "same seed, same decisions");
        assert!(w1 > 10 && s1 > 10, "p=0.5 over 64 regions: w={w1} s={s1}");
    }

    #[test]
    fn bloom_mode_skips_cold_regions_after_warmup() {
        let pages = 512 * 8;
        let (mut lru, mut mem) = setup(pages, pages, MgLruConfig::kernel_default());
        // Warmup walk: filter empty -> scans everything.
        // Only region 0 is hot (every line has an accessed PTE).
        for k in 0..512 {
            mem.set_accessed(k, true);
        }
        lru.age_once(&mut mem);
        let walked_first = lru.stats().regions_walked;
        assert_eq!(walked_first, 8, "bootstrap scans all regions");
        // Second walk: only region 0 passes the filter.
        for k in 0..512 {
            mem.set_accessed(k, true);
        }
        lru.age_once(&mut mem);
        assert_eq!(lru.stats().regions_walked, walked_first + 1);
        assert_eq!(lru.stats().regions_skipped, 7);
    }

    #[test]
    fn aging_promotes_accessed_pages_to_new_youngest() {
        let (mut lru, mut mem) = setup(64, 16, MgLruConfig::gen14());
        mem.set_accessed(5, true);
        lru.age_once(&mut mem);
        // page 5 should now be in the youngest generation: a reclaim of
        // everything must evict it last. Evict 15 pages:
        let (_, victims) = reclaim_vec(&mut lru, 15, &mut mem);
        assert_eq!(victims.len(), 15);
        assert!(!victims.contains(&5));
    }

    #[test]
    fn sync_aging_kicks_in_when_gens_exhausted() {
        let (mut lru, mut mem) = setup(64, 16, MgLruConfig::kernel_default());
        // No background aging has run; all pages are in gen max_seq.
        let (_, victims) = reclaim_vec(&mut lru, 4, &mut mem);
        assert!(!victims.is_empty(), "sync aging must unblock eviction");
        assert!(lru.stats().aging_passes >= 1);
    }

    #[test]
    fn refault_notes_tier() {
        let (mut lru, mut mem) = setup(64, 16, MgLruConfig::scan_none());
        lru.age_once(&mut mem);
        lru.age_once(&mut mem);
        let (_, victims) = reclaim_vec(&mut lru, 4, &mut mem);
        let victim = victims[0];
        mem.set_resident(victim, false);
        lru.on_page_evicted(victim, &mut mem);
        // refault it
        mem.set_resident(victim, true);
        lru.on_page_resident(victim, true, &mut mem);
        // no panic + page back in youngest gen
        let (_, victims2) = reclaim_vec(&mut lru, 16, &mut mem);
        assert!(!victims2.contains(&victim) || victims2.len() >= 12);
    }

    #[test]
    fn fd_access_bumps_tier_not_generation() {
        let mut mem = FakeMem::new(64);
        mem.set_file_backed(3, true);
        mem.set_resident(3, true);
        let mut lru = MgLru::new(64, MgLruConfig::kernel_default(), CostModel::default());
        lru.on_page_resident(3, false, &mut mem);
        let gen_before = lru.meta[3].seq;
        lru.on_fd_access(3, &mut mem);
        assert_eq!(lru.meta[3].tier, 1);
        assert_eq!(lru.meta[3].seq, gen_before, "tier bump stays in gen");
        lru.on_fd_access(3, &mut mem);
        lru.on_fd_access(3, &mut mem);
        assert_eq!(lru.meta[3].tier, 2); // refs=3 -> log2(4)=2
        for _ in 0..10 {
            lru.on_fd_access(3, &mut mem);
        }
        assert_eq!(lru.meta[3].tier, 3, "tier caps at MAX_TIERS-1");
    }

    #[test]
    fn names_reflect_configuration() {
        let mk = |cfg| MgLru::new(4, cfg, CostModel::default()).name();
        assert_eq!(mk(MgLruConfig::kernel_default()), "mglru");
        assert_eq!(mk(MgLruConfig::scan_all()), "mglru-scan-all");
        assert_eq!(mk(MgLruConfig::scan_none()), "mglru-scan-none");
        assert_eq!(mk(MgLruConfig::scan_rand(1)), "mglru-scan-rand");
        assert_eq!(mk(MgLruConfig::gen14()), "mglru-gen14");
    }

    #[test]
    fn reclaim_scan_is_bounded() {
        // Everything hot: reclaim must terminate via the scan cap.
        let (mut lru, mut mem) = setup(4096, 4096, MgLruConfig::scan_none());
        lru.age_once(&mut mem);
        lru.age_once(&mut mem);
        for k in 0..4096 {
            mem.set_accessed(k, true);
        }
        let (out, _) = reclaim_vec(&mut lru, 32, &mut mem);
        assert!(out.scanned <= 32 * 16 + 1);
    }

    #[test]
    fn wants_background_after_pressure() {
        let (mut lru, mut mem) = setup(64, 16, MgLruConfig::kernel_default());
        reclaim_vec(&mut lru, 8, &mut mem);
        assert!(lru.wants_background(&mem));
        let bg = lru.background_work(u64::MAX, &mut mem);
        assert!(bg.cpu_ns > 0);
        assert!(!bg.more);
        assert!(!lru.wants_background(&mem));
    }

    #[test]
    fn background_walk_is_incremental_under_small_budget() {
        let (mut lru, mut mem) = setup(512 * 8, 512 * 8, MgLruConfig::scan_all());
        reclaim_vec(&mut lru, 8, &mut mem); // sets needs_aging
        assert!(lru.wants_background(&mem));
        // A tiny budget forces multiple steps before the pass completes.
        let mut steps = 0;
        loop {
            let bg = lru.background_work(1_000, &mut mem);
            steps += 1;
            if !bg.more {
                break;
            }
            assert!(steps < 10_000, "walk never completes");
        }
        assert!(steps > 1, "walk finished in one tiny-budget step");
    }
}
