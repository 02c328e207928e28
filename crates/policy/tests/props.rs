//! Property tests for the policy data structures and both policies.

use proptest::prelude::*;

use pagesim_mem::{
    AddressSpace, AsId, EntropyClass, LineIdx, PageArena, PageInfo, PageKey, RegionIdx, Vpn,
    WORDS_PER_REGION,
};
use pagesim_policy::memview::tests_support::FakeMem;
use pagesim_policy::{
    BloomFilter, ClockLru, CostModel, Links, MemView, MgLru, MgLruConfig, PageList, Policy,
};

/// Single-space [`MemView`] over the real word-level [`AddressSpace`]
/// accessed bitmap — the production fast path, driven here head-to-head against
/// [`FakeMem`], whose scans are naive per-PTE loops over `Vec<bool>`.
struct BitmapMem {
    space: AddressSpace,
}

impl BitmapMem {
    fn new(pages: u32) -> Self {
        let mut arena = PageArena::new();
        BitmapMem {
            space: AddressSpace::new(AsId(0), pages, &mut arena),
        }
    }
}

impl MemView for BitmapMem {
    fn total_pages(&self) -> u32 {
        self.space.pages()
    }

    fn page_info(&self, key: PageKey) -> PageInfo {
        PageInfo {
            as_id: AsId(0),
            vpn: key,
            file_backed: false,
            entropy: EntropyClass::Text,
        }
    }

    fn is_resident(&self, key: PageKey) -> bool {
        self.space.pte(key).present()
    }

    fn is_dirty(&self, key: PageKey) -> bool {
        self.space.pte(key).dirty()
    }

    fn rmap_test_clear_accessed(&mut self, key: PageKey) -> bool {
        self.space.test_and_clear_accessed(key)
    }

    fn scan_region(
        &mut self,
        _space: AsId,
        region: RegionIdx,
        words: &mut [u64; WORDS_PER_REGION],
    ) -> u32 {
        self.space.scan_region(region, words)
    }

    fn scan_line_mask(&mut self, _space: AsId, line: LineIdx) -> (u8, u32) {
        self.space.scan_line_mask(line)
    }

    fn key_at(&self, _space: AsId, vpn: Vpn) -> PageKey {
        vpn
    }

    fn space_count(&self) -> u16 {
        1
    }

    fn region_count(&self, _space: AsId) -> u32 {
        self.space.regions()
    }

    fn region_present_count(&self, _space: AsId, region: RegionIdx) -> u32 {
        self.space.region_present_count(region)
    }
}

proptest! {
    /// PageList behaves exactly like a VecDeque under arbitrary op
    /// sequences (push_front / push_back / pop_back / remove).
    #[test]
    fn page_list_matches_vecdeque_model(ops in prop::collection::vec((0u8..4, 0u32..32), 1..400)) {
        let mut nodes = vec![Links::default(); 32];
        let mut list = PageList::new();
        let mut model: std::collections::VecDeque<u32> = Default::default();
        for (op, key) in ops {
            match op {
                0 => {
                    if !model.contains(&key) {
                        list.push_front(&mut nodes, key);
                        model.push_front(key);
                    }
                }
                1 => {
                    if !model.contains(&key) {
                        list.push_back(&mut nodes, key);
                        model.push_back(key);
                    }
                }
                2 => {
                    prop_assert_eq!(list.pop_back(&mut nodes), model.pop_back());
                }
                _ => {
                    if let Some(pos) = model.iter().position(|&k| k == key) {
                        list.remove(&mut nodes, key);
                        model.remove(pos);
                    }
                }
            }
            prop_assert_eq!(list.len() as usize, model.len());
            prop_assert_eq!(list.front(), model.front().copied());
            prop_assert_eq!(list.back(), model.back().copied());
        }
        let order: Vec<u32> = list.iter_from_back(&nodes).collect();
        let expect: Vec<u32> = model.iter().rev().copied().collect();
        prop_assert_eq!(order, expect);
    }

    /// The bloom filter never produces a false negative.
    #[test]
    fn bloom_has_no_false_negatives(
        inserts in prop::collection::vec((0u16..8, 0u32..100_000), 1..500),
        shift in 8u32..16,
    ) {
        let mut f = BloomFilter::new(shift);
        for &(s, r) in &inserts {
            f.insert(AsId(s), r);
        }
        for &(s, r) in &inserts {
            prop_assert!(f.contains(AsId(s), r));
        }
    }

    /// MG-LRU stays coherent under arbitrary fault/access/reclaim/aging
    /// sequences: victims are unique, resident, and never re-selected
    /// while absent; tracked-page accounting matches.
    #[test]
    fn mglru_invariants_under_random_ops(
        ops in prop::collection::vec((0u8..5, 0u32..64), 1..300),
        seed in 0u64..1000,
    ) {
        let pages = 64u32;
        let mut mem = FakeMem::new(pages);
        let mut lru = MgLru::new(
            pages,
            MgLruConfig { seed, ..MgLruConfig::kernel_default() },
            CostModel::default(),
        );
        let mut resident = vec![false; pages as usize];
        for (op, key) in ops {
            match op {
                0 => {
                    // fault in
                    if !resident[key as usize] {
                        mem.set_resident(key, true);
                        mem.set_accessed(key, true);
                        resident[key as usize] = true;
                        lru.on_page_resident(key, false, &mut mem);
                    }
                }
                1 => {
                    // touch
                    if resident[key as usize] {
                        mem.set_accessed(key, true);
                    }
                }
                2 => {
                    // reclaim a few
                    let mut victims = [0; 4];
                    let out = lru.reclaim(&mut victims, &mut mem);
                    let mut seen = std::collections::BTreeSet::new();
                    for &v in &victims[..out.victims] {
                        prop_assert!(seen.insert(v), "duplicate victim {v}");
                        prop_assert!(resident[v as usize], "victim {v} not resident");
                        resident[v as usize] = false;
                        mem.set_resident(v, false);
                        lru.on_page_evicted(v, &mut mem);
                    }
                }
                3 => {
                    let _ = lru.age_once(&mut mem);
                }
                _ => {
                    if resident[key as usize] {
                        lru.on_fd_access(key, &mut mem);
                    }
                }
            }
            prop_assert!(lru.nr_gens() >= 2);
            prop_assert!(lru.max_seq() >= lru.min_seq());
        }
    }

    /// Clock never selects a non-resident or duplicate victim either.
    #[test]
    fn clock_victims_are_valid(ops in prop::collection::vec((0u8..3, 0u32..64), 1..300)) {
        let pages = 64u32;
        let mut mem = FakeMem::new(pages);
        let mut clock = ClockLru::new(pages, CostModel::default());
        let mut resident = vec![false; pages as usize];
        for (op, key) in ops {
            match op {
                0 => {
                    if !resident[key as usize] {
                        mem.set_resident(key, true);
                        resident[key as usize] = true;
                        clock.on_page_resident(key, false, &mut mem);
                    }
                }
                1 => {
                    if resident[key as usize] {
                        mem.set_accessed(key, true);
                    }
                }
                _ => {
                    let mut victims = [0; 4];
                    let out = clock.reclaim(&mut victims, &mut mem);
                    let mut seen = std::collections::BTreeSet::new();
                    for &v in &victims[..out.victims] {
                        prop_assert!(seen.insert(v));
                        prop_assert!(resident[v as usize]);
                        resident[v as usize] = false;
                        mem.set_resident(v, false);
                        clock.on_page_evicted(v, &mut mem);
                    }
                }
            }
            let listed = clock.active_len() + clock.inactive_len();
            let live = resident.iter().filter(|&&r| r).count() as u32;
            prop_assert_eq!(listed, live, "list accounting drifted");
        }
    }

    /// Hot pages survive, cold pages go: for any split of pages into hot
    /// (always re-accessed) and cold, repeated reclaim rounds never leave
    /// a cold page resident while evicting all hot ones.
    #[test]
    fn mglru_eventually_prefers_cold_victims(hot_mask in 0u64..u64::MAX, seed in 0u64..64) {
        let pages = 64u32;
        let mut mem = FakeMem::new(pages);
        let mut lru = MgLru::new(
            pages,
            MgLruConfig { seed, ..MgLruConfig::kernel_default() },
            CostModel::default(),
        );
        for k in 0..pages {
            mem.set_resident(k, true);
            lru.on_page_resident(k, false, &mut mem);
        }
        let hot: Vec<u32> = (0..pages).filter(|&k| hot_mask & (1 << k) != 0).collect();
        prop_assume!(hot.len() <= 48); // leave something evictable
        let mut evicted_hot = 0u32;
        let mut evicted_cold = 0u32;
        for _ in 0..6 {
            for &h in &hot {
                if mem.is_resident(h) {
                    mem.set_accessed(h, true);
                }
            }
            lru.age_once(&mut mem);
            let mut victims = [0; 4];
            let out = lru.reclaim(&mut victims, &mut mem);
            for &v in &victims[..out.victims] {
                if hot.contains(&v) {
                    evicted_hot += 1;
                } else {
                    evicted_cold += 1;
                }
                mem.set_resident(v, false);
                lru.on_page_evicted(v, &mut mem);
            }
        }
        // The policy must show *preference*: cold evictions dominate.
        if evicted_cold + evicted_hot > 8 {
            prop_assert!(
                evicted_cold >= evicted_hot,
                "evicted {evicted_hot} hot vs {evicted_cold} cold"
            );
        }
    }
}

proptest! {
    /// Observational equivalence of the word-level scan paths: MG-LRU
    /// driven over the real bitmap-backed [`AddressSpace`] makes byte-for-
    /// byte the same decisions — victims, order, scan/promotion counters,
    /// charged CPU — as over the naive per-PTE [`FakeMem`] reference,
    /// under arbitrary fault/touch/reclaim/age interleavings.
    #[test]
    fn mglru_word_scans_match_per_pte_reference(
        ops in prop::collection::vec((0u8..5, 0u32..640), 1..250),
        seed in 0u64..64,
    ) {
        let pages = 640u32; // > one region: exercises region stride + tail
        let mut fake = FakeMem::new(pages);
        let mut real = BitmapMem::new(pages);
        let cfg = MgLruConfig { seed, ..MgLruConfig::kernel_default() };
        let mut lru_f = MgLru::new(pages, cfg, CostModel::default());
        let mut lru_r = MgLru::new(pages, cfg, CostModel::default());
        let mut resident = vec![false; pages as usize];
        for (op, key) in ops {
            match op {
                0 => {
                    if !resident[key as usize] {
                        resident[key as usize] = true;
                        fake.set_resident(key, true);
                        fake.set_accessed(key, true);
                        real.space.map(key, key);
                        real.space.mark_accessed(key, false);
                        lru_f.on_page_resident(key, false, &mut fake);
                        lru_r.on_page_resident(key, false, &mut real);
                    }
                }
                1 => {
                    if resident[key as usize] {
                        fake.set_accessed(key, true);
                        real.space.mark_accessed(key, false);
                    }
                }
                2 => {
                    let mut victims_f = [0; 4];
                    let out_f = lru_f.reclaim(&mut victims_f, &mut fake);
                    let mut victims_r = [0; 4];
                    let out_r = lru_r.reclaim(&mut victims_r, &mut real);
                    prop_assert_eq!(&victims_f[..out_f.victims], &victims_r[..out_r.victims]);
                    prop_assert_eq!(out_f.cpu_ns, out_r.cpu_ns);
                    prop_assert_eq!(out_f.scanned, out_r.scanned);
                    prop_assert_eq!(out_f.promoted, out_r.promoted);
                    for &v in &victims_f[..out_f.victims] {
                        resident[v as usize] = false;
                        fake.set_resident(v, false);
                        real.space.set_swapped(v, v);
                        lru_f.on_page_evicted(v, &mut fake);
                        lru_r.on_page_evicted(v, &mut real);
                    }
                }
                3 => {
                    prop_assert_eq!(lru_f.age_once(&mut fake), lru_r.age_once(&mut real));
                }
                _ => {
                    if resident[key as usize] {
                        lru_f.on_fd_access(key, &mut fake);
                        lru_r.on_fd_access(key, &mut real);
                    }
                }
            }
            prop_assert_eq!(lru_f.stats(), lru_r.stats());
            prop_assert_eq!(lru_f.min_seq(), lru_r.min_seq());
            prop_assert_eq!(lru_f.max_seq(), lru_r.max_seq());
            real.space
                .check_bitmap_coherence()
                .map_err(|e| format!("coherence: {e}"))?;
        }
    }

    /// Same head-to-head for Clock, whose only scan primitive is the rmap
    /// probe: the bitmap's `test_and_clear_accessed` answers exactly
    /// like the reference bit array.
    #[test]
    fn clock_rmap_probes_match_per_pte_reference(
        ops in prop::collection::vec((0u8..3, 0u32..640), 1..250),
    ) {
        let pages = 640u32;
        let mut fake = FakeMem::new(pages);
        let mut real = BitmapMem::new(pages);
        let mut clock_f = ClockLru::new(pages, CostModel::default());
        let mut clock_r = ClockLru::new(pages, CostModel::default());
        let mut resident = vec![false; pages as usize];
        for (op, key) in ops {
            match op {
                0 => {
                    if !resident[key as usize] {
                        resident[key as usize] = true;
                        fake.set_resident(key, true);
                        real.space.map(key, key);
                        clock_f.on_page_resident(key, false, &mut fake);
                        clock_r.on_page_resident(key, false, &mut real);
                    }
                }
                1 => {
                    if resident[key as usize] {
                        fake.set_accessed(key, true);
                        real.space.mark_accessed(key, false);
                    }
                }
                _ => {
                    let mut victims_f = [0; 4];
                    let out_f = clock_f.reclaim(&mut victims_f, &mut fake);
                    let mut victims_r = [0; 4];
                    let out_r = clock_r.reclaim(&mut victims_r, &mut real);
                    prop_assert_eq!(&victims_f[..out_f.victims], &victims_r[..out_r.victims]);
                    prop_assert_eq!(out_f.cpu_ns, out_r.cpu_ns);
                    for &v in &victims_f[..out_f.victims] {
                        resident[v as usize] = false;
                        fake.set_resident(v, false);
                        real.space.clear_mapping(v);
                        clock_f.on_page_evicted(v, &mut fake);
                        clock_r.on_page_evicted(v, &mut real);
                    }
                }
            }
            prop_assert_eq!(clock_f.stats(), clock_r.stats());
            real.space
                .check_bitmap_coherence()
                .map_err(|e| format!("coherence: {e}"))?;
        }
    }
}
