//! Per-process leaf page tables.

use crate::arena::{PageArena, PageKey};
use crate::phys::FrameId;
use crate::pte::Pte;
use crate::{
    region_of, word_bit_of, AsId, LineIdx, RegionIdx, Vpn, PTES_PER_LINE, PTES_PER_REGION,
    PTES_PER_WORD, WORDS_PER_REGION,
};

/// First mismatch found by [`AddressSpace::check_bitmap_coherence`].
///
/// Carries indices only (`Copy`, no heap) so the coherence sweep never
/// allocates on the reclaim path; the human-readable message is produced
/// lazily by the `Display` impl, which only runs when a sanitize panic is
/// already underway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherenceError {
    /// Space the mismatch was found in.
    pub space: AsId,
    /// What disagreed.
    pub kind: CoherenceKind,
}

/// The specific disagreement behind a [`CoherenceError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceKind {
    /// An accessed bit is set on a page whose PTE is not present.
    AccessedNotPresent {
        /// Page whose bit is set.
        vpn: Vpn,
    },
    /// Accessed bits set past the last page in the final partial word.
    TailBits,
    /// Region present-count out of sync with the region's PTEs.
    RegionPresent {
        /// Region whose counter disagrees.
        region: RegionIdx,
        /// Present PTEs in the region.
        ptes: u32,
        /// Incrementally maintained counter value.
        count: u32,
    },
}

impl std::fmt::Display for CoherenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let space = self.space;
        match self.kind {
            CoherenceKind::AccessedNotPresent { vpn } => write!(
                f,
                "space {space:?} vpn {vpn}: accessed bit set but PTE not present"
            ),
            CoherenceKind::TailBits => {
                write!(f, "space {space:?}: accessed bits set beyond the last page")
            }
            CoherenceKind::RegionPresent {
                region,
                ptes,
                count,
            } => write!(
                f,
                "space {space:?} region {region}: {ptes} present PTEs but count {count}"
            ),
        }
    }
}

/// A simulated address space: a flat array of leaf PTEs with x86-64 leaf
/// geometry, plus the dense [`PageKey`] range identifying its pages
/// globally.
///
/// Only the leaf level is materialized — upper levels of a real 4-level
/// table matter for walk cost, which the cost model charges, not for
/// policy-visible state.
///
/// ## Accessed bitmap
///
/// Each page's accessed bit lives in one place: a packed bitmap next to
/// the `Vec<Pte>` (one bit per page, 64 pages per `u64` word), which the
/// MMU touch sets and every policy scan reads and clears. The PTE keeps
/// present, dirty and the frame or swap slot; per-PMD-region counts of
/// present PTEs let linear walks skip unmapped table areas. A region scan
/// reads its 8 words (one 64-byte line) instead of 512 branchy PTE reads,
/// with the visit order and examined counts a per-PTE walk would give.
#[derive(Debug)]
pub struct AddressSpace {
    id: AsId,
    base_key: PageKey,
    ptes: Vec<Pte>,
    /// Bit `vpn % 64` of word `vpn / 64` is the accessed bit of `vpn`.
    accessed: Vec<u64>,
    /// Present PTEs per PMD region, maintained incrementally.
    region_present: Vec<u32>,
}

impl AddressSpace {
    /// Creates a space with `pages` virtual pages and registers them in
    /// `arena`.
    pub fn new(id: AsId, pages: u32, arena: &mut PageArena) -> Self {
        let base_key = arena.register_space(id, pages);
        AddressSpace {
            id,
            base_key,
            ptes: vec![Pte::empty(); pages as usize],
            accessed: vec![0; (pages as usize).div_ceil(PTES_PER_WORD)],
            region_present: vec![0; (pages as usize).div_ceil(PTES_PER_REGION)],
        }
    }

    /// Number of virtual pages.
    pub fn pages(&self) -> u32 {
        self.ptes.len() as u32
    }

    /// Global key of `vpn`.
    pub fn key_of(&self, vpn: Vpn) -> PageKey {
        debug_assert!((vpn as usize) < self.ptes.len());
        self.base_key + vpn
    }

    /// First key of this space (keys are contiguous).
    pub fn base_key(&self) -> PageKey {
        self.base_key
    }

    /// Read-only view of a PTE.
    pub fn pte(&self, vpn: Vpn) -> Pte {
        self.ptes[vpn as usize]
    }

    /// Whether `vpn` has been touched since its accessed bit was last
    /// cleared.
    pub fn accessed(&self, vpn: Vpn) -> bool {
        let (w, b) = word_bit_of(vpn);
        self.accessed[w] & b != 0
    }

    /// Installs a mapping after a fault. The accessed bit starts clear
    /// (the faulting access sets it); remapping a present page keeps its
    /// region count.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId) {
        let pte = &mut self.ptes[vpn as usize];
        if !pte.present() {
            self.region_present[region_of(vpn) as usize] += 1;
        }
        pte.set_mapped(frame);
        self.test_and_clear_accessed(vpn);
    }

    /// Unmaps the page into swap slot `slot`.
    pub fn set_swapped(&mut self, vpn: Vpn, slot: u32) {
        self.unmap(vpn);
        self.ptes[vpn as usize].set_swapped(slot);
    }

    /// Clears the mapping entirely (page discarded without a swap slot,
    /// e.g. a clean file page, or a dying thread's table).
    pub fn clear_mapping(&mut self, vpn: Vpn) {
        self.unmap(vpn);
        self.ptes[vpn as usize].clear();
    }

    /// Drops `vpn`'s accessed bit and region count ahead of a PTE write
    /// that unmaps it.
    fn unmap(&mut self, vpn: Vpn) {
        self.test_and_clear_accessed(vpn);
        if self.ptes[vpn as usize].present() {
            self.region_present[region_of(vpn) as usize] -= 1;
        }
    }

    /// MMU touch: sets accessed (and dirty for stores).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the page is not present — callers must fault first.
    pub fn mark_accessed(&mut self, vpn: Vpn, write: bool) {
        let pte = &mut self.ptes[vpn as usize];
        debug_assert!(pte.present(), "accessed bit on non-present PTE");
        if write {
            pte.set_dirty();
        }
        let (w, b) = word_bit_of(vpn);
        self.accessed[w] |= b;
    }

    /// Sets the dirty bit without touching accessed state (fd writes that
    /// land via the page cache rather than the MMU).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the page is not present.
    pub fn set_dirty(&mut self, vpn: Vpn) {
        self.ptes[vpn as usize].set_dirty();
    }

    /// Reverse-map probe: test-and-clear the accessed bit of one page.
    pub fn test_and_clear_accessed(&mut self, vpn: Vpn) -> bool {
        let (w, b) = word_bit_of(vpn);
        let word = &mut self.accessed[w];
        let was = *word & b != 0;
        *word &= !b;
        was
    }

    /// Number of PTE cache lines.
    pub fn lines(&self) -> u32 {
        self.ptes.len().div_ceil(PTES_PER_LINE) as u32
    }

    /// Number of PMD regions.
    pub fn regions(&self) -> u32 {
        self.ptes.len().div_ceil(PTES_PER_REGION) as u32
    }

    /// The vpn range covered by cache line `line`, clamped to the space.
    pub fn line_vpns(&self, line: LineIdx) -> std::ops::Range<Vpn> {
        let start = line * PTES_PER_LINE as u32;
        let end = (start + PTES_PER_LINE as u32).min(self.pages());
        start..end
    }

    /// The vpn range covered by PMD region `region`, clamped to the space.
    pub fn region_vpns(&self, region: RegionIdx) -> std::ops::Range<Vpn> {
        let start = region * PTES_PER_REGION as u32;
        let end = (start + PTES_PER_REGION as u32).min(self.pages());
        start..end
    }

    /// Test-and-clear accessed bits over one whole PMD region. Fills
    /// `words` with the harvested accessed masks (bit `i` of word `w` =
    /// vpn `region*512 + w*64 + i` was present and accessed; all bits are
    /// cleared) and returns how many PTEs were examined (for cost
    /// accounting — clamped region size, identical to a per-PTE walk).
    /// An all-zero word is only read, never written.
    pub fn scan_region(&mut self, region: RegionIdx, words: &mut [u64; WORDS_PER_REGION]) -> u32 {
        let range = self.region_vpns(region);
        let first_word = region as usize * WORDS_PER_REGION;
        let end_word = self.accessed.len().min(first_word + WORDS_PER_REGION);
        *words = [0; WORDS_PER_REGION];
        for (slot, word) in words
            .iter_mut()
            .zip(&mut self.accessed[first_word..end_word])
        {
            if *word != 0 {
                *slot = std::mem::take(word);
            }
        }
        range.end - range.start
    }

    /// Test-and-clear accessed bits over one PTE cache line, returning
    /// `(mask, examined)`: bit `i` of `mask` = vpn `line*8 + i` was present
    /// and accessed (now cleared), `examined` the PTE count for cost
    /// accounting.
    pub fn scan_line_mask(&mut self, line: LineIdx) -> (u8, u32) {
        let range = self.line_vpns(line);
        if range.is_empty() {
            return (0, 0);
        }
        let (w, _) = word_bit_of(range.start);
        let shift = range.start % PTES_PER_WORD as u32;
        let mask = ((self.accessed[w] >> shift) & 0xFF) as u8;
        if mask != 0 {
            self.accessed[w] &= !((mask as u64) << shift);
        }
        (mask, range.end - range.start)
    }

    /// Present PTEs in a region (lets linear walks skip unmapped table
    /// areas). O(1): maintained incrementally by the mapping paths.
    pub fn region_present_count(&self, region: RegionIdx) -> u32 {
        self.region_present[region as usize]
    }

    /// Number of resident pages in the whole space.
    pub fn resident_pages(&self) -> u32 {
        self.region_present.iter().sum()
    }

    /// Checks what the accessed bitmap and region counts must agree on
    /// with the `Vec<Pte>`: accessed bits only on present pages and none
    /// past the last page, and each region's count equal to its present
    /// PTEs. Cold diagnostic for the sanitize invariant sweep and property
    /// tests; returns the first mismatch. Allocation-free: the error
    /// carries indices only and formats lazily via `Display`, so the sweep
    /// itself stays clean under the hot-path lint.
    pub fn check_bitmap_coherence(&self) -> Result<(), CoherenceError> {
        let fail = |kind| {
            Err(CoherenceError {
                space: self.id,
                kind,
            })
        };
        for region in 0..self.regions() {
            let mut ptes = 0;
            for vpn in self.region_vpns(region) {
                if self.ptes[vpn as usize].present() {
                    ptes += 1;
                } else if self.accessed(vpn) {
                    return fail(CoherenceKind::AccessedNotPresent { vpn });
                }
            }
            let count = self.region_present[region as usize];
            if ptes != count {
                return fail(CoherenceKind::RegionPresent {
                    region,
                    ptes,
                    count,
                });
            }
        }
        let tail = self.pages() as usize % PTES_PER_WORD;
        if tail != 0 && self.accessed.last().is_some_and(|w| w >> tail != 0) {
            return fail(CoherenceKind::TailBits);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(pages: u32) -> (AddressSpace, PageArena) {
        let mut arena = PageArena::new();
        let s = AddressSpace::new(AsId(3), pages, &mut arena);
        (s, arena)
    }

    /// Vpns of the set bits in a line mask, in ascending order.
    fn line_hits(line: LineIdx, mask: u8) -> Vec<Vpn> {
        (0..8)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| line * PTES_PER_LINE as u32 + i)
            .collect()
    }

    /// Vpns of the set bits in region scan words, in ascending order.
    fn region_hits(region: RegionIdx, words: &[u64; WORDS_PER_REGION]) -> Vec<Vpn> {
        let base = region * PTES_PER_REGION as u32;
        let mut out = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(base + w as u32 * PTES_PER_WORD as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }

    #[test]
    fn key_mapping_roundtrips() {
        let mut arena = PageArena::new();
        let _other = AddressSpace::new(AsId(0), 100, &mut arena);
        let s = AddressSpace::new(AsId(1), 50, &mut arena);
        assert_eq!(s.base_key(), 100);
        assert_eq!(s.key_of(7), 107);
        assert_eq!(arena.info(107).as_id, AsId(1));
    }

    #[test]
    fn geometry_counts() {
        let (s, _) = space(1025);
        assert_eq!(s.pages(), 1025);
        assert_eq!(s.lines(), 129); // ceil(1025/8)
        assert_eq!(s.regions(), 3); // ceil(1025/512)
        assert_eq!(s.region_vpns(2), 1024..1025);
        assert_eq!(s.line_vpns(128), 1024..1025);
    }

    #[test]
    fn scan_line_mask_clears_and_reports() {
        let (mut s, _) = space(16);
        for vpn in [0u32, 2, 9] {
            s.map(vpn, vpn as FrameId + 100);
            s.mark_accessed(vpn, true);
        }
        let (mask, examined) = s.scan_line_mask(0);
        assert_eq!(examined, 8);
        assert_eq!(line_hits(0, mask), vec![0, 2]);
        assert!(!s.accessed(0));
        assert!(
            s.pte(0).dirty() && s.pte(0).frame() == Some(100),
            "the scan keeps the PTE"
        );
        // second scan finds nothing
        let (mask, _) = s.scan_line_mask(0);
        assert_eq!(mask, 0);
        // line 1 still has vpn 9 accessed
        let (mask, _) = s.scan_line_mask(1);
        assert_eq!(line_hits(1, mask), vec![9]);
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn scan_region_clears_and_reports() {
        let (mut s, _) = space(1200);
        for vpn in [0u32, 2, 63, 64, 300, 511, 512, 1199] {
            s.map(vpn, vpn as FrameId + 7);
            s.mark_accessed(vpn, true);
        }
        let mut words = [0u64; WORDS_PER_REGION];
        let examined = s.scan_region(0, &mut words);
        assert_eq!(examined, 512);
        assert_eq!(region_hits(0, &words), vec![0, 2, 63, 64, 300, 511]);
        assert!(!s.accessed(0));
        assert!(
            s.pte(0).dirty() && s.pte(0).frame() == Some(7),
            "the scan keeps the PTE"
        );
        // a second scan over a now-cold region reports nothing
        let examined = s.scan_region(0, &mut words);
        assert_eq!((examined, words), (512, [0u64; WORDS_PER_REGION]));
        // the partial trailing region clamps examined to the space
        let examined = s.scan_region(2, &mut words);
        assert_eq!(examined, 1200 - 1024);
        assert_eq!(region_hits(2, &words), vec![1199]);
        // region 1 untouched by the other scans
        let examined = s.scan_region(1, &mut words);
        assert_eq!(examined, 512);
        assert_eq!(region_hits(1, &words), vec![512]);
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn region_present_count_tracks_mappings() {
        let (mut s, _) = space(1024);
        assert_eq!(s.region_present_count(0), 0);
        for vpn in 0..10 {
            s.map(vpn, vpn as FrameId);
        }
        s.map(600, 99);
        assert_eq!(s.region_present_count(0), 10);
        assert_eq!(s.region_present_count(1), 1);
        assert_eq!(s.resident_pages(), 11);
        s.set_swapped(600, 5);
        assert_eq!(s.region_present_count(1), 0);
        s.clear_mapping(3);
        assert_eq!(s.region_present_count(0), 9);
        assert_eq!(s.resident_pages(), 9);
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn unmap_paths_drop_young_bits() {
        let (mut s, _) = space(64);
        for vpn in 0..4 {
            s.map(vpn, vpn as FrameId);
            s.mark_accessed(vpn, true);
        }
        s.set_swapped(0, 1);
        s.clear_mapping(1);
        s.map(2, 77); // remap clears hardware bits
        assert_eq!(s.region_present_count(0), 2);
        assert_eq!(
            (0..4).map(|v| s.accessed(v)).collect::<Vec<_>>(),
            [false, false, false, true]
        );
        assert!(!s.pte(2).dirty(), "remap clears dirty");
        let (mask, _) = s.scan_line_mask(0);
        assert_eq!(line_hits(0, mask), vec![3]);
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn rmap_probe_is_bitmap_first() {
        let (mut s, _) = space(8);
        s.map(5, 1);
        assert!(!s.test_and_clear_accessed(5));
        s.mark_accessed(5, true);
        assert!(s.test_and_clear_accessed(5));
        assert!(!s.test_and_clear_accessed(5));
        assert!(!s.accessed(5));
        assert!(
            s.pte(5).dirty() && s.pte(5).frame() == Some(1),
            "the probe keeps the PTE"
        );
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn write_sets_dirty() {
        let (mut s, _) = space(4);
        s.map(1, 7);
        s.mark_accessed(1, true);
        assert!(s.pte(1).dirty());
        assert!(s.accessed(1));
        s.mark_accessed(1, false);
        assert!(s.pte(1).dirty(), "reads must not clear dirty");
        s.set_dirty(1);
        assert!(s.pte(1).dirty());
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn coherence_check_names_each_disagreement() {
        let kind = |s: &AddressSpace| s.check_bitmap_coherence().map_err(|e| e.kind);
        let (mut s, _) = space(100);
        s.map(4, 1);
        s.mark_accessed(4, false);
        assert_eq!(kind(&s), Ok(()));
        s.accessed[0] |= 1 << 5;
        assert_eq!(kind(&s), Err(CoherenceKind::AccessedNotPresent { vpn: 5 }));
        s.accessed[0] &= !(1 << 5);
        s.accessed[1] |= 1 << 40;
        assert_eq!(kind(&s), Err(CoherenceKind::TailBits));
        s.accessed[1] = 0;
        s.region_present[0] = 2;
        assert_eq!(
            kind(&s),
            Err(CoherenceKind::RegionPresent {
                region: 0,
                ptes: 1,
                count: 2
            })
        );
    }
}
