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

/// The specific bitmap/PTE disagreement behind a [`CoherenceError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceKind {
    /// `present` bitmap bit disagrees with `Pte::present()`.
    PresentBit {
        /// Page whose bit disagrees.
        vpn: Vpn,
        /// The bitmap's value (the PTE holds the opposite).
        bitmap: bool,
    },
    /// `accessed` bitmap bit disagrees with `Pte::accessed()`.
    AccessedBit {
        /// Page whose bit disagrees.
        vpn: Vpn,
        /// The bitmap's value (the PTE holds the opposite).
        bitmap: bool,
    },
    /// Bits set past the last page in the final partial word.
    TailBits,
    /// Region present-count out of sync with the bitmap popcount.
    RegionPresent {
        /// Region whose counter disagrees.
        region: RegionIdx,
        /// Popcount of the region's bitmap words.
        bits: u32,
        /// Incrementally maintained counter value.
        count: u32,
    },
    /// Region young-count out of sync with the bitmap popcount.
    RegionYoung {
        /// Region whose counter disagrees.
        region: RegionIdx,
        /// Popcount of the region's bitmap words.
        bits: u32,
        /// Incrementally maintained counter value.
        count: u32,
    },
}

impl std::fmt::Display for CoherenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let space = self.space;
        match self.kind {
            CoherenceKind::PresentBit { vpn, bitmap } => write!(
                f,
                "space {space:?} vpn {vpn}: present bit {bitmap} but PTE present {}",
                !bitmap
            ),
            CoherenceKind::AccessedBit { vpn, bitmap } => write!(
                f,
                "space {space:?} vpn {vpn}: accessed bit {bitmap} but PTE accessed {}",
                !bitmap
            ),
            CoherenceKind::TailBits => {
                write!(f, "space {space:?}: bitmap bits set beyond the last page")
            }
            CoherenceKind::RegionPresent {
                region,
                bits,
                count,
            } => write!(
                f,
                "space {space:?} region {region}: {bits} present bits but count {count}"
            ),
            CoherenceKind::RegionYoung {
                region,
                bits,
                count,
            } => write!(
                f,
                "space {space:?} region {region}: {bits} accessed bits but count {count}"
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
/// ## Sidecar bitmaps
///
/// Next to the `Vec<Pte>` the space keeps packed `present` and `accessed`
/// bitmaps (one bit per PTE, 64 PTEs per `u64` word) plus per-PMD-region
/// population counts of present and accessed ("young") PTEs. The `Vec<Pte>`
/// stays authoritative; every mutation goes through methods on this type so
/// the bitmaps never diverge (the real kernel's sparse accessed-bit
/// harvesting plays the same trick). Scans then cost 8 word loads per
/// 512-PTE region when cold — or one counter load when the region has no
/// young pages at all — instead of 512 branchy PTE reads, while producing
/// byte-identical results and visit order.
#[derive(Debug)]
pub struct AddressSpace {
    id: AsId,
    base_key: PageKey,
    ptes: Vec<Pte>,
    /// Bit `vpn % 64` of word `vpn / 64` mirrors `ptes[vpn].present()`.
    present: Vec<u64>,
    /// Bit `vpn % 64` of word `vpn / 64` mirrors `ptes[vpn].accessed()`.
    accessed: Vec<u64>,
    /// Present PTEs per PMD region (`popcount` of the region's `present`
    /// words, maintained incrementally).
    region_present: Vec<u32>,
    /// Accessed PTEs per PMD region — zero lets a scan skip the whole
    /// region without touching the bitmap.
    region_young: Vec<u32>,
}

impl AddressSpace {
    /// Creates a space with `pages` virtual pages and registers them in
    /// `arena`.
    pub fn new(id: AsId, pages: u32, arena: &mut PageArena) -> Self {
        let base_key = arena.register_space(id, pages);
        let words = (pages as usize).div_ceil(PTES_PER_WORD);
        let regions = (pages as usize).div_ceil(PTES_PER_REGION);
        AddressSpace {
            id,
            base_key,
            ptes: vec![Pte::empty(); pages as usize],
            present: vec![0; words],
            accessed: vec![0; words],
            region_present: vec![0; regions],
            region_young: vec![0; regions],
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

    /// Installs a mapping after a fault.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId) {
        let (w, b) = word_bit_of(vpn);
        if self.accessed[w] & b != 0 {
            self.accessed[w] &= !b;
            self.region_young[region_of(vpn) as usize] -= 1;
        }
        if self.present[w] & b == 0 {
            self.present[w] |= b;
            self.region_present[region_of(vpn) as usize] += 1;
        }
        self.ptes[vpn as usize].set_mapped(frame);
    }

    /// Unmaps the page into swap slot `slot`.
    pub fn set_swapped(&mut self, vpn: Vpn, slot: u32) {
        self.drop_bits(vpn);
        self.ptes[vpn as usize].set_swapped(slot);
    }

    /// Clears the mapping entirely (page discarded without a swap slot,
    /// e.g. a clean file page, or a dying thread's table).
    pub fn clear_mapping(&mut self, vpn: Vpn) {
        self.drop_bits(vpn);
        self.ptes[vpn as usize].clear();
    }

    /// Drops the sidecar present/accessed bits of `vpn` ahead of a PTE
    /// write that clears its hardware bits.
    fn drop_bits(&mut self, vpn: Vpn) {
        let (w, b) = word_bit_of(vpn);
        if self.accessed[w] & b != 0 {
            self.accessed[w] &= !b;
            self.region_young[region_of(vpn) as usize] -= 1;
        }
        if self.present[w] & b != 0 {
            self.present[w] &= !b;
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
        pte.set_accessed();
        if write {
            pte.set_dirty();
        }
        let (w, b) = word_bit_of(vpn);
        if self.accessed[w] & b == 0 {
            self.accessed[w] |= b;
            self.region_young[region_of(vpn) as usize] += 1;
        }
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

    /// Reverse-map probe: test-and-clear the accessed bit of one PTE.
    /// Bitmap-first — a cold page answers from the sidecar word without
    /// touching the PTE array.
    pub fn test_and_clear_accessed(&mut self, vpn: Vpn) -> bool {
        let (w, b) = word_bit_of(vpn);
        if self.accessed[w] & b == 0 {
            return false;
        }
        self.accessed[w] &= !b;
        self.region_young[region_of(vpn) as usize] -= 1;
        self.ptes[vpn as usize].test_and_clear_accessed()
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
    pub fn scan_region(&mut self, region: RegionIdx, words: &mut [u64; WORDS_PER_REGION]) -> u32 {
        let range = self.region_vpns(region);
        let examined = range.end - range.start;
        if self.region_young[region as usize] == 0 {
            // No young PTEs anywhere in the region: 1 counter load.
            *words = [0; WORDS_PER_REGION];
            return examined;
        }
        let first_word = range.start as usize / PTES_PER_WORD;
        for (i, slot) in words.iter_mut().enumerate() {
            let Some(word) = self.accessed.get_mut(first_word + i) else {
                *slot = 0;
                continue;
            };
            let mask = std::mem::take(word);
            *slot = mask;
            // Keep the authoritative PTE flags coherent: only the set
            // bits cost a PTE write.
            let mut bits = mask;
            while bits != 0 {
                let vpn = range.start + i as u32 * PTES_PER_WORD as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                self.ptes[vpn as usize].test_and_clear_accessed();
            }
        }
        self.region_young[region as usize] = 0;
        examined
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
        let examined = range.end - range.start;
        let (w, _) = word_bit_of(range.start);
        let shift = range.start % PTES_PER_WORD as u32;
        let mask = ((self.accessed[w] >> shift) & 0xFF) as u8;
        if mask != 0 {
            self.accessed[w] &= !((mask as u64) << shift);
            self.region_young[region_of(range.start) as usize] -= mask.count_ones();
            let mut bits = mask;
            while bits != 0 {
                let vpn = range.start + bits.trailing_zeros();
                bits &= bits - 1;
                self.ptes[vpn as usize].test_and_clear_accessed();
            }
        }
        (mask, examined)
    }

    /// Present PTEs in a region (lets linear walks skip unmapped table
    /// areas). O(1): maintained incrementally by the mapping paths.
    pub fn region_present_count(&self, region: RegionIdx) -> u32 {
        self.region_present[region as usize]
    }

    /// Accessed PTEs in a region since the last scan. O(1).
    pub fn region_young_count(&self, region: RegionIdx) -> u32 {
        self.region_young[region as usize]
    }

    /// Number of resident pages in the whole space.
    pub fn resident_pages(&self) -> u32 {
        self.region_present.iter().sum()
    }

    /// Verifies the sidecar bitmaps and region counters against the
    /// authoritative `Vec<Pte>`. Cold diagnostic for the sanitize invariant
    /// sweep and property tests; returns the first mismatch. Allocation-free:
    /// the error carries indices only and formats lazily via `Display`, so
    /// the sweep itself stays clean under the hot-path lint.
    pub fn check_bitmap_coherence(&self) -> Result<(), CoherenceError> {
        for vpn in 0..self.pages() {
            let pte = self.ptes[vpn as usize];
            let (w, b) = word_bit_of(vpn);
            let bit = self.present[w] & b != 0;
            if bit != pte.present() {
                return Err(CoherenceError {
                    space: self.id,
                    kind: CoherenceKind::PresentBit { vpn, bitmap: bit },
                });
            }
            let bit = self.accessed[w] & b != 0;
            if bit != pte.accessed() {
                return Err(CoherenceError {
                    space: self.id,
                    kind: CoherenceKind::AccessedBit { vpn, bitmap: bit },
                });
            }
        }
        let tail = self.pages() as usize % PTES_PER_WORD;
        if tail != 0 {
            let last = self.present.len() - 1;
            let beyond = !((1u64 << tail) - 1);
            if self.present[last] & beyond != 0 || self.accessed[last] & beyond != 0 {
                return Err(CoherenceError {
                    space: self.id,
                    kind: CoherenceKind::TailBits,
                });
            }
        }
        for region in 0..self.regions() {
            let first_word = region as usize * WORDS_PER_REGION;
            let words =
                &self.present[first_word..self.present.len().min(first_word + WORDS_PER_REGION)];
            let bits: u32 = words.iter().map(|w| w.count_ones()).sum();
            let count = self.region_present[region as usize];
            if bits != count {
                return Err(CoherenceError {
                    space: self.id,
                    kind: CoherenceKind::RegionPresent {
                        region,
                        bits,
                        count,
                    },
                });
            }
            let words =
                &self.accessed[first_word..self.accessed.len().min(first_word + WORDS_PER_REGION)];
            let bits: u32 = words.iter().map(|w| w.count_ones()).sum();
            let count = self.region_young[region as usize];
            if bits != count {
                return Err(CoherenceError {
                    space: self.id,
                    kind: CoherenceKind::RegionYoung {
                        region,
                        bits,
                        count,
                    },
                });
            }
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
            s.mark_accessed(vpn, false);
        }
        let (mask, examined) = s.scan_line_mask(0);
        assert_eq!(examined, 8);
        assert_eq!(line_hits(0, mask), vec![0, 2]);
        assert!(!s.pte(0).accessed());
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
            s.mark_accessed(vpn, false);
        }
        let mut words = [0u64; WORDS_PER_REGION];
        let examined = s.scan_region(0, &mut words);
        assert_eq!(examined, 512);
        assert_eq!(region_hits(0, &words), vec![0, 2, 63, 64, 300, 511]);
        assert_eq!(s.region_young_count(0), 0);
        assert!(!s.pte(0).accessed());
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
        assert_eq!(s.region_young_count(0), 4);
        s.set_swapped(0, 1);
        s.clear_mapping(1);
        s.map(2, 77); // remap clears hardware bits
        assert_eq!(s.region_young_count(0), 1);
        let (mask, _) = s.scan_line_mask(0);
        assert_eq!(line_hits(0, mask), vec![3]);
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn rmap_probe_is_bitmap_first() {
        let (mut s, _) = space(8);
        s.map(5, 1);
        assert!(!s.test_and_clear_accessed(5));
        s.mark_accessed(5, false);
        assert!(s.test_and_clear_accessed(5));
        assert!(!s.test_and_clear_accessed(5));
        assert!(!s.pte(5).accessed());
        s.check_bitmap_coherence().unwrap();
    }

    #[test]
    fn write_sets_dirty() {
        let (mut s, _) = space(4);
        s.map(1, 7);
        s.mark_accessed(1, true);
        assert!(s.pte(1).dirty());
        assert!(s.pte(1).accessed());
        s.mark_accessed(1, false);
        assert!(s.pte(1).dirty(), "reads must not clear dirty");
        s.set_dirty(1);
        assert!(s.pte(1).dirty());
        s.check_bitmap_coherence().unwrap();
    }
}
