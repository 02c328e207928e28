//! The kernel-memory interface policies program against.

use pagesim_mem::{AsId, LineIdx, PageInfo, PageKey, RegionIdx, Vpn, WORDS_PER_REGION};

/// Services the simulated kernel exposes to replacement policies.
///
/// The methods mirror the real primitives the studied policies use:
/// reverse-map probes (expensive pointer chases), linear leaf-table scans
/// (cheap per entry), and page-table geometry queries for the bloom filter.
/// Implementations must *not* account CPU cost — policies do that through
/// their [`CostModel`](crate::CostModel) so the cost structure stays an
/// explicit, tunable part of the study.
pub trait MemView {
    /// Total registered pages (sizes the policies' metadata arenas).
    fn total_pages(&self) -> u32;

    /// Identity/attributes of a page.
    fn page_info(&self, key: PageKey) -> PageInfo;

    /// Whether the page is resident.
    fn is_resident(&self, key: PageKey) -> bool;

    /// Whether the page is dirty (would need write-back on eviction).
    fn is_dirty(&self, key: PageKey) -> bool;

    /// Reverse-map probe: test-and-clear the accessed bit of a resident
    /// page. The Clock policy's only tracking primitive.
    fn rmap_test_clear_accessed(&mut self, key: PageKey) -> bool;

    /// Linear scan of one whole PMD region: fills `words` with the
    /// accessed-bit masks of the region's PTEs (bit `i` of word `w` = vpn
    /// `region*512 + w*64 + i` was present and accessed; bits are cleared)
    /// and returns the number of PTEs examined for cost accounting. The
    /// word-level form of the kernel's linear leaf-table walk: a cold
    /// region costs a handful of word loads instead of 512 PTE reads.
    fn scan_region(
        &mut self,
        space: AsId,
        region: RegionIdx,
        words: &mut [u64; WORDS_PER_REGION],
    ) -> u32;

    /// Linear scan of one PTE cache line, returning `(mask, examined)`:
    /// bit `i` of `mask` = vpn `line*8 + i` was present and accessed (bits
    /// are cleared). The eviction scan's spatial lookaround primitive.
    fn scan_line_mask(&mut self, space: AsId, line: LineIdx) -> (u8, u32);

    /// Global key of a page by address.
    fn key_at(&self, space: AsId, vpn: Vpn) -> PageKey;

    /// Number of address spaces the aging walk must cover; spaces are
    /// identified densely as `AsId(0..count)`.
    fn space_count(&self) -> u16;

    /// Number of PMD regions in a space's leaf table.
    fn region_count(&self, space: AsId) -> u32;

    /// Present PTEs in a region — zero lets linear walks skip unmapped
    /// stretches of the table.
    fn region_present_count(&self, space: AsId, region: RegionIdx) -> u32;
}

/// In-memory [`MemView`] double for unit tests (one address space, direct
/// control of every bit). Hidden from docs; exposed so downstream crates'
/// tests can reuse it.
#[doc(hidden)]
pub mod tests_support {
    use super::*;
    use crate::{Policy, ReclaimOutcome};
    use pagesim_mem::{EntropyClass, PTES_PER_LINE, PTES_PER_REGION, PTES_PER_WORD};

    /// Runs one [`Policy::reclaim`] of up to `want` victims into a fresh
    /// buffer; returns the outcome and the victims it wrote.
    pub fn reclaim_vec(
        policy: &mut dyn Policy,
        want: usize,
        mem: &mut dyn MemView,
    ) -> (ReclaimOutcome, Vec<PageKey>) {
        let mut victims = vec![0; want];
        let out = policy.reclaim(&mut victims, mem);
        victims.truncate(out.victims);
        (out, victims)
    }

    /// A fake single-space memory with directly settable bits.
    #[derive(Debug)]
    pub struct FakeMem {
        pages: u32,
        resident: Vec<bool>,
        accessed: Vec<bool>,
        file: Vec<bool>,
        /// Counters so tests can assert on probe traffic.
        pub rmap_probes: u64,
        pub lines_scanned: u64,
        pub regions_scanned: u64,
    }

    impl FakeMem {
        /// All pages non-resident initially.
        pub fn new(pages: u32) -> Self {
            FakeMem {
                pages,
                resident: vec![false; pages as usize],
                accessed: vec![false; pages as usize],
                file: vec![false; pages as usize],
                rmap_probes: 0,
                lines_scanned: 0,
                regions_scanned: 0,
            }
        }

        pub fn set_resident(&mut self, k: PageKey, v: bool) {
            self.resident[k as usize] = v;
            if !v {
                self.accessed[k as usize] = false;
            }
        }

        pub fn set_accessed(&mut self, k: PageKey, v: bool) {
            self.accessed[k as usize] = v;
        }

        pub fn set_file_backed(&mut self, k: PageKey, v: bool) {
            self.file[k as usize] = v;
        }
    }

    impl MemView for FakeMem {
        fn total_pages(&self) -> u32 {
            self.pages
        }

        fn page_info(&self, key: PageKey) -> PageInfo {
            PageInfo {
                as_id: AsId(0),
                vpn: key,
                file_backed: self.file[key as usize],
                entropy: EntropyClass::Text,
            }
        }

        fn is_resident(&self, key: PageKey) -> bool {
            self.resident[key as usize]
        }

        fn is_dirty(&self, _key: PageKey) -> bool {
            false
        }

        fn rmap_test_clear_accessed(&mut self, key: PageKey) -> bool {
            self.rmap_probes += 1;
            std::mem::take(&mut self.accessed[key as usize])
        }

        fn scan_region(
            &mut self,
            _space: AsId,
            region: RegionIdx,
            words: &mut [u64; WORDS_PER_REGION],
        ) -> u32 {
            self.regions_scanned += 1;
            let start = region * PTES_PER_REGION as u32;
            let end = (start + PTES_PER_REGION as u32).min(self.pages);
            *words = [0; WORDS_PER_REGION];
            for k in start..end {
                if self.resident[k as usize] && std::mem::take(&mut self.accessed[k as usize]) {
                    let bit = k - start;
                    words[bit as usize / PTES_PER_WORD] |= 1 << (bit as usize % PTES_PER_WORD);
                }
            }
            end.saturating_sub(start)
        }

        fn scan_line_mask(&mut self, _space: AsId, line: LineIdx) -> (u8, u32) {
            self.lines_scanned += 1;
            let start = line * PTES_PER_LINE as u32;
            let end = (start + PTES_PER_LINE as u32).min(self.pages);
            let mut mask = 0u8;
            for k in start..end {
                if self.resident[k as usize] && std::mem::take(&mut self.accessed[k as usize]) {
                    mask |= 1 << (k - start);
                }
            }
            (mask, end.saturating_sub(start))
        }

        fn key_at(&self, _space: AsId, vpn: Vpn) -> PageKey {
            vpn
        }

        fn space_count(&self) -> u16 {
            1
        }

        fn region_count(&self, _space: AsId) -> u32 {
            self.pages.div_ceil(PTES_PER_REGION as u32)
        }

        fn region_present_count(&self, _space: AsId, region: RegionIdx) -> u32 {
            let start = region * PTES_PER_REGION as u32;
            let end = (start + PTES_PER_REGION as u32).min(self.pages);
            (start..end).filter(|&k| self.resident[k as usize]).count() as u32
        }
    }
}
