//! The scan-cost model.

use pagesim_engine::Nanos;

/// CPU costs of the memory-management primitives policies execute.
///
/// These relative costs are the causal mechanism behind most of the
/// paper's findings: Clock pays [`rmap_walk_ns`](Self::rmap_walk_ns) (a
/// pointer chase through the reverse map) per accessed-bit probe, while
/// MG-LRU's linear walks pay [`pte_scan_ns`](Self::pte_scan_ns) per PTE —
/// more than an order of magnitude cheaper per entry — at the risk of
/// scanning entries that didn't need scanning (the `Scan-All` pathology).
///
/// Defaults are calibrated to DRAM-era microarchitecture: a dependent
/// pointer chase costs a few hundred ns (rmap: folio → anon_vma → vma →
/// page table), while streaming over a 64-byte PTE cache line costs a few
/// ns per entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Reverse-map walk + PTE probe for one page (pointer chasing).
    pub rmap_walk_ns: Nanos,
    /// One PTE examined during a linear page-table scan.
    pub pte_scan_ns: Nanos,
    /// Checking one PMD region against the bloom filter (or the scan-mode
    /// decision) during an aging walk.
    pub region_check_ns: Nanos,
    /// Moving a page between LRU lists / generations (O(1) but not free).
    pub list_op_ns: Nanos,
    /// Fixed software overhead of selecting one victim (unmap, TLB
    /// shootdown request, swap-slot bookkeeping).
    pub evict_fixed_ns: Nanos,
}

impl CostModel {
    /// Scales the *footprint-proportional* scan costs by a
    /// page-compression factor.
    ///
    /// The simulator shrinks multi-GB footprints to tens of thousands of
    /// pages so runs finish in seconds. Fault and eviction counts are
    /// calibrated 1:1 against the paper's measured event counts, so
    /// per-event costs (rmap walks, list moves, evictions) must stay
    /// unscaled. What the shrink silently deflates is the cost of walking
    /// the *whole* page table — each simulated leaf entry stands for
    /// `factor` real entries — so only the linear-walk primitives
    /// (`pte_scan_ns`, `region_check_ns`) are multiplied. This restores
    /// the paper's scan-overhead-to-fault-cost balance (its central
    /// tension, §VI-B) without distorting Clock's per-eviction rmap cost.
    pub const fn with_page_compression(self, factor: u64) -> CostModel {
        CostModel {
            rmap_walk_ns: self.rmap_walk_ns,
            pte_scan_ns: self.pte_scan_ns * factor,
            region_check_ns: self.region_check_ns * factor,
            list_op_ns: self.list_op_ns,
            evict_fixed_ns: self.evict_fixed_ns,
        }
    }
}

impl Default for CostModel {
    /// Calibrated defaults (see struct docs).
    fn default() -> Self {
        CostModel {
            rmap_walk_ns: 350,
            pte_scan_ns: 6,
            region_check_ns: 60,
            list_op_ns: 25,
            evict_fixed_ns: 1_200,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmap_dwarfs_linear_scan() {
        let c = CostModel::default();
        // The whole MG-LRU premise: a pointer chase costs far more than a
        // linearly scanned PTE.
        assert!(c.rmap_walk_ns > 20 * c.pte_scan_ns);
    }
}
