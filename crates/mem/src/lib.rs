//! # pagesim-mem
//!
//! The simulated memory substrate beneath the `pagesim` replacement-policy
//! study: per-address-space leaf page tables with x86-64 leaf geometry
//! (page-table entries carrying present and dirty bits, and one packed
//! accessed bitmap per space that the MMU touch sets and policy scans
//! clear), a physical frame pool with Linux-style watermarks, and
//! reverse-map ownership.
//!
//! ## Geometry
//!
//! The paper's MG-LRU results hinge on page-table *shape*: the aging thread
//! scans leaf page tables linearly, the bloom filter works at PMD-region
//! granularity (512 PTEs), and "hot" regions are defined in units of PTE
//! cache lines (8 PTEs per 64-byte line). Those three constants are
//! preserved exactly ([`PAGE_SIZE`], [`PTES_PER_LINE`], [`PTES_PER_REGION`]).
//!
//! ## Example
//!
//! ```rust
//! use pagesim_mem::{AddressSpace, AsId, PageArena, PhysMem, Watermarks};
//!
//! let mut arena = PageArena::new();
//! let mut space = AddressSpace::new(AsId(0), 1024, &mut arena);
//! let mut phys = PhysMem::new(512, Watermarks::for_capacity(512));
//!
//! let frame = phys.allocate(space.key_of(3)).unwrap();
//! space.map(3, frame);
//! space.mark_accessed(3, false);
//! assert!(space.pte(3).present() && space.accessed(3));
//! ```

// H4: simulated state is integer arithmetic, identical on every host.
// Float arithmetic is limited to report-only helpers and constructors,
// each under a narrow `#[expect]` that gives its reason.
#![deny(clippy::float_arithmetic)]

mod addrspace;
mod arena;
mod phys;
mod pte;

pub use addrspace::{AddressSpace, CoherenceError, CoherenceKind};
pub use arena::{EntropyClass, PageArena, PageInfo, PageKey};
pub use phys::{FrameId, FrameState, PhysMem, Watermarks};
pub use pte::Pte;

/// Bytes per page (4 KiB, matching the paper's testbed).
pub const PAGE_SIZE: usize = 4096;

/// PTEs per 64-byte cache line (8 × 8-byte entries). MG-LRU's default
/// bloom-filter admission rule is "at least one accessed PTE per cache
/// line" of a region.
pub const PTES_PER_LINE: usize = 8;

/// PTEs per PMD region (one leaf page table page: 512 entries covering
/// 2 MiB). This is the granularity at which MG-LRU's bloom filter filters
/// aging scans.
pub const PTES_PER_REGION: usize = 512;

/// Cache lines per PMD region.
pub const LINES_PER_REGION: usize = PTES_PER_REGION / PTES_PER_LINE;

/// Pages covered by one word of an address space's accessed bitmap.
pub const PTES_PER_WORD: usize = 64;

/// Accessed-bitmap words per PMD region — one 64-byte line, which a region
/// scan reads instead of [`PTES_PER_REGION`] branchy PTE reads.
pub const WORDS_PER_REGION: usize = PTES_PER_REGION / PTES_PER_WORD;

/// Identifies a simulated address space (process).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AsId(pub u16);

/// A virtual page number within an address space.
pub type Vpn = u32;

/// Index of a PTE cache line within an address space (`vpn / 8`).
pub type LineIdx = u32;

/// Index of a PMD region within an address space (`vpn / 512`).
pub type RegionIdx = u32;

/// The cache line containing `vpn`.
pub const fn line_of(vpn: Vpn) -> LineIdx {
    vpn / PTES_PER_LINE as u32
}

/// The PMD region containing `vpn`.
pub const fn region_of(vpn: Vpn) -> RegionIdx {
    vpn / PTES_PER_REGION as u32
}

/// The bitmap word index and bit mask covering `vpn`.
pub const fn word_bit_of(vpn: Vpn) -> (usize, u64) {
    (
        (vpn / PTES_PER_WORD as u32) as usize,
        1u64 << (vpn % PTES_PER_WORD as u32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(PTES_PER_REGION % PTES_PER_LINE, 0);
        assert_eq!(LINES_PER_REGION, 64);
        assert_eq!(PAGE_SIZE / 8, PTES_PER_REGION);
        assert_eq!(WORDS_PER_REGION, 8);
        assert_eq!(PTES_PER_WORD % PTES_PER_LINE, 0);
    }

    #[test]
    fn word_bit_mapping() {
        assert_eq!(word_bit_of(0), (0, 1));
        assert_eq!(word_bit_of(63), (0, 1 << 63));
        assert_eq!(word_bit_of(64), (1, 1));
        assert_eq!(word_bit_of(511), (7, 1 << 63));
        assert_eq!(word_bit_of(512), (8, 1));
    }

    #[test]
    fn line_and_region_mapping() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(7), 0);
        assert_eq!(line_of(8), 1);
        assert_eq!(region_of(511), 0);
        assert_eq!(region_of(512), 1);
        assert_eq!(region_of(1024), 2);
    }
}
