//! Page-table entries.

use crate::phys::FrameId;

const FLAG_PRESENT: u64 = 1 << 0;
const FLAG_DIRTY: u64 = 1 << 1;
const FLAG_SWAPPED: u64 = 1 << 2;
const PAYLOAD_SHIFT: u32 = 8;
const PAYLOAD_MASK: u64 = 0xFFFF_FFFF << PAYLOAD_SHIFT;

/// A simulated page-table entry.
///
/// Holds *present*, *dirty* (set on stores, decides whether eviction
/// needs a write-back) and a payload holding either the backing frame
/// (present) or the swap slot (swapped out). The accessed bit the policies
/// scan lives in the owning [`AddressSpace`](crate::AddressSpace)'s bitmap,
/// not here.
///
/// ```rust
/// use pagesim_mem::Pte;
/// let mut pte = Pte::empty();
/// assert!(!pte.present());
/// pte.set_mapped(42);
/// pte.set_dirty();
/// assert_eq!(pte.frame(), Some(42));
/// assert!(pte.dirty());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pte(u64);

impl Pte {
    /// An entry that maps nothing: not present, not swapped.
    pub const fn empty() -> Pte {
        Pte(0)
    }

    /// Whether the page is resident in a physical frame.
    pub const fn present(self) -> bool {
        self.0 & FLAG_PRESENT != 0
    }

    /// Whether the page has been written since the last clean.
    pub const fn dirty(self) -> bool {
        self.0 & FLAG_DIRTY != 0
    }

    /// Whether the page lives in a swap slot.
    pub const fn swapped(self) -> bool {
        self.0 & FLAG_SWAPPED != 0
    }

    /// The backing frame if present.
    pub fn frame(self) -> Option<FrameId> {
        self.present()
            .then_some(((self.0 & PAYLOAD_MASK) >> PAYLOAD_SHIFT) as FrameId)
    }

    /// The swap slot if swapped out.
    pub fn swap_slot(self) -> Option<u32> {
        self.swapped()
            .then_some(((self.0 & PAYLOAD_MASK) >> PAYLOAD_SHIFT) as u32)
    }

    /// Maps the page to `frame`, clearing any swap state. The dirty bit
    /// starts clear (a faulting store sets it).
    pub fn set_mapped(&mut self, frame: FrameId) {
        self.0 = FLAG_PRESENT | ((frame as u64) << PAYLOAD_SHIFT);
    }

    /// Unmaps the page into swap slot `slot`, clearing all hardware bits.
    pub fn set_swapped(&mut self, slot: u32) {
        self.0 = FLAG_SWAPPED | ((slot as u64) << PAYLOAD_SHIFT);
    }

    /// Clears the mapping entirely (page discarded without a swap slot,
    /// e.g. a clean file page).
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Hardware sets the dirty bit on a store.
    pub fn set_dirty(&mut self) {
        debug_assert!(self.present(), "dirty bit on non-present PTE");
        self.0 |= FLAG_DIRTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pte_maps_nothing() {
        let p = Pte::empty();
        assert!(!p.present() && !p.swapped() && !p.dirty());
        assert_eq!(p.frame(), None);
        assert_eq!(p.swap_slot(), None);
    }

    #[test]
    fn map_swap_roundtrip() {
        let mut p = Pte::empty();
        p.set_mapped(0xABCD);
        assert_eq!(p.frame(), Some(0xABCD));
        assert_eq!(p.swap_slot(), None);
        p.set_swapped(0x1234);
        assert!(!p.present());
        assert_eq!(p.swap_slot(), Some(0x1234));
        assert_eq!(p.frame(), None);
    }

    #[test]
    fn mapping_clears_hardware_bits() {
        let mut p = Pte::empty();
        p.set_mapped(1);
        p.set_dirty();
        p.set_mapped(2);
        assert!(!p.dirty());
        assert_eq!(p.frame(), Some(2));
    }

    #[test]
    fn max_frame_id_roundtrips() {
        let mut p = Pte::empty();
        p.set_mapped(u32::MAX as FrameId);
        assert_eq!(p.frame(), Some(u32::MAX as FrameId));
    }
}
