//! Page-table entries.

use crate::phys::FrameId;

const FLAG_PRESENT: u64 = 1 << 0;
const FLAG_ACCESSED: u64 = 1 << 1;
const FLAG_DIRTY: u64 = 1 << 2;
const FLAG_SWAPPED: u64 = 1 << 3;
const PAYLOAD_SHIFT: u32 = 8;
const PAYLOAD_MASK: u64 = 0xFFFF_FFFF << PAYLOAD_SHIFT;

/// A simulated page-table entry.
///
/// Mirrors the bits the studied policies actually consume: *present*,
/// *accessed* (set by the simulated MMU on every touch, cleared by policy
/// scans), *dirty* (set on stores, decides whether eviction needs a
/// write-back), plus a payload holding either the backing frame (present)
/// or the swap slot (swapped out).
///
/// ```rust
/// use pagesim_mem::Pte;
/// let mut pte = Pte::empty();
/// assert!(!pte.present());
/// pte.set_mapped(42);
/// pte.set_accessed();
/// assert_eq!(pte.frame(), Some(42));
/// assert!(pte.test_and_clear_accessed());
/// assert!(!pte.accessed());
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

    /// Whether the hardware accessed bit is set.
    pub const fn accessed(self) -> bool {
        self.0 & FLAG_ACCESSED != 0
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

    /// Maps the page to `frame`, clearing any swap state. Accessed and
    /// dirty bits start clear (the faulting access will set them).
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

    /// Hardware sets the accessed bit on a touch.
    pub fn set_accessed(&mut self) {
        debug_assert!(self.present(), "accessed bit on non-present PTE");
        self.0 |= FLAG_ACCESSED;
    }

    /// Hardware sets the dirty bit on a store.
    pub fn set_dirty(&mut self) {
        debug_assert!(self.present(), "dirty bit on non-present PTE");
        self.0 |= FLAG_DIRTY;
    }

    /// Policy scan primitive: reads and clears the accessed bit.
    pub fn test_and_clear_accessed(&mut self) -> bool {
        let was = self.accessed();
        self.0 &= !FLAG_ACCESSED;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pte_maps_nothing() {
        let p = Pte::empty();
        assert!(!p.present() && !p.swapped() && !p.accessed() && !p.dirty());
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
        p.set_accessed();
        p.set_dirty();
        p.set_mapped(2);
        assert!(!p.accessed());
        assert!(!p.dirty());
        assert_eq!(p.frame(), Some(2));
    }

    #[test]
    fn test_and_clear_semantics() {
        let mut p = Pte::empty();
        p.set_mapped(9);
        assert!(!p.test_and_clear_accessed());
        p.set_accessed();
        assert!(p.test_and_clear_accessed());
        assert!(!p.test_and_clear_accessed());
    }

    #[test]
    fn dirty_survives_accessed_clear() {
        let mut p = Pte::empty();
        p.set_mapped(3);
        p.set_dirty();
        p.set_accessed();
        p.test_and_clear_accessed();
        assert!(p.dirty());
    }

    #[test]
    fn max_frame_id_roundtrips() {
        let mut p = Pte::empty();
        p.set_mapped(u32::MAX as FrameId);
        assert_eq!(p.frame(), Some(u32::MAX as FrameId));
    }
}
