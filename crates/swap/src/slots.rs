//! Swap-slot allocation and per-slot device state.
//!
//! A device has a fixed number of slots, set at construction. Linux sizes
//! `swap_info_struct->swap_map` the same way: one dense entry per slot,
//! indexed by slot offset. The simulator sizes its devices to the workload's
//! page count: each live slot is referenced by exactly one page, so the slot
//! high-water mark never exceeds it.

// L5: the SimError hot path propagates typed errors instead of panicking,
// so one bad cell cannot abort a figure sweep.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use pagesim_engine::SimTime;

/// Identifies a 4 KiB slot on a swap device.
pub type SwapSlot = u32;

/// A free-list slot allocator over a fixed number of slots.
///
/// Slots are recycled LIFO so long runs keep hitting the same device
/// region, and allocation is O(1). The free list is sized to the slot
/// count up front, so releasing a slot never reallocates.
///
/// ```rust
/// use pagesim_swap::SlotAllocator;
/// let mut a = SlotAllocator::new(8);
/// let s0 = a.allocate();
/// let s1 = a.allocate();
/// assert_ne!(s0, s1);
/// a.release(s0);
/// assert_eq!(a.allocate(), s0); // recycled
/// ```
#[derive(Debug)]
pub struct SlotAllocator {
    capacity: u32,
    next_fresh: SwapSlot,
    free: Vec<SwapSlot>,
    live: u64,
}

impl SlotAllocator {
    /// Creates an allocator over `capacity` slots.
    pub fn new(capacity: u32) -> Self {
        SlotAllocator {
            capacity,
            next_fresh: 0,
            free: Vec::with_capacity(capacity as usize),
            live: 0,
        }
    }

    /// Allocates a slot.
    ///
    /// # Panics
    ///
    /// Panics if all `capacity` slots are live.
    pub fn allocate(&mut self) -> SwapSlot {
        self.live += 1;
        if let Some(s) = self.free.pop() {
            s
        } else {
            assert!(
                self.next_fresh < self.capacity,
                "swap device full: all {} slots are live",
                self.capacity
            );
            let s = self.next_fresh;
            self.next_fresh += 1;
            s
        }
    }

    /// Releases a slot for reuse.
    pub fn release(&mut self, slot: SwapSlot) {
        debug_assert!(slot < self.next_fresh, "releasing unallocated slot");
        self.live -= 1;
        self.free.push(slot);
    }

    /// Slots currently in use.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// High-water mark of distinct slots ever allocated.
    pub fn high_water(&self) -> u32 {
        self.next_fresh
    }

    /// The fixed number of slots.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

/// DEBUG_VM-style slot-accounting sanitizer (the `sanitize` feature).
#[cfg(feature = "sanitize")]
impl SlotAllocator {
    /// Verifies the **swap-slot** accounting invariant: every slot ever
    /// minted is either live or on the free list, exactly once, and the
    /// high-water mark is within the slot count. Returns which minted
    /// slots are free, for cross-checks against per-slot state.
    ///
    /// # Panics
    ///
    /// Panics with a `sanitize: swap-slot:` message on any inconsistency.
    pub fn check_invariants(&self) -> Vec<bool> {
        assert!(
            self.next_fresh <= self.capacity,
            "sanitize: swap-slot: high water {} exceeds the {} slots",
            self.next_fresh,
            self.capacity
        );
        let mut on_free = vec![false; self.next_fresh as usize];
        for &s in &self.free {
            assert!(
                s < self.next_fresh,
                "sanitize: swap-slot: freed slot {s} was never allocated (high water {})",
                self.next_fresh
            );
            assert!(
                !on_free[s as usize],
                "sanitize: swap-slot: slot {s} on the free list twice"
            );
            on_free[s as usize] = true;
        }
        assert_eq!(
            self.live,
            self.next_fresh as u64 - self.free.len() as u64,
            "sanitize: swap-slot: live count {} vs {} minted - {} free",
            self.live,
            self.next_fresh,
            self.free.len()
        );
        on_free
    }
}

/// Dense per-slot state of a device (`swap_map` analog): the bytes a slot
/// stores and when its pending write completes.
///
/// Both arrays start zeroed, so the pages behind slots never used are
/// never touched.
#[derive(Debug)]
pub(crate) struct SlotTable {
    /// Bytes stored per slot (compressed size on ZRAM, the page on SSD);
    /// 0 while the slot holds no data.
    bytes: Vec<u32>,
    /// Completion instant, in ns, of the slot's pending write; 0 once the
    /// slot is read back or released.
    ready_ns: Vec<u64>,
}

impl SlotTable {
    /// A table for `slots` slots, all empty.
    pub(crate) fn new(slots: u32) -> Self {
        SlotTable {
            bytes: vec![0; slots as usize],
            ready_ns: vec![0; slots as usize],
        }
    }

    /// Bytes `slot` stores; 0 when empty.
    pub(crate) fn bytes(&self, slot: SwapSlot) -> u32 {
        self.bytes[slot as usize]
    }

    /// Records a write of `bytes` (non-zero) to `slot` that completes at
    /// `done_at`.
    pub(crate) fn store(&mut self, slot: SwapSlot, bytes: u32, done_at: SimTime) {
        debug_assert_ne!(bytes, 0, "a stored page takes space");
        self.bytes[slot as usize] = bytes;
        self.ready_ns[slot as usize] = done_at.as_ns();
    }

    /// When `slot`'s pending write completes; [`SimTime::ZERO`] once it
    /// has been read back.
    pub(crate) fn write_done(&self, slot: SwapSlot) -> SimTime {
        SimTime::from_ns(self.ready_ns[slot as usize])
    }

    /// A read of `slot` was submitted: the data is durable from here on.
    pub(crate) fn read_back(&mut self, slot: SwapSlot) {
        self.ready_ns[slot as usize] = 0;
    }

    /// Empties `slot`, returning the bytes it stored.
    pub(crate) fn clear(&mut self, slot: SwapSlot) -> u32 {
        self.ready_ns[slot as usize] = 0;
        std::mem::take(&mut self.bytes[slot as usize])
    }
}

#[cfg(feature = "sanitize")]
impl SlotTable {
    /// Verifies per-slot state against the allocator: a slot stores data
    /// or has a recorded write time only while it is live, and every live
    /// slot stores data. Returns the bytes stored across all slots.
    ///
    /// # Panics
    ///
    /// Panics with a `sanitize: swap-slot:` message on any inconsistency.
    pub(crate) fn check_invariants(&self, slots: &SlotAllocator, device: &str) -> u64 {
        let on_free = slots.check_invariants();
        let mut stored_bytes = 0u64;
        for (s, &free) in on_free.iter().enumerate() {
            let bytes = self.bytes[s];
            assert_eq!(
                bytes == 0,
                free,
                "sanitize: swap-slot: {device} slot {s} stores {bytes} bytes but is {}",
                if free { "free" } else { "live" }
            );
            assert!(
                self.ready_ns[s] == 0 || !free,
                "sanitize: swap-slot: {device} free slot {s} has a pending write time"
            );
            stored_bytes += u64::from(bytes);
        }
        let beyond = on_free.len();
        assert!(
            self.bytes[beyond..].iter().all(|&b| b == 0)
                && self.ready_ns[beyond..].iter().all(|&t| t == 0),
            "sanitize: swap-slot: {device} state beyond the high water {beyond}"
        );
        stored_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slots_are_sequential() {
        let mut a = SlotAllocator::new(8);
        assert_eq!(a.allocate(), 0);
        assert_eq!(a.allocate(), 1);
        assert_eq!(a.allocate(), 2);
        assert_eq!(a.live(), 3);
        assert_eq!(a.high_water(), 3);
    }

    #[test]
    fn release_recycles_lifo() {
        let mut a = SlotAllocator::new(8);
        let s0 = a.allocate();
        let s1 = a.allocate();
        a.release(s0);
        a.release(s1);
        assert_eq!(a.allocate(), s1);
        assert_eq!(a.allocate(), s0);
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    fn live_count_tracks() {
        let mut a = SlotAllocator::new(8);
        let s = a.allocate();
        assert_eq!(a.live(), 1);
        a.release(s);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn every_slot_can_be_live_at_once() {
        let mut a = SlotAllocator::new(3);
        let slots = [a.allocate(), a.allocate(), a.allocate()];
        assert_eq!(slots, [0, 1, 2]);
        a.release(1);
        assert_eq!(a.allocate(), 1);
        assert_eq!(a.high_water(), a.capacity());
    }

    #[test]
    #[should_panic(expected = "swap device full")]
    fn allocating_past_capacity_panics() {
        let mut a = SlotAllocator::new(1);
        a.allocate();
        a.allocate();
    }

    #[test]
    fn table_tracks_bytes_and_write_time() {
        let mut t = SlotTable::new(4);
        assert_eq!(t.bytes(2), 0);
        t.store(2, 100, SimTime::from_ns(50));
        assert_eq!(t.bytes(2), 100);
        assert_eq!(t.write_done(2), SimTime::from_ns(50));
        t.read_back(2);
        assert_eq!(t.write_done(2), SimTime::ZERO);
        assert_eq!(t.bytes(2), 100, "a read keeps the data");
        assert_eq!(t.clear(2), 100);
        assert_eq!(t.bytes(2), 0);
        assert_eq!(t.clear(2), 0);
    }
}
