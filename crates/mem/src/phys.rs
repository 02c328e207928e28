//! The physical frame pool.

use crate::arena::PageKey;

/// Identifies a physical frame.
pub type FrameId = u32;

/// Lifecycle of a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameState {
    /// On the free list.
    Free,
    /// Holds a mapped page.
    InUse,
    /// Eviction chose the page and its dirty contents are being written to
    /// swap; the frame cannot be reused until the write-back completes.
    /// This is the state that makes demand faults wait on swap-out under
    /// thrashing (§VI-A of the paper).
    Writeback,
}

/// Linux-style reclaim watermarks, in frames.
///
/// * free < `low`  → background reclaim (the kswapd analog) wakes.
/// * free > `high` → background reclaim goes back to sleep.
/// * allocation with free ≤ `min` fails → the faulting thread must run
///   direct reclaim itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Watermarks {
    /// Reserve below which allocations fail over to direct reclaim.
    pub min: usize,
    /// Background-reclaim wake threshold.
    pub low: usize,
    /// Background-reclaim sleep threshold.
    pub high: usize,
}

impl Watermarks {
    /// Default watermarks for a pool of `capacity` frames: 1% / 2% / 4%
    /// with small-pool floors, mirroring the proportions Linux derives from
    /// `min_free_kbytes`.
    pub fn for_capacity(capacity: usize) -> Watermarks {
        let pct = |p: usize| (capacity * p / 100).max(4);
        let min = pct(1);
        let low = (pct(2)).max(min + 1);
        let high = (pct(4)).max(low + 1);
        Watermarks { min, low, high }
    }

    fn validate(&self, capacity: usize) {
        assert!(
            self.min < self.low && self.low < self.high && self.high < capacity,
            "watermarks must satisfy min < low < high < capacity"
        );
    }
}

/// A pool of physical frames with ownership (the reverse map) and reclaim
/// watermarks.
///
/// ```rust
/// use pagesim_mem::{PhysMem, Watermarks};
/// let mut pm = PhysMem::new(64, Watermarks::for_capacity(64));
/// let f = pm.allocate(7).unwrap();
/// assert_eq!(pm.owner(f), Some(7));
/// pm.free(f);
/// assert_eq!(pm.owner(f), None);
/// ```
#[derive(Debug)]
pub struct PhysMem {
    owner: Vec<Option<PageKey>>,
    state: Vec<FrameState>,
    free: Vec<FrameId>,
    watermarks: Watermarks,
    writeback_count: usize,
}

impl PhysMem {
    /// Creates a pool of `capacity` frames, all free.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not strictly ordered below `capacity`.
    pub fn new(capacity: usize, watermarks: Watermarks) -> Self {
        watermarks.validate(capacity);
        PhysMem {
            owner: vec![None; capacity],
            state: vec![FrameState::Free; capacity],
            // Hand out low frame numbers first (cosmetic, deterministic).
            free: (0..capacity as FrameId).rev().collect(),
            watermarks,
            writeback_count: 0,
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.owner.len()
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Frames pinned by in-flight write-back.
    pub fn writeback_frames(&self) -> usize {
        self.writeback_count
    }

    /// Whether free memory is below the background-reclaim wake threshold.
    pub fn below_low(&self) -> bool {
        self.free.len() < self.watermarks.low
    }

    /// Whether free memory has recovered above the sleep threshold.
    pub fn above_high(&self) -> bool {
        self.free.len() > self.watermarks.high
    }

    /// Whether an allocation right now would dip into the reserve
    /// (requiring direct reclaim).
    fn at_min(&self) -> bool {
        self.free.len() <= self.watermarks.min
    }

    /// Allocates a frame for page `key`. Returns `None` when only the
    /// reserve is left — the caller must reclaim first.
    pub fn allocate(&mut self, key: PageKey) -> Option<FrameId> {
        if self.at_min() {
            return None;
        }
        self.allocate_from_reserve(key)
    }

    /// Allocates even from the reserve (used by reclaim itself and by
    /// tests). Returns `None` only when truly empty.
    pub fn allocate_from_reserve(&mut self, key: PageKey) -> Option<FrameId> {
        let frame = self.free.pop()?;
        debug_assert_eq!(self.state[frame as usize], FrameState::Free);
        self.owner[frame as usize] = Some(key);
        self.state[frame as usize] = FrameState::InUse;
        Some(frame)
    }

    /// The reverse map: which page owns `frame`.
    pub fn owner(&self, frame: FrameId) -> Option<PageKey> {
        self.owner[frame as usize]
    }

    /// Frame lifecycle state.
    pub fn state(&self, frame: FrameId) -> FrameState {
        self.state[frame as usize]
    }

    /// Releases a clean frame back to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not in use.
    pub fn free(&mut self, frame: FrameId) {
        assert_eq!(
            self.state[frame as usize],
            FrameState::InUse,
            "freeing frame not in use"
        );
        self.owner[frame as usize] = None;
        self.state[frame as usize] = FrameState::Free;
        self.free.push(frame);
    }

    /// Moves a frame into the write-back state: its page is gone from the
    /// page table but the frame stays pinned until
    /// [`writeback_done`](Self::writeback_done).
    pub fn begin_writeback(&mut self, frame: FrameId) {
        assert_eq!(
            self.state[frame as usize],
            FrameState::InUse,
            "writeback of frame not in use"
        );
        self.owner[frame as usize] = None;
        self.state[frame as usize] = FrameState::Writeback;
        self.writeback_count += 1;
    }

    /// Completes a write-back, returning the frame to the free list.
    pub fn writeback_done(&mut self, frame: FrameId) {
        assert_eq!(
            self.state[frame as usize],
            FrameState::Writeback,
            "writeback_done on frame not in writeback"
        );
        self.state[frame as usize] = FrameState::Free;
        self.writeback_count -= 1;
        self.free.push(frame);
    }
}

/// DEBUG_VM-style frame-accounting sanitizer (the `sanitize` feature).
/// Compiled out of release figure runs; exercised by
/// `cargo test --workspace --features sanitize`.
#[cfg(feature = "sanitize")]
impl PhysMem {
    /// Verifies the **frame-accounting** invariant: the free list, the
    /// per-frame states, the reverse map, and the write-back counter must
    /// tell one consistent story.
    ///
    /// # Panics
    ///
    /// Panics with a `sanitize: frame-accounting:` message on any
    /// inconsistency.
    pub fn check_invariants(&self) {
        let mut free_states = 0usize;
        let mut writeback_states = 0usize;
        for (f, &st) in self.state.iter().enumerate() {
            match st {
                FrameState::Free => {
                    free_states += 1;
                    assert!(
                        self.owner[f].is_none(),
                        "sanitize: frame-accounting: free frame {f} has owner {:?}",
                        self.owner[f]
                    );
                }
                FrameState::InUse => {
                    assert!(
                        self.owner[f].is_some(),
                        "sanitize: frame-accounting: in-use frame {f} has no owner"
                    );
                }
                FrameState::Writeback => {
                    writeback_states += 1;
                    assert!(
                        self.owner[f].is_none(),
                        "sanitize: frame-accounting: writeback frame {f} has owner {:?}",
                        self.owner[f]
                    );
                }
            }
        }
        assert_eq!(
            self.free.len(),
            free_states,
            "sanitize: frame-accounting: free list holds {} frames but {} frames are in state Free",
            self.free.len(),
            free_states
        );
        assert_eq!(
            self.writeback_count, writeback_states,
            "sanitize: frame-accounting: writeback counter {} vs {} frames in state Writeback",
            self.writeback_count, writeback_states
        );
        let mut on_free_list = vec![false; self.owner.len()];
        for &f in &self.free {
            let fi = f as usize;
            assert!(
                fi < self.owner.len(),
                "sanitize: frame-accounting: free list entry {f} out of range"
            );
            assert!(
                !on_free_list[fi],
                "sanitize: frame-accounting: frame {f} on the free list twice"
            );
            on_free_list[fi] = true;
            assert_eq!(
                self.state[fi],
                FrameState::Free,
                "sanitize: frame-accounting: frame {f} on the free list in state {:?}",
                self.state[fi]
            );
        }
    }

    /// Deliberately breaks frame accounting (marks an in-use frame `Free`
    /// without returning it to the free list), so tests can prove the
    /// sanitizer trips. Test-only by construction: it corrupts the pool.
    ///
    /// # Panics
    ///
    /// Panics if no frame is currently in use.
    pub fn corrupt_frame_accounting_for_test(&mut self) {
        let f = (0..self.capacity())
            .find(|&f| self.state[f] == FrameState::InUse)
            .expect("corrupt_frame_accounting_for_test needs an allocated frame");
        self.state[f] = FrameState::Free;
        self.owner[f] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> PhysMem {
        PhysMem::new(
            cap,
            Watermarks {
                min: 2,
                low: 4,
                high: 8,
            },
        )
    }

    #[test]
    fn allocate_respects_min_watermark() {
        let mut pm = pool(16);
        let mut got = Vec::new();
        while let Some(f) = pm.allocate(0) {
            got.push(f);
        }
        // stops when free == min == 2
        assert_eq!(pm.free_frames(), 2);
        assert_eq!(got.len(), 14);
        // reserve allocation still works
        assert!(pm.allocate_from_reserve(1).is_some());
        assert_eq!(pm.free_frames(), 1);
    }

    #[test]
    fn watermark_predicates() {
        let mut pm = pool(16);
        assert!(!pm.below_low());
        assert!(pm.above_high());
        for _ in 0..13 {
            pm.allocate(0).unwrap();
        }
        assert!(pm.below_low());
        assert!(!pm.above_high());
        assert!(!pm.at_min());
        pm.allocate(0).unwrap();
        assert!(pm.at_min());
    }

    #[test]
    fn free_roundtrip_restores_capacity() {
        let mut pm = pool(16);
        let f = pm.allocate(42).unwrap();
        assert_eq!(pm.owner(f), Some(42));
        assert_eq!(pm.state(f), FrameState::InUse);
        pm.free(f);
        assert_eq!(pm.owner(f), None);
        assert_eq!(pm.state(f), FrameState::Free);
        assert_eq!(pm.free_frames(), 16);
    }

    #[test]
    fn writeback_pins_frame() {
        let mut pm = pool(16);
        let f = pm.allocate(1).unwrap();
        pm.begin_writeback(f);
        assert_eq!(pm.writeback_frames(), 1);
        assert_eq!(pm.owner(f), None);
        assert_eq!(pm.free_frames(), 15); // not yet reusable
        pm.writeback_done(f);
        assert_eq!(pm.writeback_frames(), 0);
        assert_eq!(pm.free_frames(), 16);
    }

    #[test]
    #[should_panic(expected = "not in use")]
    fn double_free_panics() {
        let mut pm = pool(16);
        let f = pm.allocate(1).unwrap();
        pm.free(f);
        pm.free(f);
    }

    #[test]
    fn default_watermarks_scale() {
        let w = Watermarks::for_capacity(10_000);
        assert_eq!(w.min, 100);
        assert_eq!(w.low, 200);
        assert_eq!(w.high, 400);
        // tiny pools keep strict ordering
        let w = Watermarks::for_capacity(64);
        assert!(w.min < w.low && w.low < w.high && w.high < 64);
    }
}
