//! Shadow-entry bookkeeping — the `mm/workingset.c` analog.
//!
//! When the kernel evicts a page, Linux leaves a *shadow entry* in the
//! page-cache radix slot recording the eviction "clock" (an eviction
//! counter). A later refault reads the entry back and computes the
//! *refault distance*: how many evictions happened while the page was
//! out. A distance within one memory-capacity of evictions means the
//! page would have stayed resident had the list been larger — Linux
//! activates such pages immediately (`workingset_activate`).
//!
//! Here the arena is a flat table indexed by the global [`PageKey`],
//! preallocated at kernel construction to exactly one slot per page —
//! the same bound the real radix tree enjoys (one shadow per slot) —
//! so recording and taking entries never allocates on the fault path.

use pagesim_mem::PageKey;

/// One recorded eviction: the eviction counter at that point (the
/// `workingset.c` "eviction clock").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowEntry {
    /// Global eviction count at eviction (distance = now − this).
    pub eviction_seq: u64,
}

/// Bounded shadow-entry arena: at most one live entry per page, stored
/// in a flat preallocated table keyed by [`PageKey`]. No growth after
/// construction.
#[derive(Debug)]
pub struct ShadowArena {
    slots: Vec<Option<ShadowEntry>>,
    live: u64,
}

impl ShadowArena {
    /// An arena with one slot per page; allocates once, up front.
    pub fn new(pages: usize) -> Self {
        ShadowArena {
            slots: vec![None; pages],
            live: 0,
        }
    }

    /// Records an eviction shadow for `key`, replacing any stale entry
    /// (a page re-evicted without refaulting keeps only the newest).
    pub fn record(&mut self, key: PageKey, eviction_seq: u64) {
        let slot = &mut self.slots[key as usize];
        if slot.is_none() {
            self.live += 1;
        }
        *slot = Some(ShadowEntry { eviction_seq });
    }

    /// Consumes the shadow for `key` on refault, if one is live.
    pub fn take(&mut self, key: PageKey) -> Option<ShadowEntry> {
        let e = self.slots[key as usize].take();
        if e.is_some() {
            self.live -= 1;
        }
        e
    }

    /// Drops the shadow for `key` without a refault (task kill — the
    /// `workingset_nodereclaim` path). Returns whether one was live.
    pub fn reclaim(&mut self, key: PageKey) -> bool {
        let e = self.slots[key as usize].take();
        if e.is_some() {
            self.live -= 1;
        }
        e.is_some()
    }

    /// Live shadow entries.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no shadow entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The configured bound: one slot per page, fixed at construction.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_take_roundtrip() {
        let mut a = ShadowArena::new(8);
        assert!(a.is_empty());
        a.record(3, 7);
        assert_eq!(a.len(), 1);
        assert_eq!(a.take(3), Some(ShadowEntry { eviction_seq: 7 }));
        assert_eq!(a.take(3), None);
        assert!(a.is_empty());
    }

    #[test]
    fn re_eviction_replaces_without_growing() {
        let mut a = ShadowArena::new(4);
        a.record(1, 1);
        a.record(1, 2);
        assert_eq!(a.len(), 1);
        assert_eq!(a.take(1).unwrap().eviction_seq, 2);
    }

    #[test]
    fn a_shadow_slot_is_two_words() {
        assert_eq!(std::mem::size_of::<Option<ShadowEntry>>(), 16);
    }

    #[test]
    fn reclaim_drops_silently() {
        let mut a = ShadowArena::new(4);
        a.record(2, 1);
        assert!(a.reclaim(2));
        assert!(!a.reclaim(2));
        assert_eq!(a.take(2), None);
        assert_eq!(a.capacity(), 4);
    }
}
