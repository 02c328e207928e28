//! Property tests for the shadow-entry arena (`pagesim::workingset`).
//!
//! The arena backs the refault-distance observability counters on the
//! fault path, so its one-slot-per-page bound must hold under *any*
//! interleaving of evictions (record), refaults (take), and task kills
//! (reclaim) — never growing past the capacity fixed at construction,
//! and always agreeing with a reference set on which keys are live.

use pagesim::workingset::ShadowArena;
use proptest::prelude::*;

const PAGES: u32 = 64;

proptest! {
    #[test]
    fn arena_stays_within_its_bound_under_random_traffic(
        ops in prop::collection::vec((0u32..PAGES, 0u8..3), 0..512)
    ) {
        let mut arena = ShadowArena::new(PAGES as usize);
        let mut live = std::collections::BTreeSet::new();
        let mut seq = 0u64;
        for (key, op) in ops {
            match op {
                0 => {
                    seq += 1;
                    arena.record(key, seq);
                    live.insert(key);
                }
                1 => {
                    let took = arena.take(key);
                    prop_assert_eq!(took.is_some(), live.remove(&key));
                    if let Some(e) = took {
                        prop_assert!(e.eviction_seq <= seq);
                    }
                }
                _ => prop_assert_eq!(arena.reclaim(key), live.remove(&key)),
            }
            prop_assert_eq!(arena.len(), live.len() as u64);
            prop_assert!(arena.len() <= arena.capacity() as u64);
            prop_assert_eq!(arena.capacity(), PAGES as usize);
        }
    }

    #[test]
    fn re_eviction_keeps_the_newest_entry(
        keys in prop::collection::vec(0u32..PAGES, 1..128)
    ) {
        let mut arena = ShadowArena::new(PAGES as usize);
        let mut newest = std::collections::BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            let seq = i as u64 + 1;
            arena.record(*key, seq);
            newest.insert(*key, seq);
        }
        prop_assert_eq!(arena.len(), newest.len() as u64);
        for (key, seq) in newest {
            prop_assert_eq!(arena.take(key).map(|e| e.eviction_seq), Some(seq));
        }
        prop_assert!(arena.is_empty());
    }
}
