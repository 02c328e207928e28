//! Property tests for the swap substrate.

use proptest::prelude::*;

use pagesim_engine::SimTime;
use pagesim_mem::EntropyClass;
use pagesim_swap::{compress, decompress, SlotAllocator, SwapDevice, ZramDevice};

proptest! {
    /// RLE compression round-trips arbitrary byte streams.
    #[test]
    fn rle_roundtrip(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let enc = compress(&data);
        prop_assert_eq!(decompress(&enc), data);
    }

    /// Compression never inflates beyond 2x (each run costs 2 bytes).
    #[test]
    fn rle_worst_case_bound(data in prop::collection::vec(any::<u8>(), 1..4096)) {
        prop_assert!(compress(&data).len() <= 2 * data.len());
    }

    /// Run-heavy data compresses.
    #[test]
    fn rle_compresses_runs(byte in any::<u8>(), len in 64usize..4096) {
        let data = vec![byte; len];
        prop_assert!(compress(&data).len() <= 2 * len.div_ceil(255));
    }

    /// The slot allocator never hands out the same live slot twice.
    #[test]
    fn slots_are_unique_while_live(ops in prop::collection::vec(any::<bool>(), 1..500)) {
        let mut a = SlotAllocator::new(500);
        let mut live = std::collections::BTreeSet::new();
        for alloc in ops {
            if alloc {
                let s = a.allocate();
                prop_assert!(live.insert(s), "slot {s} double-allocated");
            } else if let Some(&s) = live.iter().next() {
                live.remove(&s);
                a.release(s);
            }
            prop_assert_eq!(a.live() as usize, live.len());
        }
    }

    /// ZRAM pool accounting returns to zero when everything is released,
    /// for any write/release interleaving.
    #[test]
    fn zram_pool_balances(ops in prop::collection::vec((any::<bool>(), 0u8..4), 1..300)) {
        let mut z = ZramDevice::with_paper_costs(300);
        let mut live: Vec<u32> = Vec::new();
        let classes = [
            EntropyClass::Zero,
            EntropyClass::Text,
            EntropyClass::Structured,
            EntropyClass::Random,
        ];
        for (write, class) in ops {
            if write {
                let slot = z.allocate_slot();
                z.write(SimTime::ZERO, slot, classes[class as usize])
                    .expect("unbounded pool accepts every write");
                live.push(slot);
            } else if let Some(slot) = live.pop() {
                z.release(slot);
            }
        }
        for slot in live.drain(..) {
            z.release(slot);
        }
        prop_assert_eq!(z.used_bytes(), 0, "pool leaked");
    }
}
