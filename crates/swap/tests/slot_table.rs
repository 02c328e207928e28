//! Model-based property tests of the devices' per-slot state.
//!
//! Random allocate/write/read/release sequences drive each device and a
//! reference model built on a `BTreeMap`. The sequences reuse slots LIFO,
//! rewrite live slots, and, on a bounded ZRAM pool, get writes rejected.
//! After every step the device's byte accounting, pool high water,
//! counters, per-slot write times and (with the `sanitize` feature) its
//! own invariant sweep must agree with the model.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pagesim_engine::{IoError, Nanos, SimTime};
use pagesim_mem::{EntropyClass, PAGE_SIZE};
use pagesim_swap::{
    CompressionModel, SsdDevice, SwapDevice, SwapResult, SwapSlot, SwapStats, ZramDevice,
};

/// Slots per device: small, so sequences fill the device and reuse slots.
const SLOTS: u32 = 24;

const CLASSES: [EntropyClass; 4] = [
    EntropyClass::Zero,
    EntropyClass::Text,
    EntropyClass::Structured,
    EntropyClass::Random,
];

/// SSD costs: a 2 µs submit, then queued service on two channels.
const SSD_READ: Nanos = 300;
const SSD_WRITE: Nanos = 500;
const SSD_SUBMIT: Nanos = 2_000;
/// ZRAM costs: CPU only.
const ZRAM_READ: Nanos = 20_000;
const ZRAM_WRITE: Nanos = 35_000;

enum Medium {
    /// Server free times, ascending: a FIFO queue in front of the channels.
    Ssd {
        free_at: Vec<u64>,
    },
    Zram {
        capacity: Option<u64>,
    },
}

/// What a device should do, computed independently of its slot table.
struct Model {
    medium: Medium,
    sizes: CompressionModel,
    /// Live slot -> (stored bytes, pending write completion or ZERO).
    live: BTreeMap<SwapSlot, (u64, SimTime)>,
    free: Vec<SwapSlot>,
    next_fresh: SwapSlot,
    pool_high_water: u64,
    stats: SwapStats,
}

impl Model {
    fn new(medium: Medium) -> Self {
        Model {
            medium,
            sizes: CompressionModel::build(),
            live: BTreeMap::new(),
            free: Vec::new(),
            next_fresh: 0,
            pool_high_water: 0,
            stats: SwapStats::default(),
        }
    }

    fn allocate(&mut self) -> SwapSlot {
        self.free.pop().unwrap_or_else(|| {
            self.next_fresh += 1;
            self.next_fresh - 1
        })
    }

    fn release(&mut self, slot: SwapSlot) {
        self.live.remove(&slot);
        self.free.push(slot);
    }

    fn used_bytes(&self) -> u64 {
        match self.medium {
            Medium::Ssd { .. } => self.live.len() as u64 * PAGE_SIZE as u64,
            Medium::Zram { .. } => self.live.values().map(|&(b, _)| b).sum(),
        }
    }

    /// One queued SSD request: the earliest-free channel serves it.
    fn queue(free_at: &mut [u64], now: SimTime, service: Nanos) -> (SimTime, Nanos) {
        let start = free_at[0].max(now.as_ns());
        free_at[0] = start + service;
        free_at.sort_unstable();
        (SimTime::from_ns(start + service), start - now.as_ns())
    }

    /// The expected result of writing `class` to `slot` at `now`.
    fn write(
        &mut self,
        now: SimTime,
        slot: SwapSlot,
        class: EntropyClass,
    ) -> Result<(Nanos, SimTime), IoError> {
        let (cpu, done, bytes) = match &mut self.medium {
            Medium::Ssd { free_at } => {
                let (done, wait) = Self::queue(free_at, now, SSD_WRITE);
                self.stats.write_queue_ns += wait;
                (SSD_SUBMIT, done, PAGE_SIZE as u64)
            }
            Medium::Zram { capacity } => {
                let size = self.sizes.stored_size(class) as u64;
                let replaced = self.live.get(&slot).map_or(0, |&(b, _)| b);
                let pool = self.live.values().map(|&(b, _)| b).sum::<u64>() - replaced + size;
                if capacity.is_some_and(|cap| pool > cap) {
                    self.stats.io_errors += 1;
                    self.stats.pool_rejections += 1;
                    return Err(IoError::PoolFull);
                }
                self.pool_high_water = self.pool_high_water.max(pool);
                (ZRAM_WRITE, now + ZRAM_WRITE, size)
            }
        };
        self.stats.writes += 1;
        self.live.insert(slot, (bytes, done));
        Ok((cpu, done))
    }

    /// The expected result of reading `slot` back, submitted once its
    /// write completes.
    fn read(&mut self, now: SimTime, slot: SwapSlot) -> (SimTime, Nanos, SimTime) {
        let entry = self.live.get_mut(&slot).expect("model reads live slots");
        let at = now.max(entry.1);
        entry.1 = SimTime::ZERO;
        self.stats.reads += 1;
        match &mut self.medium {
            Medium::Ssd { free_at } => {
                let (done, wait) = Self::queue(free_at, at, SSD_READ);
                self.stats.read_queue_ns += wait;
                (at, SSD_SUBMIT, done)
            }
            Medium::Zram { .. } => (at, ZRAM_READ, at + ZRAM_READ),
        }
    }
}

/// Replays `ops` on `dev` and `model`, checking agreement after every step.
/// Each op is `(kind, pick, class, dt)`: kinds 0–1 allocate and write, 2
/// rewrites a live slot, 3 reads one back, 4 releases one; `pick` chooses
/// the live slot and `dt` advances the clock afterwards.
fn replay<D: SwapDevice>(
    dev: &mut D,
    model: &mut Model,
    ops: &[(u8, u32, u8, u64)],
    pool_high_water: impl Fn(&D) -> u64,
) -> Result<(), String> {
    let mut now = SimTime::ZERO;
    let expect = |got: SwapResult, want: Result<(Nanos, SimTime), IoError>| -> Result<(), String> {
        match (got, want) {
            (Ok(o), Ok((cpu, done))) => {
                prop_assert_eq!((o.cpu_ns, o.done_at), (cpu, done));
            }
            (Err(f), Err(e)) => prop_assert_eq!(f.error, e),
            (got, want) => return Err(format!("device {got:?}, model {want:?}")),
        }
        Ok(())
    };
    for &(kind, pick, class, dt) in ops {
        let class = CLASSES[class as usize % CLASSES.len()];
        let target = model
            .live
            .keys()
            .nth(pick as usize % model.live.len().max(1))
            .copied();
        match (kind, target) {
            (0 | 1, _) if model.next_fresh < SLOTS || !model.free.is_empty() => {
                let slot = dev.allocate_slot();
                prop_assert_eq!(slot, model.allocate(), "slots are reused LIFO");
                let want = model.write(now, slot, class);
                expect(dev.write(now, slot, class), want)?;
                if want.is_err() {
                    // A rejected swap-out gives its slot straight back.
                    dev.release(slot);
                    model.release(slot);
                }
            }
            (2, Some(slot)) => {
                // A rejected rewrite keeps the slot's old contents.
                let want = model.write(now, slot, class);
                expect(dev.write(now, slot, class), want)?;
            }
            (3, Some(slot)) => {
                let (at, cpu, done) = model.read(now, slot);
                prop_assert_eq!(
                    now.max(dev.write_done(slot)),
                    at,
                    "read of slot {} submitted too early",
                    slot
                );
                let o = dev
                    .read(at, slot)
                    .map_err(|f| format!("read failed: {f:?}"))?;
                prop_assert_eq!((o.cpu_ns, o.done_at), (cpu, done));
                prop_assert_eq!(
                    dev.write_done(slot),
                    SimTime::ZERO,
                    "a read makes the slot durable"
                );
            }
            (4, Some(slot)) => {
                dev.release(slot);
                model.release(slot);
            }
            _ => {}
        }
        now += dt;

        prop_assert_eq!(dev.used_bytes(), model.used_bytes());
        prop_assert_eq!(pool_high_water(dev), model.pool_high_water);
        prop_assert_eq!(dev.stats(), model.stats);
        for (&slot, &(_, ready)) in &model.live {
            prop_assert_eq!(dev.write_done(slot), ready, "write time of slot {}", slot);
        }
        #[cfg(feature = "sanitize")]
        {
            prop_assert_eq!(dev.sanitize_check(), model.live.len() as u64);
            prop_assert_eq!(dev.sanitize_slot_bounds(), (model.next_fresh, SLOTS));
            for slot in 0..model.next_fresh {
                prop_assert_eq!(
                    dev.sanitize_slot_stored(slot),
                    model.live.contains_key(&slot)
                );
            }
        }
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<(u8, u32, u8, u64)>> {
    prop::collection::vec((0u8..5, any::<u32>(), 0u8..4, 0u64..50_000), 1..200)
}

proptest! {
    #[test]
    fn ssd_slot_state_matches_model(ops in ops()) {
        let mut dev = SsdDevice::new(SSD_READ, SSD_WRITE, 2, SLOTS);
        let mut model = Model::new(Medium::Ssd { free_at: vec![0; 2] });
        replay(&mut dev, &mut model, &ops, |_| 0)?;
    }

    #[test]
    fn zram_slot_state_matches_model(ops in ops()) {
        let mut dev = ZramDevice::new(ZRAM_READ, ZRAM_WRITE, SLOTS);
        let mut model = Model::new(Medium::Zram { capacity: None });
        replay(&mut dev, &mut model, &ops, ZramDevice::pool_high_water)?;
    }

    #[test]
    fn bounded_zram_slot_state_matches_model(ops in ops(), pages in 1u64..8) {
        let random = CompressionModel::build().stored_size(EntropyClass::Random) as u64;
        let capacity = pages * random;
        let mut dev = ZramDevice::new(ZRAM_READ, ZRAM_WRITE, SLOTS).with_capacity(capacity);
        let mut model = Model::new(Medium::Zram { capacity: Some(capacity) });
        replay(&mut dev, &mut model, &ops, ZramDevice::pool_high_water)?;
        prop_assert!(dev.pool_high_water() <= capacity);
    }
}
