//! Swap device models.

// L5: the SimError hot path propagates typed errors instead of panicking,
// so one bad cell cannot abort a figure sweep.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use pagesim_engine::faults::{FaultInjector, IoError};
use pagesim_engine::{Nanos, QueuedDevice, SimTime, MICROSECOND, MILLISECOND};

use pagesim_mem::{EntropyClass, PAGE_SIZE};

use crate::compress::CompressionModel;
use crate::slots::{SlotAllocator, SlotTable, SwapSlot};

/// Which medium a device models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwapKind {
    /// Asynchronous block storage with a request queue.
    Ssd,
    /// Compressed RAM; synchronous CPU-bound operations.
    Zram,
}

/// Cost of one swap operation, split the way the simulator charges it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IoOutcome {
    /// CPU time charged to the calling thread (fault/reclaim path,
    /// compression work).
    pub cpu_ns: Nanos,
    /// Instant the operation's data is available (read) or durable
    /// (write). For CPU-bound media this is `now + cpu_ns`; for queued
    /// media it includes queueing delay.
    pub done_at: SimTime,
}

/// A failed device operation: the error plus the CPU the attempt still
/// consumed on the calling thread (submit bookkeeping, the attempted
/// compression). A rejected ZRAM write costs the same CPU as storing the
/// page uncompressed would — the compressor ran, the result was discarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FailedIo {
    /// Why the operation failed.
    pub error: IoError,
    /// CPU charged to the caller despite the failure.
    pub cpu_ns: Nanos,
}

/// Result of a fallible swap operation.
pub type SwapResult = Result<IoOutcome, FailedIo>;

/// Aggregate device counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SwapStats {
    /// 4 KiB reads served (swap-ins).
    pub reads: u64,
    /// 4 KiB writes served (swap-outs).
    pub writes: u64,
    /// Total time read requests spent queued (SSD only).
    pub read_queue_ns: Nanos,
    /// Total time write requests spent queued (SSD only).
    pub write_queue_ns: Nanos,
    /// Operations rejected with an injected I/O error.
    pub io_errors: u64,
    /// ZRAM writes rejected because the compressed pool was at capacity.
    pub pool_rejections: u64,
    /// Total delay added by injected device-stall windows.
    pub stall_delay_ns: Nanos,
}

/// A swap medium: allocates slots, stores/loads pages, reports costs.
///
/// The two implementations differ in *where* the cost lands, which is the
/// crux of the paper's §V-D/§VI-B findings: SSD costs are mostly
/// asynchronous wait, ZRAM costs are synchronous CPU work.
///
/// All I/O methods are fallible: a device carrying a fault plan can reject
/// an operation with a typed error ([`FailedIo`]), and a bounded ZRAM pool
/// rejects writes at capacity. Devices without faults never fail.
pub trait SwapDevice {
    /// Medium kind.
    fn kind(&self) -> SwapKind;
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Allocates a slot for an outgoing page.
    fn allocate_slot(&mut self) -> SwapSlot;
    /// Writes a page (swap-out). The page's entropy class drives
    /// compression accounting on ZRAM.
    fn write(&mut self, now: SimTime, slot: SwapSlot, class: EntropyClass) -> SwapResult;
    /// When the last write to `slot` completes. A read must not be
    /// submitted before it. [`SimTime::ZERO`] once a read of the slot has
    /// been submitted: the data is durable from then on.
    fn write_done(&self, slot: SwapSlot) -> SimTime;
    /// Reads a page back (swap-in).
    fn read(&mut self, now: SimTime, slot: SwapSlot) -> SwapResult;
    /// Releases a slot after its page is read back in and remapped.
    fn release(&mut self, slot: SwapSlot);
    /// Reads one page of a backing file. Files live on the same simulated
    /// device as swap (a documented substitution — the simulator has one
    /// storage device).
    fn file_read(&mut self, now: SimTime) -> SwapResult;
    /// Writes back one dirty file page.
    fn file_write(&mut self, now: SimTime) -> SwapResult;
    /// Bytes currently stored (compressed bytes for ZRAM, slot bytes for
    /// SSD).
    fn used_bytes(&self) -> u64;
    /// How long the device needs to drain its current queue, from `now`.
    /// Zero for synchronous media. Used for write-back throttling.
    fn backlog(&self, now: SimTime) -> pagesim_engine::Nanos;
    /// Counters.
    fn stats(&self) -> SwapStats;
    /// Sanitize probe: whether `slot` currently holds written page data
    /// (allocated, written, not yet released).
    #[cfg(feature = "sanitize")]
    fn sanitize_slot_stored(&self, slot: SwapSlot) -> bool;
    /// Sanitize sweep: verifies the device's internal slot/pool accounting
    /// and per-slot state, and returns the live slot count for kernel-side
    /// cross-checks.
    ///
    /// # Panics
    ///
    /// Panics with a `sanitize: swap-slot:` message on any inconsistency.
    #[cfg(feature = "sanitize")]
    fn sanitize_check(&self) -> u64;
    /// Sanitize probe: the slot high-water mark and the device's slot
    /// count, which the kernel sizes to the workload's page count.
    #[cfg(feature = "sanitize")]
    fn sanitize_slot_bounds(&self) -> (u32, u32);
}

/// SSD swap: a FIFO request queue in front of `parallelism` flash channels.
///
/// The default service time reproduces the paper's measured ~7.5 ms for a
/// loaded 4 KiB operation.
#[derive(Debug)]
pub struct SsdDevice {
    queue: QueuedDevice,
    slots: SlotAllocator,
    table: SlotTable,
    read_service: Nanos,
    write_service: Nanos,
    submit_cpu: Nanos,
    stats: SwapStats,
}

impl SsdDevice {
    /// Creates an SSD of `slots` swap slots with explicit service times
    /// and parallelism.
    pub fn new(read_service: Nanos, write_service: Nanos, parallelism: usize, slots: u32) -> Self {
        SsdDevice {
            queue: QueuedDevice::new(parallelism),
            slots: SlotAllocator::new(slots),
            table: SlotTable::new(slots),
            read_service,
            write_service,
            submit_cpu: 2 * MICROSECOND,
            stats: SwapStats::default(),
        }
    }

    /// The paper's SSD with `slots` swap slots: ~7.5 ms per 4 KiB read
    /// and write under load. Modeled as 7.5 ms service at the device with
    /// two channels.
    pub fn with_paper_costs(slots: u32) -> Self {
        Self::new(
            7 * MILLISECOND + 500 * MICROSECOND,
            7 * MILLISECOND + 500 * MICROSECOND,
            2,
            slots,
        )
    }

    /// Attaches a fault injector to the device queue.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.queue.set_faults(injector);
        self
    }

    fn fail(&mut self, error: IoError) -> FailedIo {
        self.stats.io_errors += 1;
        FailedIo {
            error,
            cpu_ns: self.submit_cpu,
        }
    }

    /// Queues one page of I/O, a write or a read, and counts it with its
    /// queueing delay. Every transfer, swap or file, goes through here.
    fn submit(&mut self, now: SimTime, write: bool) -> SwapResult {
        let service = if write {
            self.write_service
        } else {
            self.read_service
        };
        let done_at = match self.queue.submit(now, service) {
            Ok(t) => t,
            Err(e) => return Err(self.fail(e)),
        };
        let queue_ns = done_at.saturating_since(now) - service;
        if write {
            self.stats.writes += 1;
            self.stats.write_queue_ns += queue_ns;
        } else {
            self.stats.reads += 1;
            self.stats.read_queue_ns += queue_ns;
        }
        Ok(IoOutcome {
            cpu_ns: self.submit_cpu,
            done_at,
        })
    }
}

impl SwapDevice for SsdDevice {
    fn kind(&self) -> SwapKind {
        SwapKind::Ssd
    }

    fn name(&self) -> &'static str {
        "ssd"
    }

    fn allocate_slot(&mut self) -> SwapSlot {
        self.slots.allocate()
    }

    fn write(&mut self, now: SimTime, slot: SwapSlot, _class: EntropyClass) -> SwapResult {
        let out = self.submit(now, true)?;
        self.table.store(slot, PAGE_SIZE as u32, out.done_at);
        Ok(out)
    }

    fn write_done(&self, slot: SwapSlot) -> SimTime {
        self.table.write_done(slot)
    }

    fn read(&mut self, now: SimTime, slot: SwapSlot) -> SwapResult {
        debug_assert!(self.table.bytes(slot) != 0, "read of empty slot");
        let out = self.submit(now, false)?;
        self.table.read_back(slot);
        Ok(out)
    }

    fn release(&mut self, slot: SwapSlot) {
        self.table.clear(slot);
        self.slots.release(slot);
    }

    fn file_read(&mut self, now: SimTime) -> SwapResult {
        self.submit(now, false)
    }

    fn file_write(&mut self, now: SimTime) -> SwapResult {
        self.submit(now, true)
    }

    fn used_bytes(&self) -> u64 {
        self.slots.live() * PAGE_SIZE as u64
    }

    fn backlog(&self, now: SimTime) -> Nanos {
        self.queue.drained_at().saturating_since(now)
    }

    fn stats(&self) -> SwapStats {
        SwapStats {
            stall_delay_ns: self.queue.fault_stats().stall_delay_ns,
            ..self.stats
        }
    }

    #[cfg(feature = "sanitize")]
    fn sanitize_slot_stored(&self, slot: SwapSlot) -> bool {
        self.table.bytes(slot) != 0
    }

    #[cfg(feature = "sanitize")]
    fn sanitize_check(&self) -> u64 {
        let stored = self.table.check_invariants(&self.slots, "ssd");
        let live = self.slots.live();
        assert_eq!(
            stored,
            live * PAGE_SIZE as u64,
            "sanitize: swap-slot: ssd stores {stored} bytes but {live} slots are live"
        );
        live
    }

    #[cfg(feature = "sanitize")]
    fn sanitize_slot_bounds(&self) -> (u32, u32) {
        (self.slots.high_water(), self.slots.capacity())
    }
}

/// ZRAM swap: compressed RAM. All cost is CPU time on the calling thread;
/// pool usage is tracked with real per-class compressed sizes. The pool may
/// be bounded ([`with_capacity`](ZramDevice::with_capacity)): writes that
/// would exceed the bound are rejected with [`IoError::PoolFull`], charging
/// the same CPU as a successful (uncompressed) store.
#[derive(Debug)]
pub struct ZramDevice {
    slots: SlotAllocator,
    table: SlotTable,
    model: CompressionModel,
    read_cpu: Nanos,
    write_cpu: Nanos,
    pool_bytes: u64,
    pool_high_water: u64,
    capacity: Option<u64>,
    faults: Option<FaultInjector>,
    stats: SwapStats,
}

impl ZramDevice {
    /// Creates a ZRAM device of `slots` swap slots with explicit per-op
    /// CPU costs.
    pub fn new(read_cpu: Nanos, write_cpu: Nanos, slots: u32) -> Self {
        ZramDevice {
            slots: SlotAllocator::new(slots),
            table: SlotTable::new(slots),
            model: CompressionModel::build(),
            read_cpu,
            write_cpu,
            pool_bytes: 0,
            pool_high_water: 0,
            capacity: None,
            faults: None,
            stats: SwapStats::default(),
        }
    }

    /// The paper's ZRAM with LZO-RLE and `slots` swap slots: 20 µs
    /// reads, 35 µs writes.
    pub fn with_paper_costs(slots: u32) -> Self {
        Self::new(20 * MICROSECOND, 35 * MICROSECOND, slots)
    }

    /// Bounds the compressed pool to `bytes`; writes that would exceed the
    /// bound are rejected.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    /// Attaches a fault injector (error rolls only — ZRAM is synchronous,
    /// so stall windows do not apply).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Peak compressed-pool usage over the device's lifetime.
    pub fn pool_high_water(&self) -> u64 {
        self.pool_high_water
    }
    fn check_faults(&mut self, now: SimTime, cpu_ns: Nanos) -> Result<(), FailedIo> {
        if let Some(f) = self.faults.as_mut() {
            if let Err(error) = f.check(now) {
                self.stats.io_errors += 1;
                return Err(FailedIo { error, cpu_ns });
            }
        }
        Ok(())
    }
}

impl SwapDevice for ZramDevice {
    fn kind(&self) -> SwapKind {
        SwapKind::Zram
    }

    fn name(&self) -> &'static str {
        "zram"
    }

    fn allocate_slot(&mut self) -> SwapSlot {
        self.slots.allocate()
    }

    fn write(&mut self, now: SimTime, slot: SwapSlot, class: EntropyClass) -> SwapResult {
        self.check_faults(now, self.write_cpu)?;
        let size = self.model.stored_size(class) as u32;
        let replaced = u64::from(self.table.bytes(slot));
        let new_pool = self.pool_bytes - replaced + u64::from(size);
        if let Some(cap) = self.capacity {
            if new_pool > cap {
                // Pool exhausted: the write is rejected. The compression
                // attempt still cost a full write's CPU.
                self.stats.io_errors += 1;
                self.stats.pool_rejections += 1;
                return Err(FailedIo {
                    error: IoError::PoolFull,
                    cpu_ns: self.write_cpu,
                });
            }
        }
        let done_at = now + self.write_cpu;
        self.table.store(slot, size, done_at);
        self.pool_bytes = new_pool;
        self.pool_high_water = self.pool_high_water.max(self.pool_bytes);
        self.stats.writes += 1;
        Ok(IoOutcome {
            cpu_ns: self.write_cpu,
            done_at,
        })
    }

    fn write_done(&self, slot: SwapSlot) -> SimTime {
        self.table.write_done(slot)
    }

    fn read(&mut self, now: SimTime, slot: SwapSlot) -> SwapResult {
        debug_assert!(self.table.bytes(slot) != 0, "read of empty slot");
        self.check_faults(now, self.read_cpu)?;
        self.table.read_back(slot);
        self.stats.reads += 1;
        Ok(IoOutcome {
            cpu_ns: self.read_cpu,
            done_at: now + self.read_cpu,
        })
    }

    fn release(&mut self, slot: SwapSlot) {
        self.pool_bytes -= u64::from(self.table.clear(slot));
        self.slots.release(slot);
    }

    fn file_read(&mut self, now: SimTime) -> SwapResult {
        // Files are not in ZRAM; charge a ZRAM-speed read as the closest
        // single-device model (see trait docs).
        self.check_faults(now, self.read_cpu)?;
        self.stats.reads += 1;
        Ok(IoOutcome {
            cpu_ns: self.read_cpu,
            done_at: now + self.read_cpu,
        })
    }

    fn file_write(&mut self, now: SimTime) -> SwapResult {
        self.check_faults(now, self.write_cpu)?;
        self.stats.writes += 1;
        Ok(IoOutcome {
            cpu_ns: self.write_cpu,
            done_at: now + self.write_cpu,
        })
    }

    fn used_bytes(&self) -> u64 {
        self.pool_bytes
    }

    fn backlog(&self, _now: SimTime) -> Nanos {
        0
    }

    fn stats(&self) -> SwapStats {
        self.stats
    }

    #[cfg(feature = "sanitize")]
    fn sanitize_slot_stored(&self, slot: SwapSlot) -> bool {
        self.table.bytes(slot) != 0
    }

    #[cfg(feature = "sanitize")]
    fn sanitize_check(&self) -> u64 {
        let stored_bytes = self.table.check_invariants(&self.slots, "zram");
        assert_eq!(
            self.pool_bytes, stored_bytes,
            "sanitize: swap-slot: zram pool counter {} vs {} bytes actually stored",
            self.pool_bytes, stored_bytes
        );
        self.slots.live()
    }

    #[cfg(feature = "sanitize")]
    fn sanitize_slot_bounds(&self) -> (u32, u32) {
        (self.slots.high_water(), self.slots.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagesim_engine::faults::FaultPlan;

    #[test]
    fn ssd_costs_are_queued() {
        let mut ssd = SsdDevice::new(100, 100, 1, 16);
        let t0 = SimTime::ZERO;
        let slot_a = ssd.allocate_slot();
        let a = ssd.write(t0, slot_a, EntropyClass::Text).unwrap();
        let slot_b = ssd.allocate_slot();
        ssd.write(t0, slot_b, EntropyClass::Text).unwrap();
        let b = ssd.read(t0, slot_b).unwrap();
        assert_eq!(a.done_at.as_ns(), 100);
        // read waits behind two writes: this is the §VI-A pile-up behaviour
        assert_eq!(b.done_at.as_ns(), 300);
        let st = ssd.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 1);
        assert_eq!(st.read_queue_ns, 200);
    }

    #[test]
    fn ssd_paper_costs_land_at_7_5ms() {
        let mut ssd = SsdDevice::with_paper_costs(16);
        let s = ssd.allocate_slot();
        let w = ssd.write(SimTime::ZERO, s, EntropyClass::Text).unwrap();
        assert_eq!(w.done_at.as_ns(), 7_500_000);
    }

    #[test]
    fn zram_costs_are_cpu_bound() {
        let mut z = ZramDevice::with_paper_costs(64);
        let s = z.allocate_slot();
        let w = z
            .write(SimTime::from_ns(1000), s, EntropyClass::Text)
            .unwrap();
        assert_eq!(w.cpu_ns, 35_000);
        assert_eq!(w.done_at.as_ns(), 1000 + 35_000);
        let r = z.read(SimTime::from_ns(50_000), s).unwrap();
        assert_eq!(r.cpu_ns, 20_000);
        assert_eq!(r.done_at.as_ns(), 70_000);
    }

    #[test]
    fn zram_pool_accounting_tracks_entropy() {
        let mut z = ZramDevice::with_paper_costs(64);
        let s1 = z.allocate_slot();
        let s2 = z.allocate_slot();
        z.write(SimTime::ZERO, s1, EntropyClass::Random).unwrap();
        let after_random = z.used_bytes();
        z.write(SimTime::ZERO, s2, EntropyClass::Zero).unwrap();
        let after_zero = z.used_bytes() - after_random;
        assert!(after_random > PAGE_SIZE as u64, "raw + header");
        assert!(after_zero < 64, "zero page nearly free: {after_zero}");
        z.release(s1);
        z.release(s2);
        assert_eq!(z.used_bytes(), 0);
        assert!(z.pool_high_water() >= after_random);
    }

    #[test]
    fn ssd_used_bytes_counts_slots() {
        let mut ssd = SsdDevice::new(10, 10, 1, 16);
        let s = ssd.allocate_slot();
        ssd.write(SimTime::ZERO, s, EntropyClass::Random).unwrap();
        assert_eq!(ssd.used_bytes(), PAGE_SIZE as u64);
        ssd.release(s);
        assert_eq!(ssd.used_bytes(), 0);
    }

    #[test]
    fn rewrite_same_slot_replaces_bytes() {
        let mut z = ZramDevice::with_paper_costs(64);
        let s = z.allocate_slot();
        z.write(SimTime::ZERO, s, EntropyClass::Random).unwrap();
        let big = z.used_bytes();
        z.write(SimTime::ZERO, s, EntropyClass::Zero).unwrap();
        assert!(z.used_bytes() < big);
    }

    #[test]
    fn kinds_and_names() {
        assert_eq!(SsdDevice::with_paper_costs(16).kind(), SwapKind::Ssd);
        assert_eq!(ZramDevice::with_paper_costs(64).kind(), SwapKind::Zram);
        assert_eq!(SsdDevice::with_paper_costs(16).name(), "ssd");
        assert_eq!(ZramDevice::with_paper_costs(64).name(), "zram");
    }

    #[test]
    fn bounded_pool_rejects_at_capacity_and_high_water_respects_bound() {
        // Random pages store PAGE_SIZE + header each; cap the pool at two.
        let per_page = CompressionModel::build().stored_size(EntropyClass::Random) as u64;
        let cap = 2 * per_page;
        let mut z = ZramDevice::with_paper_costs(64).with_capacity(cap);
        let s1 = z.allocate_slot();
        let s2 = z.allocate_slot();
        let s3 = z.allocate_slot();
        z.write(SimTime::ZERO, s1, EntropyClass::Random).unwrap();
        z.write(SimTime::ZERO, s2, EntropyClass::Random).unwrap();
        let rejected = z
            .write(SimTime::ZERO, s3, EntropyClass::Random)
            .unwrap_err();
        assert_eq!(rejected.error, IoError::PoolFull);
        // The failed compression still costs a full write of CPU.
        assert_eq!(rejected.cpu_ns, 35_000);
        assert!(z.pool_high_water() <= cap, "high water exceeded capacity");
        assert_eq!(z.stats().pool_rejections, 1);
        assert_eq!(z.stats().io_errors, 1);
        assert_eq!(z.stats().writes, 2, "rejected write must not count");
        // Once space is released, a small page fits again.
        z.release(s1);
        z.write(SimTime::ZERO, s3, EntropyClass::Zero).unwrap();
        assert!(z.pool_high_water() <= cap);
    }

    #[test]
    fn unbounded_pool_never_rejects() {
        let mut z = ZramDevice::with_paper_costs(64);
        for _ in 0..64 {
            let s = z.allocate_slot();
            z.write(SimTime::ZERO, s, EntropyClass::Random).unwrap();
        }
        assert_eq!(z.stats().pool_rejections, 0);
    }

    #[test]
    fn ssd_with_permanent_failure_errors_and_counts() {
        let mut ssd = SsdDevice::new(100, 100, 1, 16).with_faults(FaultInjector::new(
            FaultPlan {
                fail_permanently_at: Some(0),
                ..FaultPlan::none()
            },
            7,
        ));
        let s = ssd.allocate_slot();
        let err = ssd.write(SimTime::ZERO, s, EntropyClass::Text).unwrap_err();
        assert_eq!(err.error, IoError::Permanent);
        assert_eq!(err.cpu_ns, 2 * MICROSECOND);
        assert_eq!(ssd.stats().io_errors, 1);
        assert_eq!(ssd.stats().writes, 0, "failed write must not count");
    }

    #[test]
    fn zram_with_error_rate_one_rejects_reads() {
        let mut z = ZramDevice::with_paper_costs(64);
        let s = z.allocate_slot();
        z.write(SimTime::ZERO, s, EntropyClass::Text).unwrap();
        let mut z = ZramDevice::with_paper_costs(64).with_faults(FaultInjector::new(
            FaultPlan {
                error_rate: 1.0,
                ..FaultPlan::none()
            },
            7,
        ));
        let s = z.allocate_slot();
        let err = z.write(SimTime::ZERO, s, EntropyClass::Text).unwrap_err();
        assert_eq!(err.error, IoError::Transient);
        assert_eq!(z.stats().io_errors, 1);
    }
}
