//! Analytic queued-device model.
//!
//! I/O devices (the SSD swap path in particular) are modeled as a FIFO queue
//! in front of `k` identical servers. Because service times are known at
//! submit time, the completion time of every request can be computed
//! immediately — the caller schedules a single completion event and the
//! device needs no internal event handling.
//!
//! This is exactly an M/G/k queue evaluated deterministically, and it
//! reproduces the behaviour the paper leans on in §VI-A: under thrashing the
//! queue backs up, so demand faults wait behind write-backs and fault
//! latency explodes even though device service time is constant.
//!
//! A device may carry a [`FaultInjector`]: submissions then roll for
//! injected errors and are pushed past stall windows before queueing. A
//! device without an injector is byte-identical to the fault-free model.

use crate::faults::{FaultInjector, FaultStats, IoResult};
use crate::time::{Nanos, SimTime};

/// Counters describing device load.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DeviceStats {
    /// Requests submitted (including ones that failed injection).
    pub submitted: u64,
    /// Total time requests spent queued before service started (includes
    /// time spent waiting out stall windows).
    pub queue_wait: Nanos,
    /// Total time spent in service.
    pub service: Nanos,
    /// Maximum observed queue delay for a single request.
    pub max_queue_wait: Nanos,
    /// Requests rejected with an injected I/O error.
    pub errors: u64,
}

/// A FIFO queue in front of `k` identical servers.
///
/// ```rust
/// use pagesim_engine::{QueuedDevice, SimTime};
/// // one server, 100ns service time
/// let mut d = QueuedDevice::new(1);
/// let t0 = SimTime::ZERO;
/// assert_eq!(d.submit(t0, 100).unwrap().as_ns(), 100);
/// // second request queues behind the first
/// assert_eq!(d.submit(t0, 100).unwrap().as_ns(), 200);
/// // after the backlog drains, requests start immediately
/// assert_eq!(d.submit(SimTime::from_ns(500), 100).unwrap().as_ns(), 600);
/// ```
#[derive(Debug)]
pub struct QueuedDevice {
    // Times at which each server becomes free, sorted ascending. Length is
    // always exactly `k` (small: device parallelism), so a shift-insert
    // into a fixed ring beats a heap — no allocation after construction
    // and the common submit touches a handful of contiguous words.
    free_at: Vec<u64>,
    faults: Option<FaultInjector>,
    stats: DeviceStats,
}

impl QueuedDevice {
    /// Creates a device with `servers` units of internal parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "device needs at least one server");
        QueuedDevice {
            free_at: vec![0; servers],
            faults: None,
            stats: DeviceStats::default(),
        }
    }

    /// Attaches a fault injector: subsequent submissions roll for errors
    /// and respect stall windows.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Submits a request at `now` with the given `service` time and returns
    /// its completion instant, or the injected error that rejected it.
    /// FIFO: requests are served in submit order; a stall window pushes the
    /// effective submission (and thus service start) to the window's end.
    pub fn submit(&mut self, now: SimTime, service: Nanos) -> IoResult<SimTime> {
        let eff = match self.faults.as_mut() {
            Some(f) => {
                self.stats.submitted += 1;
                if let Err(e) = f.check(now) {
                    self.stats.errors += 1;
                    return Err(e);
                }
                f.delay(now)
            }
            None => {
                self.stats.submitted += 1;
                now
            }
        };
        // The earliest-free server takes the request; re-insert its new
        // free time keeping the array sorted (shift left, place).
        let start = self.free_at[0].max(eff.as_ns());
        let done = start + service;
        let pos = self.free_at[1..].partition_point(|&t| t <= done);
        self.free_at.copy_within(1..1 + pos, 0);
        self.free_at[pos] = done;

        let wait = start - now.as_ns();
        self.stats.queue_wait += wait;
        self.stats.service += service;
        self.stats.max_queue_wait = self.stats.max_queue_wait.max(wait);
        Ok(SimTime::from_ns(done))
    }

    /// The instant at which the device fully drains, assuming no further
    /// submissions.
    pub fn drained_at(&self) -> SimTime {
        SimTime::from_ns(*self.free_at.last().expect("k >= 1 servers"))
    }

    /// Load counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Fault-injection counters (zero if no injector is attached).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, IoError, StallPlan};

    #[test]
    fn parallel_servers_overlap() {
        let mut d = QueuedDevice::new(2);
        let t0 = SimTime::ZERO;
        assert_eq!(d.submit(t0, 100).unwrap().as_ns(), 100);
        assert_eq!(d.submit(t0, 100).unwrap().as_ns(), 100); // second server
        assert_eq!(d.submit(t0, 100).unwrap().as_ns(), 200); // queues
    }

    #[test]
    fn idle_device_serves_immediately() {
        let mut d = QueuedDevice::new(1);
        assert_eq!(d.submit(SimTime::from_ns(1000), 50).unwrap().as_ns(), 1050);
        assert_eq!(d.stats().queue_wait, 0);
    }

    #[test]
    fn queue_wait_accumulates_under_burst() {
        let mut d = QueuedDevice::new(1);
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            d.submit(t0, 100).unwrap();
        }
        // waits: 0, 100, 200, 300
        let st = d.stats();
        assert_eq!(st.queue_wait, 600);
        assert_eq!(st.max_queue_wait, 300);
        assert_eq!(st.submitted, 4);
        assert_eq!(st.service, 400);
        assert_eq!(d.drained_at().as_ns(), 400);
    }

    #[test]
    fn mixed_service_times_stay_fifo() {
        let mut d = QueuedDevice::new(1);
        let t0 = SimTime::ZERO;
        let a = d.submit(t0, 300).unwrap();
        let b = d.submit(t0, 10).unwrap();
        assert_eq!(a.as_ns(), 300);
        assert_eq!(b.as_ns(), 310); // short request stuck behind long one
    }

    #[test]
    fn ring_insert_keeps_servers_sorted() {
        // Mixed service times across 3 servers: the earliest-free server
        // must take each request, so completions interleave exactly as the
        // heap-based model produced them.
        let mut d = QueuedDevice::new(3);
        let t0 = SimTime::ZERO;
        assert_eq!(d.submit(t0, 300).unwrap().as_ns(), 300);
        assert_eq!(d.submit(t0, 100).unwrap().as_ns(), 100);
        assert_eq!(d.submit(t0, 200).unwrap().as_ns(), 200);
        // All busy: next goes to the server free at 100.
        assert_eq!(d.submit(t0, 50).unwrap().as_ns(), 150);
        // Then the one free at 150.
        assert_eq!(d.submit(t0, 10).unwrap().as_ns(), 160);
        assert_eq!(d.drained_at().as_ns(), 300);
    }

    #[test]
    fn drained_device_resets_wait() {
        let mut d = QueuedDevice::new(1);
        d.submit(SimTime::ZERO, 100).unwrap();
        let done = d.submit(SimTime::from_ns(10_000), 100).unwrap();
        assert_eq!(done.as_ns(), 10_100);
    }

    #[test]
    fn permanent_failure_rejects_everything_after_cliff() {
        let mut d = QueuedDevice::new(1);
        d.set_faults(FaultInjector::new(
            FaultPlan {
                fail_permanently_at: Some(1_000),
                ..FaultPlan::none()
            },
            3,
        ));
        assert!(d.submit(SimTime::from_ns(999), 100).is_ok());
        assert_eq!(
            d.submit(SimTime::from_ns(1_000), 100),
            Err(IoError::Permanent)
        );
        assert_eq!(d.stats().errors, 1);
        assert_eq!(d.stats().submitted, 2);
    }

    #[test]
    fn stalled_submission_starts_at_window_end() {
        // Deterministic window exactly [5_000, 7_000).
        let mut d = QueuedDevice::new(1);
        d.set_faults(FaultInjector::new(
            FaultPlan {
                stall: Some(StallPlan {
                    first_onset: 5_000,
                    period: 1_000_000,
                    onset_jitter: 0,
                    duration: 2_000,
                    duration_jitter: 0,
                }),
                ..FaultPlan::none()
            },
            0,
        ));
        // Before the window: unaffected.
        assert_eq!(d.submit(SimTime::from_ns(100), 50).unwrap().as_ns(), 150);
        // Inside the window: pushed to the end, wait charged from submit.
        let done = d.submit(SimTime::from_ns(5_500), 50).unwrap();
        assert_eq!(done.as_ns(), 7_050);
        assert_eq!(d.stats().max_queue_wait, 1_500);
        assert_eq!(d.fault_stats().stalled_ops, 1);
        assert_eq!(d.fault_stats().stall_delay_ns, 1_500);
        // After the window: unaffected again.
        assert_eq!(
            d.submit(SimTime::from_ns(8_000), 50).unwrap().as_ns(),
            8_050
        );
    }

    #[test]
    fn faultless_injector_matches_plain_device() {
        let mut plain = QueuedDevice::new(2);
        let mut inj = QueuedDevice::new(2);
        inj.set_faults(FaultInjector::new(FaultPlan::none(), 1234));
        for i in 0..50u64 {
            let now = SimTime::from_ns(i * 37);
            let a = plain.submit(now, 100 + i).unwrap();
            let b = inj.submit(now, 100 + i).unwrap();
            assert_eq!(a, b, "noop injector drifted at op {i}");
        }
        assert_eq!(plain.stats(), inj.stats());
    }
}
