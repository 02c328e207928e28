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
                f.check(now)?;
                f.delay(now)
            }
            None => now,
        };
        // The earliest-free server takes the request; re-insert its new
        // free time keeping the array sorted (shift left, place).
        let start = self.free_at[0].max(eff.as_ns());
        let done = start + service;
        let pos = self.free_at[1..].partition_point(|&t| t <= done);
        self.free_at.copy_within(1..1 + pos, 0);
        self.free_at[pos] = done;
        Ok(SimTime::from_ns(done))
    }

    /// The instant at which the device fully drains, assuming no further
    /// submissions.
    pub fn drained_at(&self) -> SimTime {
        SimTime::from_ns(*self.free_at.last().expect("k >= 1 servers"))
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
    }

    #[test]
    fn burst_queues_behind_one_server() {
        let mut d = QueuedDevice::new(1);
        let t0 = SimTime::ZERO;
        // waits: 0, 100, 200, 300
        for done in [100, 200, 300, 400] {
            assert_eq!(d.submit(t0, 100).unwrap().as_ns(), done);
        }
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
    }
}
