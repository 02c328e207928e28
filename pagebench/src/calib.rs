//! Host-speed calibration.
//!
//! On a shared host the same work takes up to ~70% longer while other
//! tenants load the machine, in phases from seconds to minutes long. The
//! benchmark therefore runs a fixed probe before, between and after its
//! timed samples, outside their timing, and divides each sample by the
//! slowdown the probes nearest to it in time read. The probe's code never
//! changes with the program under test. It faults in fresh memory page by
//! page: of the probes tried (integer hashing, dependent walks over L2- and
//! L3-sized rings, page faults), page-fault time followed the slow phases
//! of every workload most closely (see README.md).

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference machine (2-vCPU Intel Xeon VM) in a
/// quiet phase.
pub const REFERENCE_S: f64 = 0.075;

/// Minimum spacing between probe points, in seconds.
const SPACING_S: f64 = 1.0;

/// Probes a point runs per this many seconds of the work before it, so a
/// long repetition is bracketed by as many probes as several short ones.
const WORK_PER_PROBE_S: f64 = 2.0;

/// Most probes one point runs.
const MAX_PER_POINT: usize = 5;

/// Probes a calibrated time is read from: the ones nearest to it in time.
const NEAREST: usize = 10;

/// Passes per probe.
const PASSES: usize = 4;

/// Fresh memory each pass faults in. Above glibc's 32 MiB ceiling on its
/// mmap threshold, so every pass gets fresh pages from the kernel rather
/// than reused heap.
const PASS_BYTES: usize = 40 << 20;

/// Page size the passes step by.
const PAGE: usize = 4096;

/// One pass: faults in [`PASS_BYTES`] of fresh memory, one write per page.
fn pass() {
    let mut fresh = vec![0u8; PASS_BYTES];
    for i in (0..PASS_BYTES).step_by(PAGE) {
        fresh[i] = 1;
    }
    black_box(&fresh);
}

/// One probe: when it ended and how long it took.
struct Sample {
    at: Instant,
    s: f64,
}

/// The probes of one run.
pub struct Calib {
    samples: Vec<Sample>,
    cpu_s: f64,
}

impl Calib {
    /// No probe yet.
    pub fn new() -> Calib {
        Calib {
            samples: Vec::new(),
            cpu_s: 0.0,
        }
    }

    /// A probe point after `work_s` seconds of timed work: one probe per
    /// [`WORK_PER_PROBE_S`] of it, at least one and at most
    /// [`MAX_PER_POINT`].
    pub fn probe(&mut self, work_s: f64) {
        let n = ((work_s / WORK_PER_PROBE_S).round() as usize).clamp(1, MAX_PER_POINT);
        for _ in 0..n {
            let t = Instant::now();
            for _ in 0..PASSES {
                pass();
            }
            let s = t.elapsed().as_secs_f64();
            self.samples.push(Sample {
                at: Instant::now(),
                s,
            });
            self.cpu_s += s;
        }
    }

    /// [`Calib::probe`], unless a probe ran within the last [`SPACING_S`].
    pub fn probe_if_due(&mut self, work_s: f64) {
        if self
            .samples
            .last()
            .is_none_or(|p| p.at.elapsed().as_secs_f64() >= SPACING_S)
        {
            self.probe(work_s);
        }
    }

    /// Median probe time in seconds.
    pub fn median_s(&self) -> f64 {
        let times: Vec<f64> = self.samples.iter().map(|p| p.s).collect();
        crate::spans::median(&times)
    }

    /// CPU seconds spent probing so far, to leave out of the run's CPU
    /// time.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_s
    }

    /// How much slower than the reference the host was at `at`: the median
    /// of the [`NEAREST`] probes nearest to it in time, over
    /// [`REFERENCE_S`]. A time measured around `at` is divided by it for
    /// the report.
    pub fn slowdown_at(&self, at: Instant) -> f64 {
        let mut by_distance: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|p| {
                let d = if p.at > at { p.at - at } else { at - p.at };
                (d.as_secs_f64(), p.s)
            })
            .collect();
        by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
        let nearest: Vec<f64> = by_distance.iter().take(NEAREST).map(|d| d.1).collect();
        if nearest.is_empty() {
            1.0
        } else {
            crate::spans::median(&nearest) / REFERENCE_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn slowdown_is_the_median_of_the_nearest_probes() {
        let mut c = Calib::new();
        let t0 = Instant::now();
        assert_eq!(c.slowdown_at(t0), 1.0, "no probe yet");
        // Twenty probes a second apart: slowdown 1 for the first ten,
        // then 3, with one outlier of 9 among the first ten.
        for i in 0..20u64 {
            let slowdown = match i {
                4 => 9.0,
                0..10 => 1.0,
                _ => 3.0,
            };
            c.samples.push(Sample {
                at: t0 + Duration::from_secs(i),
                s: slowdown * REFERENCE_S,
            });
        }
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        let close = |got: f64, want: f64| (got - want).abs() < 1e-9;
        assert!(
            close(c.slowdown_at(at(3.2)), 1.0),
            "the outlier is outvoted"
        );
        assert!(close(c.slowdown_at(at(17.0)), 3.0));
        // Halfway, the ten nearest split evenly between the two phases.
        assert!(close(c.slowdown_at(at(9.5)), 2.0));
    }
}
