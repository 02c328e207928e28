//! Deterministic fault injection for simulated devices and memory.
//!
//! A [`FaultPlan`] describes *what* can go wrong — transient and permanent
//! I/O errors, periodic device stalls, and memory-pressure steps — and a
//! [`FaultInjector`] turns the plan into concrete per-operation decisions.
//! Every decision is a pure function of `(plan, seed, operation index)`, so
//! two runs with the same plan and seed inject byte-identical fault
//! sequences, keeping the simulator's determinism invariant intact.
//!
//! The injector is purely analytic, like [`QueuedDevice`](crate::QueuedDevice):
//! stall windows are computed from window-index arithmetic at submit time,
//! so no extra events are needed and an empty plan adds zero behavior
//! drift (the arithmetic reduces to the fault-free path exactly).

use crate::rng::splitmix64;
use crate::time::{Nanos, SimTime};

/// Why a device operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoError {
    /// Transient media error: retrying later may succeed.
    Transient,
    /// The device failed permanently; no retry will ever succeed.
    Permanent,
    /// Compressed-pool capacity exhausted (ZRAM write rejection).
    PoolFull,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Transient => write!(f, "transient I/O error"),
            IoError::Permanent => write!(f, "permanent device failure"),
            IoError::PoolFull => write!(f, "compressed pool full"),
        }
    }
}

/// Result of a fallible device operation.
pub type IoResult<T> = Result<T, IoError>;

/// Periodic device stalls: the device stops serving new requests for a
/// window of time, then recovers (firmware garbage collection, internal
/// flush, a hiccuping hypervisor — the mechanisms behind the long SSD
/// tails the paper's §VI-A leans on).
///
/// Window `k` opens at `first_onset + k·period + jitter` and lasts
/// `duration + jitter`; both jitters are deterministic per `(seed, k)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StallPlan {
    /// Earliest possible onset of the first stall window.
    pub first_onset: Nanos,
    /// Nominal spacing between window onsets.
    pub period: Nanos,
    /// Max extra delay added to each window's onset (uniform in
    /// `0..=onset_jitter`).
    pub onset_jitter: Nanos,
    /// Base stall duration.
    pub duration: Nanos,
    /// Max extra duration (uniform in `0..=duration_jitter`).
    pub duration_jitter: Nanos,
}

impl StallPlan {
    fn validate(&self) {
        assert!(self.period > 0, "stall period must be positive");
        assert!(
            self.onset_jitter + self.duration + self.duration_jitter <= self.period,
            "stall windows must not overlap: jitter + duration must fit in the period"
        );
    }
}

/// One step of external memory pressure: a balloon grabs a fraction of
/// physical frames at `at` and returns them `duration` later.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PressureStep {
    /// Instant the balloon inflates.
    pub at: Nanos,
    /// Fraction of total frames taken (clamped to what is free).
    pub frac: f64,
    /// How long the frames stay taken.
    pub duration: Nanos,
}

/// A deterministic description of everything that can go wrong in a run.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and is guaranteed
/// zero-drift: simulations with it are bit-identical to a build without the
/// fault layer.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    /// Probability that any single device operation fails transiently.
    pub error_rate: f64,
    /// Instant after which every device operation fails permanently.
    pub fail_permanently_at: Option<Nanos>,
    /// Periodic device stalls.
    pub stall: Option<StallPlan>,
    /// Memory-pressure steps (consumed by the kernel, not by devices).
    pub pressure: Vec<PressureStep>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero behavior drift.
    pub fn none() -> FaultPlan {
        FaultPlan {
            error_rate: 0.0,
            fail_permanently_at: None,
            stall: None,
            pressure: Vec::new(),
        }
    }

    /// Whether the plan can affect device operations (errors or stalls).
    /// Pressure steps are kernel-side and do not count.
    pub fn has_device_faults(&self) -> bool {
        self.error_rate > 0.0 || self.fail_permanently_at.is_some() || self.stall.is_some()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        !self.has_device_faults() && self.pressure.is_empty()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counters describing what an injector actually did.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations failed with an injected error.
    pub injected_errors: u64,
    /// Operations delayed by a stall window.
    pub stalled_ops: u64,
    /// Total delay added by stall windows.
    pub stall_delay_ns: Nanos,
}

/// The integer form of an error roll: a draw `r` fails with `error_rate`
/// exactly when `(r >> 11) < error_threshold(error_rate)`.
///
/// The roll is defined on the draw's top 53 bits `m` as the real number
/// `m / 2^53 < error_rate`. Both sides scale by `2^53` exactly (a power of
/// two), so it is `m < error_rate · 2^53`, and for an integer `m` that is
/// `m < ceil(error_rate · 2^53)`. A rate that is zero, negative or NaN
/// gives 0 (never fails); a rate of 1 or more gives at least `2^53`
/// (always fails).
///
/// ```rust
/// use pagesim_engine::faults::error_threshold;
/// assert_eq!(error_threshold(0.0), 0);
/// assert_eq!(error_threshold(0.5), 1 << 52);
/// assert_eq!(error_threshold(1.0), 1 << 53);
/// assert_eq!(error_threshold(f64::from_bits(1)), 1); // smallest subnormal
/// ```
#[expect(
    clippy::float_arithmetic,
    reason = "scaling by 2^53 is exact; runs once per injector, at construction"
)]
pub fn error_threshold(error_rate: f64) -> u64 {
    (error_rate * (1u64 << 53) as f64).ceil() as u64
}

/// Applies a [`FaultPlan`] to a stream of device operations.
///
/// Construct one per device with a seed derived from the trial seed (see
/// [`rng::derive_seed`](crate::rng::derive_seed)); the injector keeps a
/// per-operation counter so error rolls replay exactly.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// [`error_threshold`] of the plan's error rate.
    error_threshold: u64,
    seed: u64,
    ops: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan`, rolling errors from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's stall windows could overlap
    /// (`onset_jitter + duration + duration_jitter > period`).
    pub fn new(plan: FaultPlan, seed: u64) -> FaultInjector {
        if let Some(s) = &plan.stall {
            s.validate();
        }
        FaultInjector {
            error_threshold: error_threshold(plan.error_rate),
            plan,
            seed,
            ops: 0,
            stats: FaultStats::default(),
        }
    }

    /// Decides whether the operation submitted at `now` fails. Each call
    /// consumes one slot of the deterministic error stream.
    pub fn check(&mut self, now: SimTime) -> IoResult<()> {
        if let Some(at) = self.plan.fail_permanently_at {
            if now.as_ns() >= at {
                self.stats.injected_errors += 1;
                return Err(IoError::Permanent);
            }
        }
        if self.error_threshold > 0 {
            let r = splitmix64(self.seed ^ self.ops.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            self.ops += 1;
            if (r >> 11) < self.error_threshold {
                self.stats.injected_errors += 1;
                return Err(IoError::Transient);
            }
        }
        Ok(())
    }

    /// Effective submission time for an operation arriving at `now`: if a
    /// stall window is open, service is pushed to the window's end.
    pub fn delay(&mut self, now: SimTime) -> SimTime {
        match self.stall_end(now) {
            Some(end) if end > now => {
                self.stats.stalled_ops += 1;
                self.stats.stall_delay_ns += end - now;
                end
            }
            _ => now,
        }
    }

    /// If `now` falls inside a stall window, the instant the window closes.
    pub fn stall_end(&self, now: SimTime) -> Option<SimTime> {
        let s = self.plan.stall.as_ref()?;
        let t = now.as_ns();
        if t < s.first_onset {
            return None;
        }
        // Windows cannot overlap (validated), so only the window whose
        // period contains `t` can be open.
        let k = (t - s.first_onset) / s.period;
        let base = s.first_onset + k * s.period;
        let onset = base + Self::jitter(self.seed, k, 0, s.onset_jitter);
        let end = onset + s.duration + Self::jitter(self.seed, k, 1, s.duration_jitter);
        (onset <= t && t < end).then(|| SimTime::from_ns(end))
    }

    /// Deterministic uniform draw in `0..=max` for window `k`.
    fn jitter(seed: u64, k: u64, lane: u64, max: Nanos) -> Nanos {
        if max == 0 {
            return 0;
        }
        splitmix64(seed ^ (k << 1 | lane).wrapping_mul(0xD134_2543_DE82_EF95)) % (max + 1)
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stalling_plan() -> FaultPlan {
        FaultPlan {
            stall: Some(StallPlan {
                first_onset: 1_000,
                period: 10_000,
                onset_jitter: 500,
                duration: 2_000,
                duration_jitter: 500,
            }),
            ..FaultPlan::none()
        }
    }

    #[test]
    fn empty_plan_is_noop() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 42);
        for t in [0u64, 1, 1_000_000, u64::MAX / 2] {
            let now = SimTime::from_ns(t);
            assert_eq!(inj.check(now), Ok(()));
            assert_eq!(inj.delay(now), now);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert!(FaultPlan::none().is_noop());
        assert!(!FaultPlan::none().has_device_faults());
    }

    #[test]
    fn permanent_failure_is_a_cliff() {
        let plan = FaultPlan {
            fail_permanently_at: Some(5_000),
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.check(SimTime::from_ns(4_999)), Ok(()));
        assert_eq!(inj.check(SimTime::from_ns(5_000)), Err(IoError::Permanent));
        assert_eq!(
            inj.check(SimTime::from_ns(9_999_999)),
            Err(IoError::Permanent)
        );
        assert_eq!(inj.stats().injected_errors, 2);
    }

    #[test]
    fn error_rate_one_always_fails_zero_never() {
        let always = FaultPlan {
            error_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(always, 9);
        for _ in 0..100 {
            assert_eq!(inj.check(SimTime::ZERO), Err(IoError::Transient));
        }
        let never = FaultPlan::none();
        let mut inj = FaultInjector::new(never, 9);
        for _ in 0..100 {
            assert_eq!(inj.check(SimTime::ZERO), Ok(()));
        }
    }

    #[test]
    fn error_stream_replays_per_seed() {
        let plan = FaultPlan {
            error_rate: 0.3,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(plan.clone(), 77);
        let mut b = FaultInjector::new(plan.clone(), 77);
        let mut c = FaultInjector::new(plan, 78);
        let seq = |inj: &mut FaultInjector| -> Vec<bool> {
            (0..200)
                .map(|_| inj.check(SimTime::ZERO).is_err())
                .collect()
        };
        let sa = seq(&mut a);
        assert_eq!(sa, seq(&mut b), "same seed must replay");
        assert_ne!(sa, seq(&mut c), "different seed must differ");
        let errs = sa.iter().filter(|&&e| e).count();
        assert!((20..=120).contains(&errs), "rate way off: {errs}/200");
    }

    #[test]
    fn stall_windows_are_periodic_and_deterministic() {
        let inj = FaultInjector::new(stalling_plan(), 5);
        // Before the first onset: never stalled.
        assert_eq!(inj.stall_end(SimTime::from_ns(0)), None);
        assert_eq!(inj.stall_end(SimTime::from_ns(999)), None);
        // Find the first window by scanning.
        let mut opens = Vec::new();
        let mut prev_open = false;
        for t in 0..60_000u64 {
            let open = inj.stall_end(SimTime::from_ns(t)).is_some();
            if open && !prev_open {
                opens.push(t);
            }
            prev_open = open;
        }
        assert!(opens.len() >= 5, "expected ~6 windows, got {opens:?}");
        for pair in opens.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                (9_500..=10_500).contains(&gap),
                "window spacing {gap} outside period±jitter"
            );
        }
        // Deterministic replay.
        let inj2 = FaultInjector::new(stalling_plan(), 5);
        for t in (0..60_000u64).step_by(97) {
            assert_eq!(
                inj.stall_end(SimTime::from_ns(t)),
                inj2.stall_end(SimTime::from_ns(t))
            );
        }
    }

    #[test]
    fn delay_pushes_to_window_end_and_counts() {
        let mut inj = FaultInjector::new(stalling_plan(), 5);
        // Find a stalled instant.
        let t = (1_000..20_000u64)
            .find(|&t| inj.stall_end(SimTime::from_ns(t)).is_some())
            .expect("a window must open");
        let now = SimTime::from_ns(t);
        let end = inj.stall_end(now).unwrap();
        assert_eq!(inj.delay(now), end);
        assert!(end > now);
        let st = inj.stats();
        assert_eq!(st.stalled_ops, 1);
        assert_eq!(st.stall_delay_ns, end - now);
        // Outside a window: no delay, no counting.
        let quiet = SimTime::from_ns(500);
        assert_eq!(inj.delay(quiet), quiet);
        assert_eq!(inj.stats().stalled_ops, 1);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_stall_plans_are_rejected() {
        let plan = FaultPlan {
            stall: Some(StallPlan {
                first_onset: 0,
                period: 1_000,
                onset_jitter: 0,
                duration: 2_000,
                duration_jitter: 0,
            }),
            ..FaultPlan::none()
        };
        FaultInjector::new(plan, 0);
    }
}
