//! Virtual time.
//!
//! All simulation time is expressed in integer nanoseconds. Durations are
//! plain [`Nanos`] (`u64`); instants are the [`SimTime`] newtype so the two
//! cannot be confused in APIs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in virtual nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// An instant on the virtual clock, counted in nanoseconds from simulation
/// start.
///
/// `SimTime` is ordered, copyable and cheap; arithmetic with plain [`Nanos`]
/// durations is provided via `+`/`-`.
///
/// ```rust
/// use pagesim_engine::{SimTime, MILLISECOND};
/// let t = SimTime::ZERO + 3 * MILLISECOND;
/// assert_eq!(t.as_ns(), 3_000_000);
/// assert_eq!(t - SimTime::ZERO, 3_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any reachable simulation instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration from `earlier` to `self`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> Nanos {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<Nanos> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Nanos) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<Nanos> for SimTime {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Nanos;
    fn sub(self, rhs: SimTime) -> Nanos {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", self.0)
    }
}

impl fmt::Display for SimTime {
    #[expect(clippy::float_arithmetic, reason = "report-only human-readable time")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= SECOND {
            write!(f, "{:.3}s", ns as f64 / SECOND as f64)
        } else if ns >= MILLISECOND {
            write!(f, "{:.3}ms", ns as f64 / MILLISECOND as f64)
        } else if ns >= MICROSECOND {
            write!(f, "{:.3}us", ns as f64 / MICROSECOND as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_ns(5);
        assert_eq!((t + 10).as_ns(), 15);
        assert_eq!((t + 10) - t, 10);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(b.saturating_since(a), 4);
        assert_eq!(a.saturating_since(b), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_sub_panics_on_underflow() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_ns(2_000_000).to_string(), "2.000ms");
        assert_eq!(SimTime::from_ns(3 * SECOND).to_string(), "3.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert_eq!(SimTime::ZERO, SimTime::default());
        assert!(SimTime::MAX > SimTime::from_ns(u64::MAX - 1));
    }
}
