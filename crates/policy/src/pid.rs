//! The tier-refault PID controller.
//!
//! MG-LRU keeps pages accessed only through file descriptors in *tiers*
//! within a generation rather than promoting them over hot pages. If a
//! higher tier (frequently fd-accessed pages) refaults more than the base
//! tier, evicting it was a mistake — the controller then *protects* that
//! tier until the refault rates balance (§III-D of the paper).
//!
//! We implement a textbook discrete PID controller over the error signal
//! `refault_rate(tier) - refault_rate(tier 0)`, with the kernel's actual
//! behaviour (a proportional gain on refault counters) recoverable by
//! zeroing `ki`/`kd`.

/// Gains and state of a discrete PID controller.
///
/// ```rust
/// use pagesim_policy::PidController;
/// let mut pid = PidController::new(1.0, 0.1, 0.0);
/// // Positive error (tier refaults more than base) pushes output up.
/// let out = pid.update(0.5);
/// assert!(out > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PidController {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    last_error: f64,
}

impl PidController {
    /// Creates a controller with the given gains.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        PidController {
            kp,
            ki,
            kd,
            integral: 0.0,
            last_error: 0.0,
        }
    }

    /// Feeds one error sample (unit time step); returns the new output.
    #[expect(
        clippy::float_arithmetic,
        reason = "PID refault controller mirrors the kernel's arithmetic in f64; deterministic for identical seeded inputs on IEEE-754 hosts; an integer port is a fidelity question, since only the default gains are used"
    )]
    pub fn update(&mut self, error: f64) -> f64 {
        self.integral = (self.integral + error).clamp(-100.0, 100.0);
        let derivative = error - self.last_error;
        self.last_error = error;
        self.kp * error + self.ki * self.integral + self.kd * derivative
    }
}

/// Per-tier refault bookkeeping plus the controller that decides which
/// tiers eviction must protect.
#[derive(Clone, Debug)]
pub struct TierBalancer {
    /// Pages evicted from each tier since the last rebalance.
    evicted: [u64; MAX_TIERS],
    /// Refaults attributed to each tier since the last rebalance.
    refaulted: [u64; MAX_TIERS],
    controllers: [PidController; MAX_TIERS],
    /// Tiers strictly below this bound are evictable; tiers at or above it
    /// are protected (moved to a younger generation instead of evicted).
    protect_from: usize,
}

/// Number of tiers (matches the kernel's `MAX_NR_TIERS`).
pub const MAX_TIERS: usize = 4;

impl TierBalancer {
    /// Creates a balancer; nothing is protected initially.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        TierBalancer {
            evicted: [0; MAX_TIERS],
            refaulted: [0; MAX_TIERS],
            controllers: [PidController::new(kp, ki, kd); MAX_TIERS],
            protect_from: MAX_TIERS, // protect nothing
        }
    }

    /// Records that a page from `tier` was evicted.
    pub fn note_eviction(&mut self, tier: usize) {
        self.evicted[tier.min(MAX_TIERS - 1)] += 1;
    }

    /// Records a refault of a page that had been evicted from `tier`.
    pub fn note_refault(&mut self, tier: usize) {
        self.refaulted[tier.min(MAX_TIERS - 1)] += 1;
    }

    /// Refault rate of a tier over the current window.
    #[expect(
        clippy::float_arithmetic,
        reason = "refault-rate ratio feeding the PID controller; same justification as `PidController::update`"
    )]
    fn rate(&self, tier: usize) -> f64 {
        let e = self.evicted[tier];
        if e == 0 {
            return 0.0;
        }
        self.refaulted[tier] as f64 / e as f64
    }

    /// Runs the controllers and recomputes the protection boundary.
    /// Called periodically (MG-LRU does it per eviction batch).
    #[expect(
        clippy::float_arithmetic,
        reason = "the PID error signal is a difference of f64 refault rates; same justification as `PidController::update`"
    )]
    pub fn rebalance(&mut self) {
        let base = self.rate(0);
        self.protect_from = MAX_TIERS;
        for tier in (1..MAX_TIERS).rev() {
            let err = self.rate(tier) - base;
            let out = self.controllers[tier].update(err);
            if out > 0.0 {
                // This tier (and implicitly everything above it) refaults
                // more than the base tier: protect it.
                self.protect_from = tier;
            }
        }
        // Start a fresh observation window, mirroring the kernel's decay.
        for t in 0..MAX_TIERS {
            self.evicted[t] /= 2;
            self.refaulted[t] /= 2;
        }
    }

    /// Raw `(evicted, refaulted)` counts for `tier` over the current
    /// observation window — integers for introspection dumps (the derived
    /// float rate stays private to the controller).
    pub fn window(&self, tier: usize) -> (u64, u64) {
        (self.evicted[tier], self.refaulted[tier])
    }

    /// Whether eviction must spare pages of `tier`.
    pub fn is_protected(&self, tier: usize) -> bool {
        tier >= self.protect_from && tier > 0
    }

    /// The protection boundary (for reports).
    pub fn protect_from(&self) -> usize {
        self.protect_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_tracks_error() {
        let mut pid = PidController::new(2.0, 0.0, 0.0);
        assert_eq!(pid.update(1.0), 2.0);
        assert_eq!(pid.update(-0.5), -1.0);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = PidController::new(0.0, 1.0, 0.0);
        pid.update(1.0);
        assert_eq!(pid.update(1.0), 2.0);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = PidController::new(0.0, 0.0, 1.0);
        assert_eq!(pid.update(1.0), 1.0); // from 0 to 1
        assert_eq!(pid.update(1.0), 0.0); // steady
        assert_eq!(pid.update(0.0), -1.0); // falling
    }

    #[test]
    fn integral_is_clamped() {
        let mut pid = PidController::new(0.0, 1.0, 0.0);
        for _ in 0..1000 {
            pid.update(10.0);
        }
        assert_eq!(pid.update(10.0), 100.0);
    }

    #[test]
    fn hot_tier_becomes_protected() {
        let mut tb = TierBalancer::new(1.0, 0.0, 0.0);
        // Tier 2 refaults badly; tier 0 doesn't.
        for _ in 0..100 {
            tb.note_eviction(0);
            tb.note_eviction(2);
        }
        for _ in 0..80 {
            tb.note_refault(2);
        }
        for _ in 0..5 {
            tb.note_refault(0);
        }
        tb.rebalance();
        assert!(tb.is_protected(2));
        assert!(tb.is_protected(3), "everything above the boundary too");
        assert!(!tb.is_protected(0), "base tier is never protected");
    }

    #[test]
    fn balanced_rates_protect_nothing() {
        let mut tb = TierBalancer::new(1.0, 0.0, 0.0);
        for _ in 0..100 {
            tb.note_eviction(0);
            tb.note_eviction(1);
            tb.note_refault(0);
            tb.note_refault(1);
        }
        tb.rebalance();
        assert!(!tb.is_protected(1));
        assert_eq!(tb.protect_from(), MAX_TIERS);
    }

    #[test]
    fn protection_decays_when_rates_balance() {
        let mut tb = TierBalancer::new(1.0, 0.0, 0.0);
        for _ in 0..50 {
            tb.note_eviction(1);
            tb.note_refault(1);
            tb.note_eviction(0);
        }
        tb.rebalance();
        assert!(tb.is_protected(1));
        // Window halves each rebalance; with no new refaults anywhere the
        // rates converge and protection lifts.
        for _ in 0..8 {
            for _ in 0..50 {
                tb.note_eviction(0);
                tb.note_eviction(1);
            }
            tb.rebalance();
        }
        assert!(!tb.is_protected(1));
    }
}
