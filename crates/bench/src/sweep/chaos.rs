//! Test-only fault injection for the harness itself.
//!
//! PR 1 gave the *simulated system* a fault model (`FaultConfig`); this
//! module extends the same philosophy to the *sweep executor*: a seeded
//! [`ChaosPlan`] injects worker panics, slow trials, cache corruption, a
//! mid-flight worker kill, or a hard abort, so the integration tests and
//! the CI interrupted-sweep job can prove that isolation, retry,
//! quarantine, and resume actually work.
//!
//! Determinism contract: every injection site is selected from the seed
//! and the *spec index* (canonical enumeration order), never from
//! scheduling order — so a chaos sweep at `--jobs 8` injects exactly the
//! same faults as at `--jobs 1`, and its recovered output stays
//! byte-identical to a clean run.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// What to break, and where. Parsed from `repro --chaos` or built directly
/// by tests. Everything defaults to "no injection".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Selection seed for all injection sites.
    pub seed: u64,
    /// Trials that panic on their first attempt only — a retry recovers.
    pub panic_trials: usize,
    /// Trials that panic on *every* attempt — retries exhaust and the cell
    /// records a typed failure (for testing holes and failure reports).
    pub permanent_panic_trials: usize,
    /// Trials forced slow on their first attempt via a 1 ns sim-time
    /// budget; the budget trips, the attempt is discarded, and the retry
    /// runs unbudgeted.
    pub slow_trials: usize,
    /// Cache entries corrupted (one byte flipped) before the sweep starts;
    /// only meaningful on a warm cache.
    pub corrupt_entries: usize,
    /// Trials whose first processing panics *outside* per-trial isolation,
    /// killing the whole worker — exercises the respawn + requeue path.
    pub kill_workers: usize,
    /// Stop scheduling new trials once this many completed, then drain and
    /// exit without merging — simulates a mid-sweep crash for the
    /// kill-and-resume tests and CI job.
    pub abort_after: Option<usize>,
}

impl ChaosPlan {
    /// Parses the `repro --chaos` spec string: comma-separated `key=value`
    /// pairs from `seed`, `panic`, `permanent-panic`, `slow`, `corrupt`,
    /// `kill-worker`, `abort-after`. Example:
    /// `seed=7,panic=2,corrupt=1,abort-after=40`.
    pub fn parse(spec: &str) -> Option<ChaosPlan> {
        let mut plan = ChaosPlan {
            seed: 0xC4A0_5EED,
            ..ChaosPlan::default()
        };
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=')?;
            let n: u64 = value.parse().ok()?;
            match key {
                "seed" => plan.seed = n,
                "panic" => plan.panic_trials = n as usize,
                "permanent-panic" => plan.permanent_panic_trials = n as usize,
                "slow" => plan.slow_trials = n as usize,
                "corrupt" => plan.corrupt_entries = n as usize,
                "kill-worker" => plan.kill_workers = n as usize,
                "abort-after" => plan.abort_after = Some(n as usize),
                _ => return None,
            }
        }
        Some(plan)
    }
}

/// splitmix64 finalizer: a cheap, well-mixed pure function of the seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws `count` distinct indices in `0..n` from the seed, disjoint from
/// `taken` (and extending it), so the different injection kinds never
/// overlap on one trial.
fn pick(
    seed: u64,
    tag: u64,
    count: usize,
    n: usize,
    taken: &mut BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    if n == 0 {
        return set;
    }
    let mut k = 0u64;
    while set.len() < count && taken.len() < n {
        let i = (mix(seed ^ tag.wrapping_mul(0x0100_0000_01B3) ^ k) % n as u64) as usize;
        k += 1;
        if taken.insert(i) {
            set.insert(i);
        }
    }
    set
}

/// A [`ChaosPlan`] resolved against a concrete spec list: the concrete
/// injection sites, plus the once-only bookkeeping for worker kills.
pub(super) struct ChaosState {
    plan: ChaosPlan,
    panic_set: BTreeSet<usize>,
    permanent_set: BTreeSet<usize>,
    slow_set: BTreeSet<usize>,
    kill_set: BTreeSet<usize>,
    kills_fired: Mutex<BTreeSet<usize>>,
}

impl ChaosState {
    pub(super) fn new(plan: ChaosPlan, n_specs: usize) -> ChaosState {
        let mut taken = BTreeSet::new();
        let panic_set = pick(plan.seed, 1, plan.panic_trials, n_specs, &mut taken);
        let permanent_set = pick(
            plan.seed,
            2,
            plan.permanent_panic_trials,
            n_specs,
            &mut taken,
        );
        let slow_set = pick(plan.seed, 3, plan.slow_trials, n_specs, &mut taken);
        let kill_set = pick(plan.seed, 4, plan.kill_workers, n_specs, &mut taken);
        ChaosState {
            plan,
            panic_set,
            permanent_set,
            slow_set,
            kill_set,
            kills_fired: Mutex::new(BTreeSet::new()),
        }
    }

    /// Should this attempt of this trial panic (inside isolation)?
    pub(super) fn inject_panic(&self, spec: usize, attempt: u32) -> bool {
        self.permanent_set.contains(&spec) || (attempt == 0 && self.panic_set.contains(&spec))
    }

    /// A forced sim-time budget for this attempt (1 ns trips immediately).
    pub(super) fn slow_budget(&self, spec: usize, attempt: u32) -> Option<u64> {
        (attempt == 0 && self.slow_set.contains(&spec)).then_some(1)
    }

    /// Should processing this trial kill the whole worker? Fires at most
    /// once per trial, so the requeued trial succeeds on its second host.
    pub(super) fn kill_worker(&self, spec: usize) -> bool {
        self.kill_set.contains(&spec) && super::lock(&self.kills_fired).insert(spec)
    }

    /// Has the abort threshold been reached?
    pub(super) fn should_abort(&self, completed: usize) -> bool {
        self.plan.abort_after.is_some_and(|n| completed >= n)
    }

    /// Flips one byte near the end of `corrupt_entries` seeded-chosen
    /// `.cell` files (the tail is always inside the checksummed region, so
    /// the read path must quarantine). Returns how many were corrupted.
    pub(super) fn corrupt_cache(&self, dir: &Path) -> usize {
        if self.plan.corrupt_entries == 0 {
            return 0;
        }
        let Ok(rd) = fs::read_dir(dir) else { return 0 };
        let mut files: Vec<PathBuf> = rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "cell"))
            .collect();
        files.sort();
        let mut taken = BTreeSet::new();
        let chosen = pick(
            self.plan.seed,
            5,
            self.plan.corrupt_entries,
            files.len(),
            &mut taken,
        );
        let mut corrupted = 0;
        for i in chosen {
            let Ok(mut bytes) = fs::read(&files[i]) else {
                continue;
            };
            if bytes.len() < 2 {
                continue;
            }
            let pos = bytes.len() - 2;
            bytes[pos] ^= 0x5A;
            if fs::write(&files[i], bytes).is_ok() {
                corrupted += 1;
            }
        }
        corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_acceptance_spec() {
        let plan = ChaosPlan::parse("seed=7,panic=2,corrupt=1,abort-after=40").expect("valid");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_trials, 2);
        assert_eq!(plan.corrupt_entries, 1);
        assert_eq!(plan.abort_after, Some(40));
        assert!(ChaosPlan::parse("panic=x").is_none());
        assert!(ChaosPlan::parse("unknown=1").is_none());
    }

    #[test]
    fn injection_sites_are_deterministic_and_disjoint() {
        let plan = ChaosPlan {
            seed: 42,
            panic_trials: 3,
            permanent_panic_trials: 2,
            slow_trials: 2,
            kill_workers: 1,
            ..ChaosPlan::default()
        };
        let a = ChaosState::new(plan.clone(), 100);
        let b = ChaosState::new(plan, 100);
        assert_eq!(a.panic_set, b.panic_set);
        assert_eq!(a.slow_set, b.slow_set);
        assert_eq!(a.panic_set.len(), 3);
        assert!(a.panic_set.is_disjoint(&a.permanent_set));
        assert!(a.panic_set.is_disjoint(&a.slow_set));
        assert!(a.slow_set.is_disjoint(&a.kill_set));
    }

    #[test]
    fn transient_panics_fire_on_first_attempt_only() {
        let plan = ChaosPlan {
            panic_trials: 1,
            ..ChaosPlan::default()
        };
        let s = ChaosState::new(plan, 1);
        assert!(s.inject_panic(0, 0));
        assert!(!s.inject_panic(0, 1));
    }

    #[test]
    fn worker_kill_fires_once() {
        let plan = ChaosPlan {
            kill_workers: 1,
            ..ChaosPlan::default()
        };
        let s = ChaosState::new(plan, 1);
        assert!(s.kill_worker(0));
        assert!(!s.kill_worker(0));
    }
}
