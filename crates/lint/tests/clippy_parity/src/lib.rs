//! Parity fixtures for the determinism rules enforced by the repo's root
//! `clippy.toml` (L1–L3, L6) and by the hot-path files' unwrap/expect deny
//! (L5).
//!
//! Every `*_bad` item holds one banned construct under an `#[expect]` of
//! the lint that must catch it. Remove the `clippy.toml` entry behind a
//! construct and its expectation goes unfulfilled, which fails
//! `cargo clippy -- -D warnings`. Each item holds exactly one construct, so
//! every entry has an item that only it fulfils. The `*_good` items carry
//! no `expect`: a false positive on them fails the run too.

#![allow(dead_code)]

/// L1 `hash-iter`: hash-ordered kernel state.
pub mod l1_bad {
    #[expect(clippy::disallowed_types, reason = "parity: HashMap")]
    pub struct SlotReady {
        slot_ready: std::collections::HashMap<u64, u64>,
    }

    #[expect(clippy::disallowed_types, reason = "parity: HashSet")]
    pub struct Pinned {
        pinned: std::collections::HashSet<u32>,
    }
}

/// L1-clean: ordered containers may be iterated.
pub mod l1_good {
    use std::collections::BTreeMap;

    pub struct Kernel {
        slot_ready: BTreeMap<u64, u64>,
        lookup: BTreeMap<u64, u64>,
    }

    impl Kernel {
        pub fn drain_ready(&mut self) {
            for (slot, at) in self.slot_ready.iter() {
                let _ = (slot, at);
            }
        }

        pub fn probe(&mut self, k: u64) -> Option<u64> {
            self.lookup.insert(k, 1);
            self.lookup.get(&k).copied()
        }
    }
}

/// L2 `wall-clock`: ambient time and entropy.
pub mod l2_bad {
    #[expect(clippy::disallowed_methods, reason = "parity: Instant::now")]
    pub fn stamp() -> u128 {
        let t0 = std::time::Instant::now();
        t0.elapsed().as_nanos()
    }

    #[expect(clippy::disallowed_types, reason = "parity: SystemTime")]
    pub fn wall() {
        let wall = std::time::SystemTime::now();
        let _ = wall;
    }

    #[expect(clippy::disallowed_types, reason = "parity: RandomState")]
    pub fn hasher_seed() {
        let state = std::hash::RandomState::new();
        let _ = state;
    }
}

/// L2: a trace sampler keyed off the wall clock instead of sim time.
pub mod l2_sampler_bad {
    #[expect(clippy::disallowed_methods, reason = "parity: Instant::now")]
    pub fn sample_tick(series: &mut Vec<(u128, u64)>, faults: u64) {
        let now = std::time::Instant::now();
        series.push((now.elapsed().as_nanos(), faults));
    }
}

/// L2 reached through a helper in a crate that is not a sim crate: the
/// workspace-wide ban covers it where it stands.
pub mod trans_util_bad {
    pub fn helper_a() -> u64 {
        helper_b()
    }

    #[expect(clippy::disallowed_methods, reason = "parity: Instant::now")]
    fn helper_b() -> u64 {
        let start = std::time::Instant::now();
        start.elapsed().as_nanos() as u64
    }
}

/// L2-clean: time is simulated, entropy is seeded.
pub mod l2_good {
    pub struct SimTime(u64);

    pub fn stamp(now: SimTime, seed: u64) -> u64 {
        // A seeded generator is fine; only ambient entropy is banned.
        now.0 ^ seed.wrapping_mul(0x9E3779B97F4A7C15)
    }
}

/// L3 `thread-spawn`: threads outside the sweep executor.
pub mod l3_bad {
    #[expect(clippy::disallowed_methods, reason = "parity: thread::spawn")]
    pub fn fan_out() {
        let h = std::thread::spawn(|| 42);
        let _ = h.join();
    }

    #[expect(clippy::disallowed_methods, reason = "parity: thread::scope")]
    pub fn fan_out_scoped() {
        std::thread::scope(|s| {
            s.spawn(|| 42);
        });
    }

    #[expect(clippy::disallowed_methods, reason = "parity: thread::Builder::new")]
    pub fn named_worker() {
        let builder = std::thread::Builder::new();
        let _ = builder;
    }
}

/// L3-clean: work is expressed as data; the sweep executor owns all
/// parallelism.
pub mod l3_good {
    pub fn fan_out(specs: &[u64]) -> Vec<u64> {
        specs.iter().map(|s| s + 1).collect()
    }
}

/// L5 `hot-unwrap`: a hot-path file denies unwrap/expect.
pub mod l5_bad {
    #![deny(clippy::unwrap_used, clippy::expect_used)]

    #[expect(clippy::unwrap_used, reason = "parity: unwrap on a hot path")]
    pub fn fault_slot(slot: Option<u64>) -> u64 {
        slot.unwrap()
    }

    #[expect(clippy::expect_used, reason = "parity: expect on a hot path")]
    pub fn fault_frame(frame: Result<u32, ()>) -> u32 {
        frame.expect("no frame")
    }

    // Tests of a hot-path file may unwrap: clean only because of
    // `allow-unwrap-in-tests` / `allow-expect-in-tests`.
    #[cfg(test)]
    mod tests {
        #[test]
        fn unwraps_in_tests_are_allowed() {
            let slot = "7".parse::<u64>().unwrap();
            let frame = "3".parse::<u32>().expect("a number");
            assert_eq!(slot + u64::from(frame), 10);
        }
    }
}

/// L5-clean: hot-path errors propagate as typed values.
pub mod l5_good {
    #![deny(clippy::unwrap_used, clippy::expect_used)]

    pub enum SimError {
        Deadlock,
    }

    pub fn fault(slot: Option<u64>) -> Result<u64, SimError> {
        slot.ok_or(SimError::Deadlock)
    }
}

/// L6 `catch-unwind`: ad-hoc panic swallowing outside the sanctioned
/// isolation module — both the imported and the qualified call.
pub mod l6_bad {
    #[expect(clippy::disallowed_methods, reason = "parity: catch_unwind")]
    pub fn swallow(f: impl Fn() + std::panic::UnwindSafe + Copy) {
        use std::panic::catch_unwind;
        let _ = catch_unwind(f);
        let _ = std::panic::catch_unwind(f);
    }
}

/// L6-clean: panics propagate; mentioning catch_unwind in comments or
/// strings is fine.
pub mod l6_good {
    pub fn run(f: impl Fn() -> u32) -> u32 {
        // A failed invariant here should unwind to the isolation layer, not
        // be swallowed locally ("catch_unwind" belongs there alone).
        let banner = "no catch_unwind here";
        let _ = banner;
        f()
    }
}
