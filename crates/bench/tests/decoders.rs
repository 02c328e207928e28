//! Decoder robustness for the `--chaos` spec, the one input `repro`
//! parses beyond its flags and the cell cache: damaged input must never
//! panic, and a spec must parse back to the fields it spells.

use pagesim_bench::ChaosPlan;
use proptest::prelude::*;

/// Spells a chaos plan as a `--chaos` spec, its fields in the order
/// `order` sorts them into.
fn spec_of(plan: &ChaosPlan, order: [u8; 7]) -> String {
    let mut fields = vec![
        (order[0], format!("seed={}", plan.seed)),
        (order[1], format!("panic={}", plan.panic_trials)),
        (
            order[2],
            format!("permanent-panic={}", plan.permanent_panic_trials),
        ),
        (order[3], format!("slow={}", plan.slow_trials)),
        (order[4], format!("corrupt={}", plan.corrupt_entries)),
        (order[5], format!("kill-worker={}", plan.kill_workers)),
    ];
    if let Some(n) = plan.abort_after {
        fields.push((order[6], format!("abort-after={n}")));
    }
    fields.sort();
    let parts: Vec<String> = fields.into_iter().map(|(_, f)| f).collect();
    parts.join(",")
}

proptest! {
    /// A spec built from field values parses back to exactly those values,
    /// in any field order.
    #[test]
    fn chaos_spec_round_trips(
        seed in any::<u64>(),
        counts in (0usize..1_000, 0usize..1_000, 0usize..1_000, 0usize..1_000, 0usize..1_000),
        abort_after in (any::<bool>(), 0usize..100_000),
        order in prop::collection::vec(any::<u8>(), 7..8),
    ) {
        let plan = ChaosPlan {
            seed,
            panic_trials: counts.0,
            permanent_panic_trials: counts.1,
            slow_trials: counts.2,
            corrupt_entries: counts.3,
            kill_workers: counts.4,
            abort_after: abort_after.0.then_some(abort_after.1),
        };
        let order: [u8; 7] = order.try_into().expect("seven sort keys");
        let spec = spec_of(&plan, order);
        prop_assert_eq!(ChaosPlan::parse(&spec), Some(plan), "spec {}", spec);
    }

    /// Truncations and single-byte flips of a valid spec parse or reject
    /// without panicking. Flips keep the ASCII spec valid UTF-8.
    #[test]
    fn chaos_spec_damage_never_panics(
        seed in any::<u64>(),
        count in 0usize..1_000,
        flips in prop::collection::vec((any::<u64>(), 1u8..=127), 64..65),
    ) {
        let plan = ChaosPlan {
            seed,
            panic_trials: count,
            slow_trials: count / 2,
            abort_after: Some(count),
            ..ChaosPlan::default()
        };
        let spec = spec_of(&plan, [0, 1, 2, 3, 4, 5, 6]);
        for len in 0..spec.len() {
            let _ = ChaosPlan::parse(&spec[..len]);
        }
        for (pos, mask) in flips {
            let mut damaged = spec.clone().into_bytes();
            damaged[(pos % spec.len() as u64) as usize] ^= mask;
            let _ = ChaosPlan::parse(std::str::from_utf8(&damaged).expect("ASCII"));
        }
    }
}
