//! Decoder robustness for the two inputs `repro` reads back from outside
//! the cell cache: the run journal (`--resume`) and the `--chaos` spec.
//! Damaged input must never panic, a torn journal must never invent a
//! completed trial, and a spec must parse back to the fields it spells.

use std::fs;
use std::path::{Path, PathBuf};

use pagesim_bench::sweep::journal::{load_prior, Journal};
use pagesim_bench::ChaosPlan;
use proptest::prelude::*;

const STATUSES: [&str; 3] = ["done", "done-degraded", "failed"];

/// A fresh directory for one property's journal files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pagesim-decoders-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes a journal the way a sweep and one resume of it do, and returns
/// its bytes and the trial hashes it names. The first run records every
/// trial once; the resume re-runs only trials not recorded done, so a
/// trial's status can move from failed to done but never back.
fn write_journal(path: &Path, first: &[(u8, bool)], rerun: &[u8]) -> (Vec<u8>, Vec<u64>) {
    let hashes: Vec<u64> = (0..first.len() as u64)
        .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
        .collect();
    let mut done = vec![false; first.len()];
    {
        let mut j = Journal::open(path, false).expect("open journal");
        j.run_header(first.len(), first.len(), &["fig1".to_owned()], false);
        for (i, &(status, detail)) in first.iter().enumerate() {
            let status = STATUSES[status as usize % STATUSES.len()];
            done[i] = status != "failed";
            let detail = detail.then_some("panic: \"boom\"\n at {line}");
            j.trial(
                hashes[i],
                &format!("cell {i} trial 0"),
                status,
                detail,
                1,
                7,
            );
        }
        j.end(first.len(), 0, true);
    }
    {
        let mut j = Journal::open(path, true).expect("append journal");
        for (i, &status) in rerun.iter().enumerate() {
            let i = i % first.len();
            if !done[i] {
                let status = STATUSES[status as usize % STATUSES.len()];
                done[i] = status != "failed";
                j.trial(hashes[i], &format!("cell {i} trial 0"), status, None, 2, 9);
            }
        }
        j.commit();
    }
    (fs::read(path).expect("read journal"), hashes)
}

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
    /// Every truncation of a journal loads without panicking, and a trial
    /// it reads as done is done in the whole journal too.
    #[test]
    fn journal_truncations_never_invent_done_trials(
        first in prop::collection::vec((0u8..3, any::<bool>()), 1..6),
        rerun in prop::collection::vec(0u8..3, 0..4),
    ) {
        let dir = scratch("truncate");
        let path = dir.join("j.jsonl");
        let (bytes, hashes) = write_journal(&path, &first, &rerun);
        let full = load_prior(&path);
        let cut = dir.join("cut.jsonl");
        for len in 0..bytes.len() {
            fs::write(&cut, &bytes[..len]).expect("write truncation");
            let prior = load_prior(&cut);
            for &h in &hashes {
                prop_assert!(
                    !prior.is_done(h) || full.is_done(h),
                    "{len}-byte prefix reads {h:016x} as done"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// 64 single-byte flips of a journal each load without panicking.
    /// The journal is ASCII and each flip keeps it so, so every damaged
    /// copy reaches the line parser rather than failing as UTF-8.
    #[test]
    fn journal_byte_flips_never_panic(
        first in prop::collection::vec((0u8..3, any::<bool>()), 1..6),
        flips in prop::collection::vec((any::<u64>(), 1u8..=127), 64..65),
    ) {
        let dir = scratch("flip");
        let path = dir.join("j.jsonl");
        let (bytes, _) = write_journal(&path, &first, &[]);
        let flipped = dir.join("flip.jsonl");
        for (pos, mask) in flips {
            let mut damaged = bytes.clone();
            damaged[(pos % bytes.len() as u64) as usize] ^= mask;
            fs::write(&flipped, &damaged).expect("write flip");
            load_prior(&flipped);
        }
        fs::remove_dir_all(&dir).ok();
    }

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
