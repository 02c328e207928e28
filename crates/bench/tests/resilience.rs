//! Fault-tolerance tests for the sweep executor: seeded chaos injection
//! (worker panics, cache corruption, forced-slow trials, worker kills,
//! mid-sweep aborts) must never change figure output — recovered runs are
//! byte-identical to clean ones — and unrecoverable trials must surface as
//! typed failures, not panics.

use std::path::PathBuf;
use std::sync::OnceLock;

use pagesim::experiments::{self, Bench, CellSpec, Scale};
use pagesim::FailureKind;
use pagesim_bench::sweep::{
    cache, run_sweep_resilient, ChaosPlan, SweepOptions, SweepOutcome, TraceRequest,
};
use pagesim_trace::TraceConfig;
use proptest::prelude::*;

fn tiny_bench() -> Bench {
    Bench::new(Scale {
        trials: 2,
        footprint: 0.1,
        seed: 11,
        page_compression: None,
    })
}

fn figs() -> Vec<String> {
    vec!["fig1".to_owned()]
}

/// The clean golden: what fig1 renders after a fault-free serial sweep.
fn golden() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let bench = tiny_bench();
        let serial = SweepOptions {
            jobs: 1,
            ..SweepOptions::default()
        };
        run_sweep_resilient(&bench, &figs(), &serial);
        render(&bench)
    })
}

fn render(bench: &Bench) -> String {
    experiments::fig1(bench).to_string()
}

/// A unique scratch directory per test (no tempfile crate offline).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pagesim-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_opts(jobs: usize, plan: ChaosPlan) -> SweepOptions {
    SweepOptions {
        jobs,
        cache_dir: None,
        chaos: Some(plan),
        ..SweepOptions::default()
    }
}

fn assert_clean_recovery(outcome: &SweepOutcome, bench: &Bench, what: &str) {
    assert!(!outcome.aborted, "{what}: unexpected abort");
    assert!(
        outcome.failures.is_empty(),
        "{what}: unexpected failures {:?}",
        outcome.failures
    );
    assert_eq!(render(bench), golden(), "{what}: recovered output diverged");
}

#[test]
fn transient_chaos_panics_retry_to_identical_output() {
    for jobs in [1, 4] {
        let bench = tiny_bench();
        let plan = ChaosPlan {
            seed: 7,
            panic_trials: 2,
            ..ChaosPlan::default()
        };
        let outcome = run_sweep_resilient(&bench, &figs(), &chaos_opts(jobs, plan));
        assert!(
            outcome.stats.retries >= 2,
            "jobs={jobs}: expected 2 panic retries, saw {}",
            outcome.stats.retries
        );
        assert_clean_recovery(&outcome, &bench, "transient panics");
    }
}

#[test]
fn permanent_panics_record_typed_failures_not_panics() {
    let bench = tiny_bench();
    let plan = ChaosPlan {
        seed: 9,
        permanent_panic_trials: 1,
        ..ChaosPlan::default()
    };
    let outcome = run_sweep_resilient(&bench, &figs(), &chaos_opts(2, plan));
    assert!(!outcome.aborted);
    assert_eq!(outcome.stats.failed, 1, "exactly one trial keeps panicking");
    assert_eq!(outcome.failures.len(), 1, "one cell loses a trial");
    let f = &outcome.failures[0];
    assert!(
        matches!(f.kind, FailureKind::Panic(_)),
        "classified as a panic: {f}"
    );
    assert_eq!(f.attempts, 3, "default max_attempts exhausted");
    assert!(!f.ident.is_empty());
}

#[test]
fn chaos_slow_trials_trip_the_budget_then_retry_unbudgeted() {
    let bench = tiny_bench();
    let plan = ChaosPlan {
        seed: 13,
        slow_trials: 1,
        ..ChaosPlan::default()
    };
    let outcome = run_sweep_resilient(&bench, &figs(), &chaos_opts(2, plan));
    assert!(
        outcome.stats.retries >= 1,
        "the tripped budget must cost a retry"
    );
    assert_clean_recovery(&outcome, &bench, "forced-slow trial");
}

#[test]
fn user_trial_budget_classifies_timeouts_without_merging_truncated_metrics() {
    let bench = tiny_bench();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: None,
        trial_budget: Some(1), // 1 simulated ns: every trial trips
        ..SweepOptions::default()
    };
    let outcome = run_sweep_resilient(&bench, &figs(), &opts);
    assert_eq!(
        outcome.failures.len(),
        outcome.stats.cells,
        "every cell should lose its trials to the budget"
    );
    assert!(outcome
        .failures
        .iter()
        .all(|f| matches!(f.kind, FailureKind::Timeout)));
    // Timeouts are deterministic, not transient: one attempt each.
    assert!(outcome.failures.iter().all(|f| f.attempts == 1));
}

/// The traced trial runs under the budget every other trial runs under:
/// tracing a cell cannot merge a trial that would otherwise time out.
#[test]
fn traced_trial_honours_the_trial_budget() {
    let run = |trace| {
        let opts = SweepOptions {
            jobs: 2,
            cache_dir: None,
            trial_budget: Some(1),
            trace,
            ..SweepOptions::default()
        };
        run_sweep_resilient(&tiny_bench(), &figs(), &opts)
    };
    let plain = run(None);
    let traced = run(Some(TraceRequest {
        query: experiments::figure_cells("fig1")[1].clone(),
        trial: 0,
        config: TraceConfig::default(),
    }));
    assert!(
        traced.trace.is_some(),
        "the timed-out trial is still traced"
    );
    assert_eq!(traced.stats.failed, plain.stats.failed);
    assert_eq!(traced.stats.failed, traced.stats.trials);
    assert_eq!(traced.failures, plain.failures);
}

#[test]
fn worker_kill_respawns_and_requeues_the_trial() {
    let bench = tiny_bench();
    let plan = ChaosPlan {
        seed: 21,
        kill_workers: 1,
        ..ChaosPlan::default()
    };
    let outcome = run_sweep_resilient(&bench, &figs(), &chaos_opts(2, plan));
    assert_eq!(outcome.stats.respawns, 1, "the killed worker was replaced");
    assert_clean_recovery(&outcome, &bench, "worker kill");
}

#[test]
fn corrupt_cache_entries_are_quarantined_and_recomputed() {
    let dir = scratch_dir("quarantine");
    let warm = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let bench = tiny_bench();
    let outcome = run_sweep_resilient(&bench, &figs(), &warm);
    assert_eq!(outcome.stats.cache_hits, 0);
    let clean = render(&bench);
    assert_eq!(clean, golden());

    // Second run: chaos flips one byte in one entry before reading.
    let bench = tiny_bench();
    let opts = SweepOptions {
        chaos: Some(ChaosPlan {
            seed: 3,
            corrupt_entries: 1,
            ..ChaosPlan::default()
        }),
        ..warm.clone()
    };
    let outcome = run_sweep_resilient(&bench, &figs(), &opts);
    assert_eq!(
        outcome.stats.quarantined, 1,
        "the bad entry was quarantined"
    );
    assert_eq!(
        outcome.stats.cache_hits,
        outcome.stats.trials - 1,
        "only the corrupted entry recomputes"
    );
    assert_clean_recovery(&outcome, &bench, "cache corruption");
    let quarantined = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .filter(|e| e.path().to_string_lossy().ends_with(".quarantine"))
        .count();
    assert_eq!(
        quarantined, 1,
        "the corrupt bytes are preserved for inspection"
    );

    // Third run: the recomputed entry is valid again.
    let bench = tiny_bench();
    let outcome = run_sweep_resilient(&bench, &figs(), &warm);
    assert_eq!(outcome.stats.cache_hits, outcome.stats.trials);
    assert_eq!(render(&bench), golden());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_tmp_files_are_cleaned_at_startup() {
    let dir = scratch_dir("tmpclean");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("dead.tmp3"), b"torn write").expect("tmp file");
    std::fs::write(dir.join("0123456789abcdef.cell.tmp7"), b"torn").expect("tmp file");
    let bench = tiny_bench();
    let opts = SweepOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let outcome = run_sweep_resilient(&bench, &figs(), &opts);
    assert_eq!(outcome.stats.tmp_cleaned, 2);
    let leftover = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .filter(|e| e.path().to_string_lossy().contains(".tmp"))
        .count();
    assert_eq!(leftover, 0, "stale tmp files survived startup cleaning");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario: a chaos-aborted ("killed") run followed by
/// `--resume` must produce byte-identical figure output, serving journaled
/// progress from the cache.
#[test]
fn aborted_run_resumes_to_byte_identical_output() {
    let dir = scratch_dir("resume");
    let journal = dir.join("run-journal.jsonl");

    let bench = tiny_bench();
    let aborted = run_sweep_resilient(
        &bench,
        &figs(),
        &SweepOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            journal: Some(journal.clone()),
            chaos: Some(ChaosPlan {
                seed: 5,
                abort_after: Some(3),
                ..ChaosPlan::default()
            }),
            ..SweepOptions::default()
        },
    );
    assert!(aborted.aborted, "abort-after must stop the sweep");
    assert!(aborted.failures.is_empty(), "an abort is not a failure");
    let journal_text = std::fs::read_to_string(&journal).expect("journal written");
    assert!(journal_text.contains("\"aborted\":true"));
    assert!(journal_text.contains("\"kind\":\"trial\""));

    let bench = tiny_bench();
    let resumed = run_sweep_resilient(
        &bench,
        &figs(),
        &SweepOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            journal: Some(journal.clone()),
            resume: true,
            ..SweepOptions::default()
        },
    );
    assert!(!resumed.aborted);
    assert!(resumed.failures.is_empty());
    assert!(
        resumed.stats.resumed >= 3,
        "journalled trials must be served from cache, saw resumed={}",
        resumed.stats.resumed
    );
    assert_eq!(
        render(&bench),
        golden(),
        "resumed output diverged from an uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal's lines of one kind.
fn journal_lines(text: &str, kind: &str) -> Vec<String> {
    let tag = format!("\"kind\":\"{kind}\"");
    text.lines()
        .filter(|l| l.contains(&tag))
        .map(str::to_owned)
        .collect()
}

/// A warm re-run serves every trial from the cache and journals each one
/// exactly once, as a group-committed `"attempts":0` line, before the end
/// line.
#[test]
fn warm_rerun_journals_every_hit_once() {
    let dir = scratch_dir("warm-journal");
    let journal = dir.join("run-journal.jsonl");
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        journal: Some(journal.clone()),
        ..SweepOptions::default()
    };
    run_sweep_resilient(&tiny_bench(), &figs(), &opts);
    let bench = tiny_bench();
    let warm = run_sweep_resilient(&bench, &figs(), &opts);
    assert_eq!(warm.stats.cache_hits, warm.stats.trials, "every trial hits");
    assert_clean_recovery(&warm, &bench, "warm re-run");

    let text = std::fs::read_to_string(&journal).expect("journal written");
    let hits = text
        .lines()
        .filter(|l| l.contains("\"attempts\":0"))
        .count();
    assert_eq!(hits, warm.stats.trials, "one hit line per planned trial");
    assert_eq!(journal_lines(&text, "trial").len(), warm.stats.trials);
    let last = text.lines().last().expect("journal has lines");
    assert!(
        last.contains("\"kind\":\"end\""),
        "ends with the end line: {last}"
    );
    assert!(
        last.contains(&format!("\"done\":{}", warm.stats.trials)),
        "{last}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos abort loses no buffered line: every outcome the collector
/// received before the sweep stopped is in the journal, ahead of the
/// aborted end line.
#[test]
fn aborted_journal_holds_every_received_outcome() {
    let dir = scratch_dir("abort-journal");
    let journal = dir.join("run-journal.jsonl");
    let abort_after = 3;
    let outcome = run_sweep_resilient(
        &tiny_bench(),
        &figs(),
        &SweepOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            journal: Some(journal.clone()),
            chaos: Some(ChaosPlan {
                seed: 17,
                abort_after: Some(abort_after),
                ..ChaosPlan::default()
            }),
            ..SweepOptions::default()
        },
    );
    assert!(outcome.aborted, "abort-after must stop the sweep");
    let received = outcome.stats.cache_hits + outcome.stats.cache_misses;
    assert!(received >= abort_after, "received {received} outcomes");

    let text = std::fs::read_to_string(&journal).expect("journal written");
    let trials = journal_lines(&text, "trial");
    assert_eq!(trials.len(), received, "a trial line per received outcome");
    let mut hashes: Vec<&str> = trials
        .iter()
        .filter_map(|l| l.split("\"hash\":\"").nth(1)?.get(..16))
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), received, "each outcome journalled once");
    let last = text.lines().last().expect("journal has lines");
    assert!(last.contains("\"aborted\":true"), "{last}");
    assert!(last.contains(&format!("\"done\":{received}")), "{last}");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Cache quarantine property
// ---------------------------------------------------------------------

/// One real cache entry, stored once and shared across proptest cases.
fn seed_entry() -> &'static (Bench, CellSpec, Vec<u8>, String) {
    static ENTRY: OnceLock<(Bench, CellSpec, Vec<u8>, String)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let bench = tiny_bench();
        let query = experiments::figure_cells("fig1")
            .into_iter()
            .next()
            .expect("fig1 has cells");
        let spec = CellSpec { query, trial: 0 };
        let metrics = bench.run_trial(&spec.query, 0);
        let dir = scratch_dir("prop-seed");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        cache::store(&dir, &bench, &spec, &metrics, 0);
        let (path, _) = cache::entry_path(&dir, &bench, &spec);
        let bytes = std::fs::read(&path).expect("stored entry");
        let name = path
            .file_name()
            .expect("entry file name")
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        (bench, spec, bytes, name)
    })
}

proptest! {
    /// Any single flipped byte in a cache entry must never be parsed as a
    /// hit: the read either sees a stale-format miss or quarantines the
    /// entry — and a quarantined entry is preserved on disk, not re-read.
    #[test]
    fn flipped_cache_bytes_never_parse(pos in 0usize..1_000_000, xor in 1u8..=255u8) {
        let (bench, spec, bytes, name) = seed_entry();
        let mut flipped = bytes.clone();
        let p = pos % flipped.len();
        flipped[p] ^= xor;
        let dir = scratch_dir(&format!("prop-{p}-{xor}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join(name), &flipped).expect("write flipped entry");
        let read = cache::load(&dir, bench, spec);
        prop_assert!(
            !matches!(read, cache::CacheRead::Hit(_)),
            "byte {p} xor {xor:#04x} parsed as a cache hit"
        );
        if matches!(read, cache::CacheRead::Quarantined) {
            prop_assert!(
                dir.join(format!("{name}.quarantine")).exists(),
                "quarantined entry was not preserved"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
