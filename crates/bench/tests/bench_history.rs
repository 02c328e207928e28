//! The bench history file's durability contract (ISSUE 7 satellite):
//! parse → re-serialize is byte-identical, appending preserves earlier
//! entries untouched, a torn final entry is quarantined rather than parsed
//! or overwritten, and the `--check` gate's exit codes are what CI keys on
//! (0 pass, 2 unusable baseline, 5 regression).

use std::path::PathBuf;
use std::process::Command;

use pagesim_bench::repro_bench::history::{
    self, BenchEntry, BenchHistory, Direction, MetricRecord,
};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pagesim-benchhist-{}-{}", name, std::process::id()))
}

fn record(name: &str, mean: f64) -> MetricRecord {
    MetricRecord {
        name: name.to_string(),
        unit: "u".to_string(),
        direction: Direction::Higher,
        mean,
        stddev: mean * 0.01,
        stderr: mean * 0.005,
        min: mean * 0.98,
        max: mean * 1.02,
        samples: 5,
        ci_lo: mean * 0.985,
        ci_hi: mean * 1.015,
        ci_width_ratio: 0.03,
        converged: true,
    }
}

fn entry(commit: &str, metrics: Vec<MetricRecord>) -> BenchEntry {
    BenchEntry {
        commit: commit.to_string(),
        timestamp_unix: 1_754_700_000,
        bench_scale: "quick".to_string(),
        seed: 0xC0FFEE,
        counters_enabled: false,
        metrics,
    }
}

#[test]
fn append_preserves_earlier_entries_byte_for_byte() {
    let path = tmp("append");
    let _ = std::fs::remove_file(&path);

    let mut commits = Vec::new();
    for i in 0..4 {
        let loaded = history::load(&path);
        assert!(loaded.quarantined.is_none());
        let mut hist = loaded.history;
        assert_eq!(hist.entries.len(), i);
        let before = hist.serialize();
        hist.entries
            .push(entry(&format!("commit-{i}"), vec![record("m", 100.0 + i as f64)]));
        history::save(&hist, &path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        // The old document is a strict prefix-shape of the new one: every
        // earlier entry's serialized form appears unchanged.
        let reread = BenchHistory::parse(&text).unwrap();
        assert_eq!(reread.serialize(), text, "roundtrip not byte-identical");
        for (j, e) in reread.entries.iter().take(i).enumerate() {
            let mut solo_old = BenchHistory::default();
            solo_old.entries.push(BenchHistory::parse(&before).unwrap().entries[j].clone());
            let mut solo_new = BenchHistory::default();
            solo_new.entries.push(e.clone());
            assert_eq!(
                solo_old.serialize(),
                solo_new.serialize(),
                "append changed earlier entry {j}"
            );
        }
        commits.push(format!("commit-{i}"));
    }
    let final_hist = history::load(&path).history;
    let got: Vec<&str> = final_hist.entries.iter().map(|e| e.commit.as_str()).collect();
    assert_eq!(got, commits.iter().map(String::as_str).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&path);
}

/// The committed trajectory itself survives parse → re-serialize.
#[test]
fn committed_history_round_trips_byte_for_byte() {
    let text = include_str!("../../../BENCH_pagesim.json");
    let hist = BenchHistory::parse(text).expect("committed history parses");
    assert!(!hist.entries.is_empty());
    assert_eq!(hist.serialize(), text);
}

#[test]
fn torn_final_entry_is_quarantined_not_parsed() {
    let path = tmp("torn");
    let _ = std::fs::remove_file(&path);
    let hist = BenchHistory {
        entries: vec![
            entry("ok-1", vec![record("m", 100.0)]),
            entry("ok-2", vec![record("m", 101.0)]),
        ],
    };
    history::save(&hist, &path).unwrap();
    // Tear the file mid-final-entry, as a crash during a non-atomic write
    // would.
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.rfind("\"commit\": \"ok-2\"").unwrap() + 20;
    std::fs::write(&path, &text[..cut]).unwrap();

    let loaded = history::load(&path);
    let qpath = loaded.quarantined.expect("torn file must be quarantined");
    assert!(qpath.to_string_lossy().ends_with(".quarantine"));
    assert!(qpath.exists(), "quarantined bytes must survive for forensics");
    assert!(loaded.history.entries.is_empty(), "no partial parse");
    assert!(!path.exists(), "original must have been moved aside");
    // The quarantined bytes are exactly the torn content — nothing lost.
    assert_eq!(std::fs::read_to_string(&qpath).unwrap(), text[..cut]);
    let _ = std::fs::remove_file(&qpath);
}

#[test]
fn missing_file_loads_empty_without_quarantine() {
    let path = tmp("missing");
    let _ = std::fs::remove_file(&path);
    let loaded = history::load(&path);
    assert!(loaded.quarantined.is_none());
    assert!(loaded.history.entries.is_empty());
}

/// Full gate cycle through the binary: a quick run appends a parseable
/// entry; `--check` against that same file passes (exit 0); `--check`
/// against a hand-regressed baseline fails with the gate's distinct exit
/// code 5; an unusable baseline is a usage error (exit 2).
#[test]
fn check_gate_exit_codes_through_the_binary() {
    let dir = tmp("gate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let hist_file = dir.join("BENCH.json");

    let quick = |extra: &[&str]| {
        let mut cmd = repro();
        cmd.args([
            "bench",
            "--bench-scale",
            "quick",
            "--min-samples",
            "2",
            "--max-samples",
            "2",
            "--commit",
            "gate-test",
        ]);
        cmd.args(extra);
        cmd.output().expect("spawn repro")
    };

    // 1. Baseline run appends a schema-valid entry.
    let out = quick(&["--out", hist_file.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let hist = BenchHistory::parse(&std::fs::read_to_string(&hist_file).unwrap()).unwrap();
    assert_eq!(hist.entries.len(), 1);
    assert_eq!(hist.entries[0].commit, "gate-test");
    assert!(!hist.entries[0].metrics.is_empty());
    assert!(hist.entries[0]
        .metrics
        .iter()
        .all(|m| m.ci_lo <= m.mean && m.mean <= m.ci_hi));

    // 2. Same-commit re-run with a generous slack passes: exit 0, and the
    //    history file is left unmodified by a check run.
    let before = std::fs::read_to_string(&hist_file).unwrap();
    let out = quick(&["--check", hist_file.to_str().unwrap(), "--gate-slack", "2.0"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("bench check passed"));
    assert_eq!(std::fs::read_to_string(&hist_file).unwrap(), before);

    // 3. Regressed baseline: inflate a higher-is-better baseline mean so
    //    far that no noise band can cover the shortfall.
    let mut regressed = hist.clone();
    {
        let m = &mut regressed.entries[0].metrics[0];
        m.mean *= 1000.0;
        m.ci_lo = m.mean * 0.99;
        m.ci_hi = m.mean * 1.01;
    }
    let regressed_file = dir.join("regressed.json");
    history::save(&regressed, &regressed_file).unwrap();
    let out = quick(&["--check", regressed_file.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(5),
        "regression must exit 5, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("# REGRESSION"));

    // 4. Unusable baselines are usage errors (exit 2), reported before
    //    any sampling happens.
    let out = quick(&["--check", dir.join("nonexistent.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let empty_file = dir.join("empty.json");
    history::save(&BenchHistory::default(), &empty_file).unwrap();
    let out = quick(&["--check", empty_file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A baseline metric silently missing from the current matrix fails the
/// gate: dropping a tracked metric must be an explicit decision.
#[test]
fn check_fails_when_a_tracked_metric_vanishes() {
    let base = entry("base", vec![record("pages_per_sec/tpch/clock", 1e6), record("ghost", 1.0)]);
    let cur = entry("cur", vec![record("pages_per_sec/tpch/clock", 1e6)]);
    let regs = history::check(&base, &cur, 10.0);
    assert_eq!(regs.len(), 1);
    assert_eq!(regs[0].name, "ghost");
    assert_eq!(regs[0].current_mean, None);
}
