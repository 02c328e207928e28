//! Baseline ratchet behavior through the CLI: baselined findings warn
//! (exit 0), new findings fail, stale entries fail, counts only go down,
//! and `--write-baseline` round-trips.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pagesim-lint"))
        .args(args)
        .output()
        .expect("spawn pagesim-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_file(tag: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pagesim-lint-{tag}-{}.toml", std::process::id()));
    std::fs::write(&path, contents).expect("write temp baseline");
    path
}

/// A baseline covering every finding in the hot_ws fixture.
const FULL_BASELINE: &str = r#"schema = 1

[[entry]]
rule = "H1"
file = "crates/core/src/lib.rs"
symbol = "Kernel::fault"
count = 1
reason = "event log push; bounded by config, replacement tracked"

[[entry]]
rule = "H2"
file = "crates/core/src/lib.rs"
symbol = "Kernel::fault"
reason = "label clone pending ownership restructure"

[[entry]]
rule = "H3"
file = "crates/core/src/lib.rs"
symbol = "Kernel::pick"
reason = "closure table lookup; devirtualization planned"

[[entry]]
rule = "H1"
file = "crates/core/src/lib.rs"
symbol = "helper"
reason = "scratch vec in helper; to be hoisted"

[[entry]]
rule = "H4"
file = "crates/core/src/lib.rs"
symbol = "ratio"
reason = "ratio uses f64 until fixed-point lands"
"#;

#[test]
fn no_baseline_fails_with_errors() {
    let root = fixture("hot_ws");
    let (code, stdout, stderr) =
        run_cli(&["--root", root.to_str().expect("utf8"), "--no-baseline"]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stdout.contains("H1[hot-alloc]"), "stdout: {stdout}");
    assert!(!stdout.contains("warning:"), "stdout: {stdout}");
}

#[test]
fn full_baseline_demotes_everything_to_warnings_and_passes() {
    let root = fixture("hot_ws");
    let base = temp_file("full", FULL_BASELINE);
    let (code, stdout, stderr) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
    ]);
    std::fs::remove_file(&base).ok();
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    // All five findings still visible, demoted to warnings with chains.
    assert_eq!(stdout.matches("warning: ").count(), 5, "stdout: {stdout}");
    assert!(
        stdout.contains("[chain: Kernel::fault]"),
        "stdout: {stdout}"
    );
}

#[test]
fn partial_baseline_fails_on_the_uncovered_finding() {
    let root = fixture("hot_ws");
    // Drop the H4 entry: ratio's float becomes a hard error.
    let partial: String = FULL_BASELINE
        .split("\n[[entry]]")
        .filter(|block| !block.contains("H4"))
        .collect::<Vec<_>>()
        .join("\n[[entry]]");
    let base = temp_file("partial", &partial);
    let (code, stdout, _) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
    ]);
    std::fs::remove_file(&base).ok();
    assert_eq!(code, 1);
    assert!(stdout.contains("H4[hot-float]"), "stdout: {stdout}");
    assert!(!stdout.contains("warning: H4"), "stdout: {stdout}");
    assert_eq!(stdout.matches("warning: ").count(), 4, "stdout: {stdout}");
}

#[test]
fn stale_entry_fails_until_removed() {
    let root = fixture("hot_ws");
    let stale = format!(
        "{FULL_BASELINE}\n[[entry]]\nrule = \"H1\"\nfile = \"crates/core/src/lib.rs\"\n\
         symbol = \"Kernel::gone\"\nreason = \"this function was deleted\"\n"
    );
    let base = temp_file("stale", &stale);
    let (code, stdout, _) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
    ]);
    std::fs::remove_file(&base).ok();
    assert_eq!(code, 1);
    assert!(stdout.contains("no longer fires"), "stdout: {stdout}");
}

#[test]
fn count_ratchet_fails_in_both_directions() {
    let root = fixture("hot_ws");
    // Pin Kernel::fault's H1 at 2 when only 1 fires: stale (ratchet down).
    let over = FULL_BASELINE.replace("count = 1", "count = 2");
    let base = temp_file("over", &over);
    let (code, stdout, _) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
    ]);
    std::fs::remove_file(&base).ok();
    assert_eq!(code, 1);
    assert!(
        stdout.contains("ratchet the count down"),
        "stdout: {stdout}"
    );
}

#[test]
fn bad_baseline_is_a_usage_error() {
    let root = fixture("hot_ws");
    let base = temp_file(
        "bad",
        "schema = 1\n[[entry]]\nrule = \"H1\"\nfile = \"x.rs\"\n",
    );
    let (code, _, stderr) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
    ]);
    std::fs::remove_file(&base).ok();
    assert_eq!(code, 2, "missing reason must be rejected, stderr: {stderr}");
    assert!(stderr.contains("reason"), "stderr: {stderr}");
}

#[test]
fn write_baseline_round_trips_to_a_passing_run() {
    let root = fixture("hot_ws");
    let base = std::env::temp_dir().join(format!(
        "pagesim-lint-generated-{}.toml",
        std::process::id()
    ));
    let (code, _, stderr) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
        "--write-baseline",
    ]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let text = std::fs::read_to_string(&base).expect("baseline written");
    assert!(text.contains("schema = 1"));
    assert!(text.contains("symbol = \"Kernel::fault\""));
    assert!(text.contains("TODO: justify or fix"), "placeholder reasons");
    // The generated baseline screens the same findings to warnings.
    let (code, stdout, stderr) = run_cli(&[
        "--root",
        root.to_str().expect("utf8"),
        "--baseline",
        base.to_str().expect("utf8"),
    ]);
    std::fs::remove_file(&base).ok();
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stdout.matches("warning: ").count(), 5, "stdout: {stdout}");
}
