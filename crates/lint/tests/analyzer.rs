//! Analyzer coverage: L4 manifest checks against known-bad and known-good
//! fixture workspaces, and the CLI's exit codes. The file-scoped rules
//! (L1–L3, L5, L6) are clippy's; `tests/clippy_parity` holds their
//! fixtures.

use std::path::{Path, PathBuf};
use std::process::Command;

use pagesim_lint::{lint_workspace, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn l4_flags_missing_lint_headers_in_both_manifests() {
    let report = lint_workspace(&fixture("l4_bad_ws")).expect("fixture workspace");
    let got: Vec<(Rule, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (Rule::LintHeader, "Cargo.toml", 1),
            (Rule::LintHeader, "crates/foo/Cargo.toml", 1),
        ]
    );
}

#[test]
fn l4_accepts_workspace_with_headers() {
    let report = lint_workspace(&fixture("l4_good_ws")).expect("fixture workspace");
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.files_scanned, 1);
}

// ---------------------------------------------------------------------
// CLI exit codes
// ---------------------------------------------------------------------

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pagesim-lint"))
        .args(args)
        .output()
        .expect("spawn pagesim-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn cli_exit_one_with_rule_ids_on_findings() {
    let bad = fixture("l4_bad_ws");
    let (code, stdout) = run_cli(&["--root", bad.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);
    assert!(
        stdout.contains("L4[lint-header] Cargo.toml:1:"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("L4[lint-header] crates/foo/Cargo.toml:1:"),
        "stdout: {stdout}"
    );
}

#[test]
fn cli_exit_zero_on_clean_workspace() {
    let good = fixture("l4_good_ws");
    let (code, stdout) = run_cli(&["--root", good.to_str().expect("utf8 path")]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "");
}

#[test]
fn cli_usage_error_is_exit_two() {
    let good = fixture("l4_good_ws");
    let good = good.to_str().expect("utf8 path");
    // Unknown options, a missing value, and contradictory baseline flags
    // are usage errors.
    for args in [
        &["--root", good, "--check-file", "x.rs"][..],
        &["--root", good, "--workspace"],
        &["--root"],
        &["--root", good, "--no-baseline", "--baseline", "b.toml"],
    ] {
        let (code, stdout) = run_cli(args);
        assert_eq!(code, 2, "{args:?}");
        assert_eq!(stdout, "", "{args:?}");
    }
    // A root that is not a workspace is an I/O error, also exit 2.
    let (code, _) = run_cli(&["--root", fixture("no_such_ws").to_str().expect("utf8")]);
    assert_eq!(code, 2);
}
