//! `repro --trials` at the binary boundary: one trial renders every
//! statistic that needs two as `-` instead of panicking, and zero trials
//! or an unknown figure id is a usage error.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::process::{Command, Output};

fn repro<S: AsRef<OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("repro failed to start")
}

/// The table rows of `title`'s section: the lines after its dashed rule,
/// up to the next blank or `points` line.
fn rows<'a>(stdout: &'a str, title: &str) -> Vec<&'a str> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with(title))
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty() && !l.starts_with("points"))
        .collect()
}

#[test]
fn one_trial_renders_dashes_for_fits_and_p_values() {
    let out = repro(&[
        "--scale",
        "smoke",
        "--no-cache",
        "--trials",
        "1",
        "fig2",
        "fig5",
        "fig6",
    ]);
    assert!(out.status.success(), "repro exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for (title, n) in [("fig2:", 4), ("fig5:", 10)] {
        let rows = rows(&stdout, title);
        assert_eq!(rows.len(), n, "{title} rows:\n{stdout}");
        for row in rows {
            let cols: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cols[2], "1", "{title} trials column: {row}");
            assert_eq!(cols[5..], ["-", "-"], "{title} r2 and s/fault: {row}");
        }
    }
    let fig6 = rows(&stdout, "Fig 6:");
    assert_eq!(fig6.len(), 60, "fig6 rows:\n{stdout}");
    assert!(
        fig6.iter().all(|r| r.ends_with(" -")),
        "fig6 p-values:\n{stdout}"
    );
}

/// Bad arguments are rejected before any sweep runs: exit 2, the usage
/// text on stderr, and nothing on stdout. Unknown ids count too, even
/// after a valid one, as do an argument that is not UTF-8 and the retired
/// `--resume` and `--max-attempts` flags. `bench` is no longer a
/// subcommand, and `vmstat` and `trace`, which keep no journal, refuse
/// `--journal`.
#[test]
fn zero_trials_is_a_usage_error() {
    let mut cases: Vec<Vec<&OsStr>> = [
        &["--trials", "0", "fig1"][..],
        &["--scale", "smoke", "--no-cache", "figx"],
        &["--scale", "smoke", "--no-cache", "fig1", "figx"],
        &["--scale", "smoke", "--no-cache", "bench"],
        &[
            "vmstat",
            "fig1",
            "--scale",
            "smoke",
            "--no-cache",
            "--journal",
            "j",
        ],
        &[
            "trace",
            "fig1",
            "--scale",
            "smoke",
            "--no-cache",
            "--journal",
            "j",
        ],
        &[
            "trace",
            "fig1",
            "--scale",
            "smoke",
            "--no-cache",
            "--sample-interval",
            "0",
        ],
        &["--scale", "smoke", "--no-cache", "--resume", "j", "fig1"],
        &[
            "--scale",
            "smoke",
            "--no-cache",
            "--max-attempts",
            "3",
            "fig1",
        ],
    ]
    .iter()
    .map(|a| a.iter().map(OsStr::new).collect())
    .collect();
    cases.push(vec![OsStr::from_bytes(b"\xff")]);
    for args in cases {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may render");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: repro"), "{args:?}: {stderr}");
    }
}
