//! `pagesim-lint` CLI: the workspace's L4 manifest and H1–H4 hot-cone
//! gate. The file-scoped determinism rules are clippy's (`clippy.toml`).
//!
//! ```text
//! pagesim-lint [--root DIR] [--baseline FILE | --no-baseline] [--write-baseline]
//! ```
//!
//! Findings are screened against the ratchet baseline
//! (`<root>/lint-baseline.toml` when present): baselined findings warn,
//! new findings and stale entries fail. `--write-baseline` regenerates
//! the baseline from the current findings, preserving existing reasons.
//!
//! Exit codes: `0` clean (warnings allowed), `1` findings or stale
//! baseline, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use pagesim_lint::{baseline, lint_workspace};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pagesim-lint [--root DIR] [--baseline FILE | --no-baseline] [--write-baseline]\n\
         \n\
         scans crates/* and src/ under the workspace root\n\
         \n\
         --root DIR         workspace root (default: current directory)\n\
         --baseline FILE    ratchet baseline (default: ROOT/lint-baseline.toml if present)\n\
         --no-baseline      ignore any baseline; all findings are errors\n\
         --write-baseline   regenerate the baseline file from current findings"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut write_baseline = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(f) => baseline_path = Some(PathBuf::from(f)),
                None => return usage(),
            },
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    if no_baseline && baseline_path.is_some() {
        return usage();
    }

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pagesim-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    // Resolve + parse the baseline. `--no-baseline` screens against an
    // empty one, so every finding is an error.
    let resolved = if no_baseline {
        None
    } else {
        match baseline_path {
            Some(p) => Some(p),
            None => {
                let default = root.join("lint-baseline.toml");
                default.exists().then_some(default)
            }
        }
    };
    let base = match &resolved {
        None => baseline::Baseline::default(),
        // A baseline that doesn't exist yet is fine when regenerating it.
        Some(p) if write_baseline && !p.exists() => baseline::Baseline::default(),
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("pagesim-lint: cannot read baseline {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            };
            match baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("pagesim-lint: bad baseline {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    if write_baseline {
        let out = resolved.unwrap_or_else(|| root.join("lint-baseline.toml"));
        let text = baseline::render(&report.findings, &base);
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("pagesim-lint: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "pagesim-lint: wrote {} ({} finding(s) baselined)",
            out.display(),
            report.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let screened = baseline::screen(report.findings, &base);
    for f in &screened.errors {
        println!("{f}");
    }
    for f in &screened.warnings {
        println!("warning: {f}");
    }
    for s in &screened.stale {
        println!("{s}");
    }
    eprintln!(
        "pagesim-lint: scanned {} files ({} fns, {} hot), {} error(s), \
         {} baselined warning(s), {} stale",
        report.files_scanned,
        report.functions,
        report.reachable,
        screened.errors.len(),
        screened.warnings.len(),
        screened.stale.len()
    );
    if screened.errors.is_empty() && screened.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
