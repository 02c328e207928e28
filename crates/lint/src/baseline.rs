//! Ratcheted finding baseline: `lint-baseline.toml`.
//!
//! The baseline is the one-way door for pre-existing findings: entries are
//! keyed by `(rule, file, symbol)` and carry a mandatory reason. Findings
//! matched by an entry are demoted to warnings; findings with no entry are
//! errors (the count can only go down); entries that no longer match any
//! finding are *stale* and fail the run until removed — so the file never
//! accretes dead waivers. An optional `count` pins the exact number of
//! findings under a key: more is an error, fewer is stale.
//!
//! The format is a strict TOML subset (parsed by hand — the offline build
//! has no toml crate):
//!
//! ```toml
//! schema = 1
//!
//! [[entry]]
//! rule = "H1"
//! file = "crates/core/src/kernel.rs"
//! symbol = "Kernel::fault"
//! count = 2
//! reason = "page-lock table insert; replacement tracked by ROADMAP item 1"
//! ```

use crate::Finding;
use std::collections::BTreeMap;

/// One baselined finding group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Entry {
    /// Rule code (`H1`, `H4`, …).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Enclosing function symbol (empty for file-level findings).
    pub symbol: String,
    /// Exact finding count under this key, if pinned.
    pub count: Option<usize>,
    /// Why this is acceptable for now (mandatory).
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// All entries in file order.
    pub entries: Vec<Entry>,
}

/// Findings split by baseline screening.
#[derive(Debug, Default)]
pub struct Screened {
    /// New findings: not covered by any entry. These fail the run.
    pub errors: Vec<Finding>,
    /// Baselined findings: reported as warnings, exit stays clean.
    pub warnings: Vec<Finding>,
    /// Stale-baseline diagnostics: entries that no longer match. These
    /// fail the run until the baseline is re-ratcheted.
    pub stale: Vec<String>,
}

/// Parses the TOML-subset baseline format. Unknown keys are errors — a
/// typoed key would otherwise silently widen the waiver.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut baseline = Baseline::default();
    let mut cur: Option<Entry> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[entry]]" {
            if let Some(e) = cur.take() {
                finish_entry(e, lineno, &mut baseline)?;
            }
            cur = Some(Entry::default());
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unsupported section `{line}`"));
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = value`, got `{line}`"
            ));
        };
        let (k, v) = (k.trim(), v.trim());
        match (&mut cur, k) {
            (None, "schema") => {
                if v != "1" {
                    return Err(format!("line {lineno}: unsupported schema `{v}`"));
                }
            }
            (None, _) => {
                return Err(format!("line {lineno}: `{k}` outside an [[entry]]"));
            }
            (Some(e), "rule") => e.rule = unquote(v, lineno)?,
            (Some(e), "file") => e.file = unquote(v, lineno)?,
            (Some(e), "symbol") => e.symbol = unquote(v, lineno)?,
            (Some(e), "reason") => e.reason = unquote(v, lineno)?,
            (Some(e), "count") => {
                e.count = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("line {lineno}: count must be an integer"))?,
                );
            }
            (Some(_), _) => {
                return Err(format!("line {lineno}: unknown key `{k}`"));
            }
        }
    }
    if let Some(e) = cur.take() {
        finish_entry(e, text.lines().count(), &mut baseline)?;
    }
    Ok(baseline)
}

fn finish_entry(e: Entry, lineno: usize, baseline: &mut Baseline) -> Result<(), String> {
    if e.rule.is_empty() || e.file.is_empty() {
        return Err(format!(
            "entry ending near line {lineno}: rule and file are required"
        ));
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "entry ending near line {lineno}: a non-empty reason is required \
             ({} {} {})",
            e.rule, e.file, e.symbol
        ));
    }
    baseline.entries.push(e);
    Ok(())
}

fn unquote(v: &str, lineno: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_owned())
    } else {
        Err(format!(
            "line {lineno}: expected a quoted string, got `{v}`"
        ))
    }
}

fn key_of(f: &Finding) -> (String, String, String) {
    (f.rule.code().to_owned(), f.file.clone(), f.symbol.clone())
}

/// Screens findings against the baseline: matched → warnings, unmatched →
/// errors, unmatched entries → stale.
pub fn screen(findings: Vec<Finding>, baseline: &Baseline) -> Screened {
    let mut groups: BTreeMap<(String, String, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        groups.entry(key_of(&f)).or_default().push(f);
    }
    let mut screened = Screened::default();
    for e in &baseline.entries {
        let key = (e.rule.clone(), e.file.clone(), e.symbol.clone());
        match groups.remove(&key) {
            None => screened.stale.push(format!(
                "stale baseline: `{} {} {}` no longer fires — remove its entry \
                 (the ratchet only turns one way)",
                e.rule, e.file, e.symbol
            )),
            Some(found) => match e.count {
                Some(c) if found.len() > c => {
                    screened.stale.push(format!(
                        "baseline count exceeded: `{} {} {}` pinned at {c} but {} fire — \
                         new findings must be fixed, not absorbed",
                        e.rule,
                        e.file,
                        e.symbol,
                        found.len()
                    ));
                    screened.warnings.extend(found);
                }
                Some(c) if found.len() < c => {
                    screened.stale.push(format!(
                        "stale baseline count: `{} {} {}` pinned at {c} but only {} fire — \
                         ratchet the count down",
                        e.rule,
                        e.file,
                        e.symbol,
                        found.len()
                    ));
                    screened.warnings.extend(found);
                }
                _ => screened.warnings.extend(found),
            },
        }
    }
    for (_, found) in groups {
        screened.errors.extend(found);
    }
    screened
        .errors
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    screened
        .warnings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    screened
}

/// Renders a fresh baseline for the given findings, carrying over reasons
/// from `old` where the key still matches. New keys get a placeholder
/// reason that the author must edit (parse() rejects empty reasons, and
/// reviewers will reject `TODO`).
pub fn render(findings: &[Finding], old: &Baseline) -> String {
    let mut groups: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for f in findings {
        *groups.entry(key_of(f)).or_default() += 1;
    }
    let old_reasons: BTreeMap<(String, String, String), String> = old
        .entries
        .iter()
        .map(|e| {
            (
                (e.rule.clone(), e.file.clone(), e.symbol.clone()),
                e.reason.clone(),
            )
        })
        .collect();
    let mut out = String::from(
        "# pagesim-lint ratchet baseline. Entries may only be removed (or their\n\
         # counts lowered); new findings must be fixed at the source. See DESIGN.md\n\
         # \"Determinism & soundness enforcement\".\n\
         schema = 1\n",
    );
    for ((rule, file, symbol), count) in &groups {
        let reason = old_reasons
            .get(&(rule.clone(), file.clone(), symbol.clone()))
            .cloned()
            .unwrap_or_else(|| "TODO: justify or fix".to_owned());
        out.push_str("\n[[entry]]\n");
        out.push_str(&format!("rule = \"{rule}\"\n"));
        out.push_str(&format!("file = \"{file}\"\n"));
        if !symbol.is_empty() {
            out.push_str(&format!("symbol = \"{symbol}\"\n"));
        }
        out.push_str(&format!("count = {count}\n"));
        out.push_str(&format!("reason = \"{reason}\"\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn finding(rule: Rule, file: &str, symbol: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message: "m".to_owned(),
            symbol: symbol.to_owned(),
            chain: Vec::new(),
        }
    }

    const BASE: &str = "\
schema = 1

[[entry]]
rule = \"H1\"
file = \"crates/core/src/kernel.rs\"
symbol = \"Kernel::fault\"
count = 2
reason = \"page-lock insert\"
";

    #[test]
    fn matched_findings_become_warnings() {
        let b = parse(BASE).unwrap();
        let fs = vec![
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                10,
            ),
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                20,
            ),
        ];
        let s = screen(fs, &b);
        assert!(s.errors.is_empty());
        assert!(s.stale.is_empty());
        assert_eq!(s.warnings.len(), 2);
    }

    #[test]
    fn unmatched_findings_are_errors() {
        let b = parse(BASE).unwrap();
        let fs = vec![
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                10,
            ),
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                20,
            ),
            finding(
                Rule::HotClone,
                "crates/policy/src/clock.rs",
                "Clock::reclaim",
                5,
            ),
        ];
        let s = screen(fs, &b);
        assert_eq!(s.errors.len(), 1);
        assert_eq!(s.errors[0].rule, Rule::HotClone);
    }

    #[test]
    fn stale_entry_and_count_drift_fail() {
        let b = parse(BASE).unwrap();
        // Nothing fires at all → stale.
        let s = screen(Vec::new(), &b);
        assert_eq!(s.stale.len(), 1);
        assert!(s.stale[0].contains("no longer fires"));
        // One of the two pinned findings fixed → stale count.
        let fs = vec![finding(
            Rule::HotAlloc,
            "crates/core/src/kernel.rs",
            "Kernel::fault",
            10,
        )];
        let s = screen(fs, &b);
        assert_eq!(s.stale.len(), 1);
        assert!(
            s.stale[0].contains("ratchet the count down"),
            "{}",
            s.stale[0]
        );
        // A third finding under a pinned-at-2 key → exceeded.
        let fs = vec![
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                10,
            ),
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                20,
            ),
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                30,
            ),
        ];
        let s = screen(fs, &b);
        assert_eq!(s.stale.len(), 1);
        assert!(s.stale[0].contains("count exceeded"), "{}", s.stale[0]);
    }

    #[test]
    fn reasons_are_mandatory() {
        let bad = "schema = 1\n[[entry]]\nrule = \"H1\"\nfile = \"x.rs\"\nreason = \"\"\n";
        assert!(parse(bad).is_err());
        let missing = "schema = 1\n[[entry]]\nrule = \"H1\"\nfile = \"x.rs\"\n";
        assert!(parse(missing).is_err());
    }

    #[test]
    fn render_round_trips_and_preserves_reasons() {
        let b = parse(BASE).unwrap();
        let fs = vec![
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                10,
            ),
            finding(
                Rule::HotAlloc,
                "crates/core/src/kernel.rs",
                "Kernel::fault",
                20,
            ),
        ];
        let text = render(&fs, &b);
        let again = parse(&text).unwrap();
        assert_eq!(again.entries.len(), 1);
        assert_eq!(again.entries[0].reason, "page-lock insert");
        assert_eq!(again.entries[0].count, Some(2));
    }
}
