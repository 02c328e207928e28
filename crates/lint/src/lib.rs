//! # pagesim-lint
//!
//! The hot-path half of the pagesim workspace's determinism and
//! soundness enforcement — the build-time analog of Linux's
//! `CONFIG_DEBUG_VM`: unsound simulator changes should *fail to merge*,
//! not corrupt characterization data.
//!
//! The repo's core contract is that figure output is byte-identical for
//! any `--jobs` count, cache state, or completion order, and that the
//! fault/reclaim loops run at millions of pages per second. Both are easy
//! to break silently: one `HashMap` iteration, one `Instant::now()`, one
//! `format!` per fault.
//!
//! ## Who enforces what
//!
//! Rules a single file can decide are clippy's, which resolves types
//! (root `clippy.toml`; `vendor/clippy.toml` keeps the vendored stand-ins
//! out of it):
//!
//! | rule | id             | enforcer |
//! |------|----------------|----------|
//! | L1   | `hash-iter`    | `disallowed-types`: `HashMap`, `HashSet` |
//! | L2   | `wall-clock`   | `disallowed-types`: `SystemTime`, `RandomState`; `disallowed-methods`: `Instant::now` |
//! | L3   | `thread-spawn` | `disallowed-methods`: `thread::spawn`, `thread::scope`, `thread::Builder::new` |
//! | L5   | `hot-unwrap`   | `#![deny(clippy::unwrap_used, clippy::expect_used)]` in the three hot-path files |
//! | L6   | `catch-unwind` | `disallowed-methods`: `panic::catch_unwind` |
//!
//! This crate keeps what clippy cannot scope:
//!
//! | rule | id               | what it forbids |
//! |------|------------------|-----------------|
//! | L4   | `lint-header`    | a workspace member without `[lints] workspace = true`, or a root manifest without the `unsafe_code = "forbid"` deny table |
//! | H1   | `hot-alloc`      | heap allocation in the cone: `Box::new`, growth methods on std containers, `vec!`/`format!`, `.collect()`, `.to_owned()` family |
//! | H2   | `hot-clone`      | `.clone()` of non-`Copy` types in the cone |
//! | H3   | `hot-dyn`        | `dyn` dispatch introduced inside cone function bodies |
//! | H4   | `hot-float`      | `f32`/`f64` in the cone outside `pagesim-stats` |
//!
//! The *cone* is every function transitively reachable from
//! `Kernel::fault`, the reclaim/aging entry points, or a `Policy` impl's
//! hot methods (see [`graph::HOT_ROOTS`]), across crate boundaries; each
//! H finding renders the root→…→function call chain that reaches it.
//! Pre-existing H findings live in the ratcheted `lint-baseline.toml`
//! (see [`baseline`]): baselined findings warn, new ones fail, and fixed
//! ones must be removed from the baseline or the lint fails as stale.
//!
//! ## How it works
//!
//! Source is *scrubbed* (comments/strings blanked byte-for-byte),
//! `#[cfg(test)]` and sanitize-gated items are stripped, a lightweight
//! item parser ([`parse`]) extracts `fn`/`impl`/`use`/`struct` structure,
//! and a name-resolved call graph ([`graph`]) computes the cone via BFS
//! with parent pointers — so every cone finding renders its chain. The
//! pass is a tripwire, not a verifier: resolution approximations are
//! documented in DESIGN.md, and the `sanitize` runtime feature backstops
//! what the static pass cannot see.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod graph;
pub mod parse;
pub mod rules;
mod scrub;

use graph::{Graph, Reach};
use parse::ParsedFile;
use scrub::{scrub, strip_cfg_gated, LineIndex};

/// The enforced rules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// L4: every member opts into the workspace deny-lint table.
    LintHeader,
    /// H1: no heap allocation in the fault/reclaim cone.
    HotAlloc,
    /// H2: no `.clone()` of non-`Copy` types in the cone.
    HotClone,
    /// H3: no `dyn` dispatch introduced inside cone function bodies.
    HotDyn,
    /// H4: no `f32`/`f64` in the cone outside `pagesim-stats`.
    HotFloat,
}

impl Rule {
    /// Short rule id, printed beside the code (`H1[hot-alloc]`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::LintHeader => "lint-header",
            Rule::HotAlloc => "hot-alloc",
            Rule::HotClone => "hot-clone",
            Rule::HotDyn => "hot-dyn",
            Rule::HotFloat => "hot-float",
        }
    }

    /// Stable rule code (`L4`, `H1`..`H4`), as keyed in the baseline.
    pub fn code(self) -> &'static str {
        match self {
            Rule::LintHeader => "L4",
            Rule::HotAlloc => "H1",
            Rule::HotClone => "H2",
            Rule::HotDyn => "H3",
            Rule::HotFloat => "H4",
        }
    }
}

/// One function hop along a root→…→construct call chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChainHop {
    /// `Owner::name` symbol of the function.
    pub symbol: String,
    /// Workspace-relative file the function is defined in.
    pub file: String,
    /// 1-based line of the function definition.
    pub line: u32,
}

/// One rule violation at a source location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Enclosing function symbol (`Owner::name`); empty for manifests.
    pub symbol: String,
    /// Hot-path call chain root→…→enclosing function, for cone findings.
    pub chain: Vec<ChainHop>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.rule.code(),
            self.rule.id(),
            self.file,
            self.line,
            self.message
        )?;
        if !self.chain.is_empty() {
            let path: Vec<&str> = self.chain.iter().map(|h| h.symbol.as_str()).collect();
            write!(f, " [chain: {}]", path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Result of a whole-workspace scan.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Rust sources scanned.
    pub files_scanned: usize,
    /// Functions in the call graph.
    pub functions: usize,
    /// Functions inside the hot-path cone.
    pub reachable: usize,
}

/// L4: manifest checks — the root deny table and each member's opt-in.
fn check_manifests(root: &Path, crate_dirs: &[PathBuf], out: &mut Vec<Finding>) {
    let mut flag = |file: String, message: &str| {
        out.push(Finding {
            rule: Rule::LintHeader,
            file,
            line: 1,
            message: message.to_owned(),
            symbol: String::new(),
            chain: Vec::new(),
        })
    };
    let root_text = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    if !toml_section_has(
        &root_text,
        "[workspace.lints.rust]",
        "unsafe_code",
        "forbid",
    ) {
        flag(
            "Cargo.toml".to_owned(),
            "workspace root must define `[workspace.lints.rust]` with \
             `unsafe_code = \"forbid\"`",
        );
    }
    for dir in crate_dirs {
        let manifest = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if !toml_section_has(&text, "[lints]", "workspace", "true") {
            let rel = manifest
                .strip_prefix(root)
                .unwrap_or(&manifest)
                .to_string_lossy()
                .into_owned();
            flag(
                rel,
                "workspace member must opt into the deny-lint table with \
                 `[lints] workspace = true`",
            );
        }
    }
}

/// Whether `section` in `toml` contains a `key = value`-ish line (string
/// quotes on the value optional). Hand-rolled: the offline build has no
/// toml parser, and Cargo manifests in this repo are plain.
fn toml_section_has(toml: &str, section: &str, key: &str, value: &str) -> bool {
    let mut in_section = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == section;
            continue;
        }
        if !in_section {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        if k.trim() == key && v.trim().trim_matches('"') == value {
            return true;
        }
    }
    false
}

fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        children.sort();
        for p in children {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Scans the whole workspace rooted at `root`: every member under
/// `crates/*` plus the umbrella `src/`. Runs the L4 manifest checks, then
/// parses every file, builds the workspace call graph, and applies the
/// H-series in the hot-path cone. `vendor/*` stand-ins are external code
/// and are skipped.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    check_manifests(root, &crate_dirs, &mut report.findings);

    // Pass 1: read, scrub, strip test/sanitize-gated items, parse.
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut scan = |crate_dir: &str, src_dir: &Path| {
        for path in rust_sources(src_dir) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let Ok(source) = std::fs::read_to_string(&path) else {
                continue;
            };
            let mut text = scrub(&source);
            strip_cfg_gated(&mut text, &source);
            parsed.push(parse::parse_file(&rel, crate_dir, text));
        }
    };
    for dir in &crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        scan(&name, &dir.join("src"));
    }
    scan("repro-umbrella", &root.join("src"));
    report.files_scanned = parsed.len();

    // Pass 2: call graph + cone rules. Keyed by (file, line, rule): H4
    // fires once per float token, so a line with several collapses to one
    // finding.
    let g = Graph::build(&parsed);
    let reach = Reach::compute(&g);
    report.functions = g.nodes.len();
    report.reachable = reach.seen.iter().filter(|&&s| s).count();
    let mut cone: BTreeMap<(String, u32, Rule), Finding> = BTreeMap::new();
    for ni in (0..g.nodes.len()).filter(|&ni| reach.seen[ni]) {
        let constructs = rules::detect_hot_constructs(&g, &parsed, ni);
        if constructs.is_empty() {
            continue;
        }
        let pf = &parsed[g.nodes[ni].file];
        let lines = LineIndex::new(&pf.text);
        let chain: Vec<ChainHop> = reach
            .chain(ni)
            .into_iter()
            .map(|n| ChainHop {
                symbol: g.nodes[n].symbol.clone(),
                file: parsed[g.nodes[n].file].rel.clone(),
                line: g.def(&parsed, n).line,
            })
            .collect();
        for c in constructs {
            let line = lines.line_of(c.offset);
            cone.insert(
                (pf.rel.clone(), line, c.rule),
                Finding {
                    rule: c.rule,
                    file: pf.rel.clone(),
                    line,
                    message: c.message,
                    symbol: g.nodes[ni].symbol.clone(),
                    chain: chain.clone(),
                },
            );
        }
    }
    report.findings.extend(cone.into_values());
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scrubbed text with test- and sanitize-gated items stripped, as the
    /// parser sees it.
    fn stripped(src: &str) -> String {
        let mut text = scrub(src);
        strip_cfg_gated(&mut text, src);
        String::from_utf8_lossy(&text).into_owned()
    }

    #[test]
    fn scrubbing_blanks_comments_and_strings() {
        let src = "let a = \"vec![1]\"; // format!\n/* Box::new */ let b = 1;\n";
        let text = stripped(src);
        assert!(!text.contains("vec"));
        assert!(!text.contains("format"));
        assert!(!text.contains("Box"));
        assert_eq!(text.matches('\n').count(), 2);
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) { let _ = r#\"vec![1]\"#; }";
        let text = stripped(src);
        assert!(!text.contains("vec"));
        assert!(text.contains("fn f<"));
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn main() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let _ = vec![1]; }\n\
                   }\n";
        let text = stripped(src);
        assert!(
            !text.contains("vec") && !text.contains("mod tests"),
            "{text}"
        );
        assert!(text.contains("fn main() {}"), "{text}");
        // Offsets stay aligned: lines map back to the original source.
        assert_eq!(text.len(), src.len());
        assert_eq!(text.matches('\n').count(), 5);
    }

    #[test]
    fn sanitize_gated_items_are_exempt() {
        // Sanitizer-only impls, statements, and struct fields are compiled
        // out of figure runs; the parser never sees them, like cfg(test).
        let src = "struct S { m: Vec<u32>,\n\
                   #[cfg(feature = \"sanitize\")]\n\
                   tick: std::cell::Cell<u64>,\n\
                   }\n\
                   #[cfg(feature = \"sanitize\")]\n\
                   impl S { fn check(&self) { let _ = self.m.clone(); } }\n\
                   #[cfg(any(test, feature = \"sanitize\"))]\n\
                   fn audit() { let _ = format!(\"x\"); }\n\
                   impl S { fn hot(&mut self) { self.m.push(2); } }\n";
        let text = stripped(src);
        for gone in ["tick", "check", "clone", "audit", "format"] {
            assert!(!text.contains(gone), "{gone} survived: {text}");
        }
        assert!(text.contains("m: Vec<u32>,"), "{text}");
        assert!(
            text.contains("fn hot(&mut self) { self.m.push(2); }"),
            "{text}"
        );
        // A marker mentioned inside a comment or string is not an
        // attribute: the item after it is kept.
        let commented = "// #[cfg(feature = \"sanitize\")] strips the next item\n\
                         fn kept() { let _ = vec![1]; }\n";
        assert!(stripped(commented).contains("fn kept() { let _ = vec![1]; }"));
    }

    #[test]
    fn toml_section_matcher() {
        let toml = "[package]\nname = \"x\"\n[lints]\nworkspace = true\n";
        assert!(toml_section_has(toml, "[lints]", "workspace", "true"));
        assert!(!toml_section_has(toml, "[lints]", "workspace", "false"));
        assert!(!toml_section_has(
            "[package]\n",
            "[lints]",
            "workspace",
            "true"
        ));
    }

    #[test]
    fn rule_codes_and_ids_are_stable() {
        let all = [
            Rule::LintHeader,
            Rule::HotAlloc,
            Rule::HotClone,
            Rule::HotDyn,
            Rule::HotFloat,
        ];
        let codes: Vec<&str> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes, vec!["L4", "H1", "H2", "H3", "H4"]);
        let ids: Vec<&str> = all.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            vec![
                "lint-header",
                "hot-alloc",
                "hot-clone",
                "hot-dyn",
                "hot-float"
            ]
        );
    }
}
