//! SARIF export validation: the document must parse as JSON and satisfy
//! the checked-in structural snippet of the SARIF 2.1.0 schema (the
//! offline build cannot fetch the real schema, so the contract lives in
//! `tests/fixtures/sarif-2.1.0-snippet.json`).

use std::path::{Path, PathBuf};
use std::process::Command;

use pagesim_trace::json::{self, Json};

/// Dotted-path navigation (object keys and numeric array indexes) over
/// the workspace's shared JSON tree.
trait At {
    fn at(&self, path: &str) -> Option<&Json>;
    fn strings_at(&self, path: &str) -> Vec<String>;
}

impl At for Json {
    fn at(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Json::Arr(v) => v.get(seg.parse::<usize>().ok()?)?,
                _ => cur.get(seg)?,
            };
        }
        Some(cur)
    }

    fn strings_at(&self, path: &str) -> Vec<String> {
        self.at(path)
            .and_then(Json::as_arr)
            .map(|v| {
                v.iter()
                    .filter_map(|s| s.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default()
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn schema_snippet() -> Json {
    let text = std::fs::read_to_string(fixture("sarif-2.1.0-snippet.json"))
        .expect("schema snippet readable");
    json::parse(&text).expect("schema snippet is valid JSON")
}

fn export_sarif(root: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_pagesim-lint"))
        .args([
            "--workspace",
            "--root",
            fixture(root).to_str().expect("utf8"),
            "--no-baseline",
            "--format",
            "sarif",
        ])
        .output()
        .expect("spawn pagesim-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    json::parse(&stdout).unwrap_or_else(|e| panic!("SARIF must be valid JSON ({e}): {stdout}"))
}

#[test]
fn export_satisfies_the_checked_in_schema_snippet() {
    let schema = schema_snippet();
    let doc = export_sarif("hot_ws");

    let version = schema.at("requiredVersion").and_then(Json::as_str);
    assert_eq!(doc.at("version").and_then(Json::as_str), version);

    for path in schema.strings_at("requiredPaths") {
        assert!(doc.at(&path).is_some(), "missing required path `{path}`");
    }
    assert_eq!(
        doc.at("runs.0.tool.driver.name").and_then(Json::as_str),
        Some("pagesim-lint")
    );

    let results = doc
        .at("runs.0.results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 5, "one result per hot_ws finding");
    for r in results {
        for key in schema.strings_at("resultRequiredKeys") {
            assert!(r.at(&key).is_some(), "result missing `{key}`: {r:?}");
        }
        assert_eq!(r.at("level").and_then(Json::as_str), Some("error"));
        for path in schema.strings_at("locationRequiredPaths") {
            assert!(
                r.at(&format!("locations.0.{path}")).is_some(),
                "location missing `{path}`: {r:?}"
            );
        }
    }

    let rules = doc
        .at("runs.0.tool.driver.rules")
        .and_then(Json::as_arr)
        .expect("rules catalog");
    assert_eq!(rules.len(), 11, "full L1-L6/H1-H4/U1 catalog");
    for rule in rules {
        for key in schema.strings_at("ruleRequiredKeys") {
            assert!(rule.at(&key).is_some(), "rule missing `{key}`: {rule:?}");
        }
    }
}

#[test]
fn chained_findings_carry_code_flows() {
    let doc = export_sarif("trans_l2_ws");
    let results = doc
        .at("runs.0.results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert_eq!(r.at("ruleId").and_then(Json::as_str), Some("L2"));
    let steps = r
        .at("codeFlows.0.threadFlows.0.locations")
        .and_then(Json::as_arr)
        .expect("thread flow locations");
    let symbols: Vec<&str> = steps
        .iter()
        .filter_map(|s| s.at("location.message.text").and_then(Json::as_str))
        .collect();
    assert_eq!(symbols, vec!["Kernel::fault", "helper_a", "helper_b"]);
    // The human-readable message repeats the chain for grep-ability.
    let msg = r
        .at("message.text")
        .and_then(Json::as_str)
        .expect("message text");
    assert!(msg.contains("Kernel::fault -> helper_a -> helper_b"), "{msg}");
}

#[test]
fn baselined_findings_export_as_warnings() {
    let base = std::env::temp_dir().join(format!(
        "pagesim-lint-sarif-base-{}.toml",
        std::process::id()
    ));
    std::fs::write(
        &base,
        "schema = 1\n\n[[entry]]\nrule = \"L2\"\nfile = \"crates/util/src/lib.rs\"\n\
         symbol = \"helper_b\"\nreason = \"host timing shim pending SimTime port\"\n",
    )
    .expect("write temp baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_pagesim-lint"))
        .args([
            "--workspace",
            "--root",
            fixture("trans_l2_ws").to_str().expect("utf8"),
            "--baseline",
            base.to_str().expect("utf8"),
            "--format",
            "sarif",
        ])
        .output()
        .expect("spawn pagesim-lint");
    std::fs::remove_file(&base).ok();
    assert_eq!(out.status.code(), Some(0), "baselined run passes");
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("SARIF is valid JSON");
    assert_eq!(
        doc.at("runs.0.results.0.level").and_then(Json::as_str),
        Some("warning")
    );
}
