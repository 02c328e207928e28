//! Call-graph pass coverage: cross-crate cone propagation with exact
//! chains, H-series cone scoping, and scrubber alignment — all against
//! seeded fixture workspaces.

use std::path::{Path, PathBuf};

use pagesim_lint::{lint_workspace, Finding, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn chain_symbols(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|h| h.symbol.as_str()).collect()
}

/// `Kernel::fault` (core crate) calls `helper_a` (util crate), which calls
/// `helper_b`, which allocates with `vec!`. Nothing in the util crate is
/// hot on its own; the graph pass reports the allocation with the full
/// two-deep chain across the crate boundary.
#[test]
fn transitive_h1_crosses_crates_with_a_two_hop_chain() {
    let report = lint_workspace(&fixture("trans_cone_ws")).expect("fixture workspace");
    assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, Rule::HotAlloc);
    assert_eq!(f.file, "crates/util/src/lib.rs");
    assert_eq!(f.line, 10);
    assert_eq!(f.symbol, "helper_b");
    assert_eq!(
        chain_symbols(f),
        vec!["Kernel::fault", "helper_a", "helper_b"]
    );
    // Chain hops carry file/line anchors for every hop.
    let anchors: Vec<(&str, u32)> = f.chain.iter().map(|h| (h.file.as_str(), h.line)).collect();
    assert_eq!(
        anchors,
        vec![
            ("crates/core/src/lib.rs", 10),
            ("crates/util/src/lib.rs", 5),
            ("crates/util/src/lib.rs", 9),
        ]
    );
    // And the rendering shows the chain for humans and CI greps.
    assert!(
        f.to_string()
            .ends_with("[chain: Kernel::fault -> helper_a -> helper_b]"),
        "display: {f}"
    );
}

#[test]
fn h_series_fires_inside_the_cone_only() {
    let report = lint_workspace(&fixture("hot_ws")).expect("fixture workspace");
    let got: Vec<(Rule, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.symbol.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            (Rule::HotAlloc, 12, "Kernel::fault"),
            (Rule::HotClone, 13, "Kernel::fault"),
            (Rule::HotDyn, 20, "Kernel::pick"),
            (Rule::HotAlloc, 33, "helper"),
            (Rule::HotFloat, 38, "ratio"),
        ]
    );
    // `cold_setup` (lines 24-29) repeats the push/clone/vec! constructs
    // outside the cone: none may appear above.
    assert!(report.findings.iter().all(|f| !(24..=29).contains(&f.line)));
    // Chains are anchored at the root.
    assert!(report
        .findings
        .iter()
        .all(|f| f.chain.first().map(|h| h.symbol.as_str()) == Some("Kernel::fault")));
}

/// Scrubber regression fixture: H-series tokens inside every
/// string-literal flavor (raw, fenced, byte, C-string, raw C-string) and
/// nested block comments must not fire, while the real violation after
/// them still fires at its exact line — proving the scrubber never lost
/// alignment.
#[test]
fn scrubber_survives_raw_strings_c_strings_and_nested_comments() {
    let report = lint_workspace(&fixture("scrub_ws")).expect("fixture workspace");
    let got: Vec<(Rule, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.symbol.as_str()))
        .collect();
    assert_eq!(got, vec![(Rule::HotAlloc, 51, "real_violation")]);
    // Every function of the fixture is in the cone, so silence elsewhere
    // is the scrubber's doing, not the cone's.
    assert_eq!(report.reachable, 5);
}

/// The graph pass adds no findings (and no noise) to a workspace with no
/// hot roots: the legacy L4 fixture keeps its exact legacy behavior.
#[test]
fn rootless_workspace_gets_no_graph_findings() {
    let report = lint_workspace(&fixture("l4_good_ws")).expect("fixture workspace");
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.reachable, 0);
}
