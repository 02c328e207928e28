//! The workspace's lint settings stay where every crate picks them up.
//!
//! The root manifest forbids `unsafe` and every `crates/*` member opts in
//! to the workspace lints, so no crate can drop them silently (L4). The
//! hot-path files keep their clippy denies: unwrap/expect (L5) and float
//! arithmetic (H4).

use std::fs;
use std::path::Path;

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Whether `toml` has a `[lints]` table whose first entry is `workspace = true`.
fn opts_in(toml: &str) -> bool {
    let mut lines = toml
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    lines.any(|l| l == "[lints]") && lines.next() == Some("workspace = true")
}

#[test]
fn workspace_lints_reach_every_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = read(&root.join("Cargo.toml"));
    let rust_lints = manifest
        .split("[workspace.lints.rust]")
        .nth(1)
        .unwrap_or("");
    let rust_lints = rust_lints.split("\n[").next().unwrap_or("");
    assert!(
        rust_lints
            .lines()
            .any(|l| l.trim() == r#"unsafe_code = "forbid""#),
        "the root Cargo.toml must keep `unsafe_code = \"forbid\"` in [workspace.lints.rust]"
    );
    assert!(
        opts_in(&manifest),
        "the root package must opt in to the workspace lints"
    );

    let mut members: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|p| p.exists())
        .collect();
    members.sort();
    assert!(!members.is_empty(), "no crates/*/Cargo.toml found");
    let missing: Vec<_> = members.iter().filter(|p| !opts_in(&read(p))).collect();
    assert!(
        missing.is_empty(),
        "no `[lints] workspace = true` in {missing:?}"
    );
}

#[test]
fn hot_path_files_keep_their_denies() {
    const FLOAT: &str = "#![deny(clippy::float_arithmetic)]";
    const UNWRAP: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, deny) in [
        ("crates/engine/src/lib.rs", FLOAT),
        ("crates/mem/src/lib.rs", FLOAT),
        ("crates/policy/src/lib.rs", FLOAT),
        ("crates/swap/src/lib.rs", FLOAT),
        ("crates/core/src/kernel.rs", FLOAT),
        ("crates/core/src/kernel.rs", UNWRAP),
        ("crates/swap/src/device.rs", UNWRAP),
        ("crates/swap/src/slots.rs", UNWRAP),
    ] {
        let src = read(&root.join(file));
        assert!(
            src.lines().any(|l| l.trim() == deny),
            "{file} lost `{deny}`"
        );
    }
}
