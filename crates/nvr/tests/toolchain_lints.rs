//! Guards the toolchain configuration that carries the determinism,
//! panic, cast and wildcard-arm bans. Those lints run in the CI clippy
//! step, not in `cargo test`; this test makes deleting one of their
//! config entries a test failure too.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root above crates/nvr")
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// The trimmed lines of one `[table]` of a TOML file, up to the next
/// table header.
fn toml_table(text: &str, table: &str) -> Vec<String> {
    let header = format!("[{table}]");
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.trim().to_string())
        .collect()
}

/// Every lint named in the file's inner `#![deny(...)]` attributes,
/// whatever rustfmt did to their layout.
fn inner_denies(src: &str) -> Vec<String> {
    let flat: String = src.chars().filter(|c| !c.is_whitespace()).collect();
    flat.split("#![deny(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .flat_map(|(lints, _)| lints.split(',').map(str::to_string))
        .filter(|lint| !lint.is_empty())
        .collect()
}

fn assert_denies(rel: &str, lints: &[&str]) {
    let denied = inner_denies(&read(rel));
    for lint in lints {
        assert!(
            denied.iter().any(|d| d == lint),
            "{rel} no longer denies {lint} (denies {denied:?})"
        );
    }
}

#[test]
fn workspace_lints_forbid_unsafe_require_docs_and_audit_suppressions() {
    let manifest = read("Cargo.toml");
    let rust = toml_table(&manifest, "workspace.lints.rust");
    for entry in [r#"unsafe_code = "forbid""#, r#"missing_docs = "deny""#] {
        assert!(rust.iter().any(|l| l == entry), "missing `{entry}`");
    }
    let clippy = toml_table(&manifest, "workspace.lints.clippy");
    for entry in [
        r#"allow_attributes = "deny""#,
        r#"allow_attributes_without_reason = "deny""#,
    ] {
        assert!(clippy.iter().any(|l| l == entry), "missing `{entry}`");
    }
}

#[test]
fn every_crate_adopts_the_workspace_lints() {
    let crates = fs::read_dir(root().join("crates")).expect("crates/ dir");
    let mut checked = 0;
    for entry in crates.flatten() {
        let manifest = entry.path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        assert!(
            toml_table(&text, "lints").contains(&"workspace = true".to_string()),
            "{} does not adopt [workspace.lints]",
            manifest.display()
        );
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} crate manifests found");
}

#[test]
fn clippy_toml_bans_unordered_containers_clocks_and_entropy() {
    let config = read("clippy.toml");
    for entry in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        r#"path = "std::collections::HashMap""#,
        r#"path = "std::collections::HashSet""#,
        r#"path = "std::hash::RandomState""#,
        r#"path = "std::hash::DefaultHasher""#,
        r#"path = "std::time::Instant::now""#,
        r#"path = "std::time::SystemTime::now""#,
        r#"path = "rand::thread_rng""#,
        r#"path = "rand::SeedableRng::from_entropy""#,
        r#"path = "getrandom::getrandom""#,
    ] {
        assert!(config.contains(entry), "clippy.toml lost `{entry}`");
    }
}

#[test]
fn tick_files_deny_unwrap_and_expect() {
    for rel in [
        "crates/core/src/controller.rs",
        "crates/mem/src/cache.rs",
        "crates/mem/src/dram.rs",
        "crates/mem/src/hierarchy.rs",
    ] {
        assert_denies(rel, &["clippy::unwrap_used", "clippy::expect_used"]);
    }
}

#[test]
fn core_and_mem_deny_truncating_casts() {
    for rel in ["crates/core/src/lib.rs", "crates/mem/src/lib.rs"] {
        assert_denies(
            rel,
            &[
                "clippy::cast_possible_truncation",
                "clippy::cast_possible_wrap",
            ],
        );
    }
}

#[test]
fn result_crates_deny_wildcard_enum_arms() {
    for rel in [
        "crates/core/src/lib.rs",
        "crates/mem/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/workloads/src/lib.rs",
    ] {
        assert_denies(
            rel,
            &[
                "clippy::wildcard_enum_match_arm",
                "clippy::match_wildcard_for_single_variants",
            ],
        );
    }
}
