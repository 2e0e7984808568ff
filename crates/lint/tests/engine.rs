//! Fixture-driven tests of the per-file rules: every rule has a
//! known-bad snippet that must fire and a known-good snippet that must
//! stay clean. Fixtures live under `tests/fixtures/` — a directory name
//! the workspace walker deliberately skips, so the deliberately-bad code
//! never pollutes the real lint pass.

use nvr_lint::{lint_source, Rule};

/// Runs the engine over a fixture under the given pseudo-path (rule
/// scoping keys off the path) and returns the rules that fired.
fn fired(rel: &str, src: &str) -> Vec<Rule> {
    lint_source(rel, src).into_iter().map(|d| d.rule).collect()
}

#[test]
fn hot_loop_alloc_bad_fires_per_site() {
    let src = include_str!("fixtures/hot_loop_alloc_bad.rs");
    let diags = lint_source("crates/mem/src/cache.rs", src);
    assert_eq!(diags.len(), 4, "one finding per allocation site: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == Rule::HotLoopAlloc));
    // The message names the allocating expression.
    assert!(diags.iter().any(|d| d.message.contains("`Vec::new`")));
    assert!(diags.iter().any(|d| d.message.contains("`format!`")));
    assert!(diags.iter().any(|d| d.message.contains("`.to_vec()`")));
    assert!(diags.iter().any(|d| d.message.contains("`Box::new`")));
}

#[test]
fn hot_loop_alloc_good_is_clean() {
    let src = include_str!("fixtures/hot_loop_alloc_good.rs");
    assert_eq!(fired("crates/core/src/controller.rs", src), []);
}

#[test]
fn hot_loop_alloc_ignored_outside_core_and_mem() {
    let src = include_str!("fixtures/hot_loop_alloc_bad.rs");
    assert_eq!(fired("crates/sim/src/sweep.rs", src), []);
    assert_eq!(fired("crates/bench/src/bin/perf.rs", src), []);
}

#[test]
fn csv_schema_mismatch_fires() {
    let src = include_str!("fixtures/csv_schema_bad.rs");
    let diags = lint_source("crates/sim/src/report.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::CsvSchemaSync);
    assert!(diags[0].message.contains('4') && diags[0].message.contains('3'));
}

#[test]
fn csv_schema_good_is_clean() {
    let src = include_str!("fixtures/csv_schema_good.rs");
    assert_eq!(fired("crates/sim/src/report.rs", src), []);
}
