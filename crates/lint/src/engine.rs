//! Workspace discovery and the two-pass whole-tree lint.
//!
//! Walks `crates/`, `tests/` and `examples/` under the workspace root
//! (skipping `target/`, `vendor/` — third-party stand-ins — and any
//! `fixtures/` directory, which holds deliberately-bad lint inputs).
//! Pass 1 analyzes each file ([`crate::rules::analyze_source`]); pass 2
//! stitches the per-file models into a [`WorkspaceModel`] and runs the
//! cross-file semantic rules ([`crate::semantic`]) over it plus the two
//! documentation files.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Report, Rule};
use crate::model::WorkspaceModel;
use crate::rules::analyze_source;
use crate::semantic;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Top-level directories scanned under the workspace root.
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Documentation files the `csv/cross-file-schema` rule reads, relative
/// to the workspace root. Missing files are simply skipped (fixture
/// trees usually have none).
const DOC_FILES: [&str; 2] = ["README.md", "docs/ARCHITECTURE.md"];

/// Knobs for a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Restrict the report to one rule (`--rule`).
    pub rule: Option<Rule>,
}

/// Lints the workspace rooted at `root` with default options (all
/// rules).
///
/// # Errors
///
/// Returns a message when `root` is not a workspace root (no `Cargo.toml`)
/// or a file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    lint_workspace_with(root, &LintOptions::default())
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace root (no `Cargo.toml`)
/// or a file cannot be read.
pub fn lint_workspace_with(root: &Path, opts: &LintOptions) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), &mut files);
    }
    files.sort();

    // Pass 1: per-file token rules and models.
    let mut report = Report::default();
    let mut model = WorkspaceModel::default();
    for path in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let analysis = analyze_source(&rel, &src);
        report.diagnostics.extend(analysis.findings);
        model.files.push(analysis.model);
        report.files_checked += 1;
    }

    for dir in fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        if let Ok(manifest) = fs::read_to_string(dir.path().join("Cargo.toml")) {
            model.packages.extend(package_name(&manifest));
        }
    }

    // Pass 2: the cross-file rules over the stitched model + docs.
    report.model_stats = model.stats();
    let docs: Vec<(String, String)> = DOC_FILES
        .iter()
        .filter_map(|rel| {
            fs::read_to_string(root.join(rel))
                .ok()
                .map(|text| ((*rel).to_string(), text))
        })
        .collect();
    report.diagnostics.extend(semantic::run(&model, &docs));
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));

    if let Some(rule) = opts.rule {
        report.diagnostics.retain(|d| d.rule == rule);
    }
    Ok(report)
}

/// Walks upward from `start` to the first directory holding a
/// `Cargo.toml` with a `[workspace]` table.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// The first `name = "..."` of a manifest: its `[package]` name.
fn package_name(manifest: &str) -> Option<String> {
    manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .map(str::to_string)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    // read_dir order is platform-dependent; the caller sorts the full list.
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if SKIP_DIRS.iter().any(|s| name.to_string_lossy() == *s) {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_root_is_an_error() {
        let err = lint_workspace(Path::new("/nonexistent-nvr-lint-root"));
        assert!(err.is_err());
    }

    #[test]
    fn finds_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}
