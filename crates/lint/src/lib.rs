//! `nvr-lint` — workspace-wide simulator-invariant static analysis.
//!
//! The repo's load-bearing correctness property is *bit-exact determinism*
//! of simulation results across `--jobs`, seeds and channel counts. The
//! checks rustc and clippy can do — `unsafe_code`, `missing_docs`, the
//! container/clock/RNG bans, panics and lossy casts in tick paths,
//! wildcard match arms — live in the toolchain config (the workspace
//! `[lints]` table, the root `clippy.toml` and module-level
//! `#![deny(...)]` attributes). This crate keeps only the invariants no
//! built-in lint can see: *registry coherence* (every `SystemKind`/
//! `WorkloadId`/`FigureId` variant must flow through every dispatch
//! surface), live config knobs, CSV schemas that agree across writers and
//! docs, unit-suffix arithmetic, and allocation in the per-cycle loops.
//! It runs in two passes:
//!
//! * **Pass 1 (per file):** a hand-rolled, comment/string/
//!   attribute-aware lexer ([`lexer`]) feeds the token rules (hot-loop
//!   allocation, same-file CSV schema sync) and an item-level parser
//!   ([`parser`]) that distils each file into a [`model::FileModel`].
//! * **Pass 2 (workspace):** the per-file models stitch into a
//!   [`model::WorkspaceModel`] and the cross-file semantic rules
//!   ([`semantic`]) run over it: registry variant drift, dead config
//!   knobs, documented-CSV-column drift, and unit-suffix mixing.
//!
//! Run it with `cargo run -p nvr_lint` (exit 0 = clean, 1 = violations),
//! `--format json` for the machine-readable report CI archives, or
//! `--rule <name>` / `--explain <name>` to work on one rule at a time.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use diag::{Diagnostic, Report, Rule};
pub use engine::{find_workspace_root, lint_workspace, lint_workspace_with, LintOptions};
pub use rules::{analyze_source, lint_source};
