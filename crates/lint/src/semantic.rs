//! Pass 2: the cross-file semantic rules over the [`WorkspaceModel`].
//!
//! Everything here is a pure query against the model built by pass 1 —
//! no file IO, no lexing. There is no suppression syntax: the fix for a
//! finding is always to change the code or the doc it points at.

use crate::diag::{Diagnostic, Rule};
use crate::model::WorkspaceModel;
use crate::parser::unit_suffix;

/// The registry enums and whether their variants must be referenced
/// outside the defining file. `FigureId` is dispatched through its `ALL`
/// table alone (the sweep driver iterates it), so only table membership
/// is checked for it; `SystemKind`/`WorkloadId` additionally fan out to
/// hand-written dispatch surfaces (runner config, CLI parsers, figure
/// drivers) that must each name the variant.
const REGISTRY_ENUMS: [(&str, bool); 3] = [
    ("SystemKind", true),
    ("WorkloadId", true),
    ("FigureId", false),
];

/// Config structs whose pub fields the dead-knob rule audits.
const CONFIG_STRUCTS: [&str; 5] = [
    "NvrConfig",
    "CacheConfig",
    "DramConfig",
    "MemoryConfig",
    "NpuConfig",
];

/// Runs every semantic rule. `docs` holds the rendered documentation
/// files as `(workspace-relative path, contents)` pairs.
#[must_use]
pub fn run(model: &WorkspaceModel, docs: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_variant_drift(model, &mut diags);
    check_dead_knobs(model, &mut diags);
    check_csv_docs(model, docs, &mut diags);
    check_suffix_mix(model, &mut diags);
    diags
}

/// `registry/variant-drift`: every variant of a registry enum must be in
/// the `ALL` table of its defining file, and (for the dispatched enums)
/// referenced as `Enum::Variant` in at least one other file.
fn check_variant_drift(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    for (enum_name, external) in REGISTRY_ENUMS {
        for (file, def) in model.enum_defs(enum_name) {
            let table = file
                .const_arrays
                .iter()
                .find(|c| c.name == "ALL" && c.items.iter().any(|p| p.root == enum_name));
            let Some(table) = table else {
                diags.push(Diagnostic {
                    rule: Rule::VariantDrift,
                    file: file.path.clone(),
                    line: def.line,
                    message: format!(
                        "registry enum `{enum_name}` has no `ALL` table in its defining \
                         file; sweeps iterate ALL, so without it no variant runs"
                    ),
                });
                continue;
            };
            for (variant, line) in &def.variants {
                if !table.items.iter().any(|p| p.name == *variant) {
                    diags.push(Diagnostic {
                        rule: Rule::VariantDrift,
                        file: file.path.clone(),
                        line: *line,
                        message: format!(
                            "`{enum_name}::{variant}` is missing from the `ALL` table \
                             (line {}); it will silently never run in any sweep",
                            table.line
                        ),
                    });
                }
                if external && !model.path_used_outside(enum_name, variant, &file.path) {
                    diags.push(Diagnostic {
                        rule: Rule::VariantDrift,
                        file: file.path.clone(),
                        line: *line,
                        message: format!(
                            "`{enum_name}::{variant}` is never referenced outside its \
                             defining file — no dispatch surface (runner, sweep \
                             tables, CLI, figures) names it"
                        ),
                    });
                }
            }
        }
    }
}

/// `config/dead-knob`: each pub field on a config struct must be read in
/// at least one file other than the one defining the struct; otherwise
/// sweeps can vary it and plots caption it while the model ignores it.
fn check_dead_knobs(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    for file in &model.files {
        for def in &file.structs {
            if !CONFIG_STRUCTS.contains(&def.name.as_str()) {
                continue;
            }
            for (field, line) in &def.fields {
                if !model.ident_used_outside(field, &file.path) {
                    diags.push(Diagnostic {
                        rule: Rule::DeadKnob,
                        file: file.path.clone(),
                        line: *line,
                        message: format!(
                            "config knob `{}::{field}` is never read outside {}; \
                             wire it into the model or delete it",
                            def.name, file.path
                        ),
                    });
                }
            }
        }
    }
}

/// `csv/cross-file-schema`: backticked snake_case column names in the
/// documentation must exist in some writer's CSV header (comma lists) or
/// at least as a workspace identifier (single names) — catching the
/// rename-in-code-only drift the per-file `csv/schema-sync` cannot see.
fn check_csv_docs(model: &WorkspaceModel, docs: &[(String, String)], diags: &mut Vec<Diagnostic>) {
    let columns = model.csv_columns();
    let known_ident = |name: &str| {
        columns.contains(name)
            || model.packages.contains(name)
            || model.files.iter().any(|f| f.idents.contains(name))
    };
    for (path, text) in docs {
        let mut in_fence = false;
        for (i, raw_line) in text.lines().enumerate() {
            let line_no = (i + 1) as u32;
            if raw_line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for span in backtick_spans(raw_line) {
                if let Some(cols) = doc_column_list(span) {
                    for col in cols {
                        if !columns.contains(col) {
                            diags.push(Diagnostic {
                                rule: Rule::CsvCrossFile,
                                file: path.clone(),
                                line: line_no,
                                message: format!(
                                    "documented CSV column `{col}` matches no writer \
                                     header in the workspace; the docs have drifted \
                                     from the CSV writers"
                                ),
                            });
                        }
                    }
                } else if is_doc_ident(span) && !known_ident(span) {
                    diags.push(Diagnostic {
                        rule: Rule::CsvCrossFile,
                        file: path.clone(),
                        line: line_no,
                        message: format!(
                            "documented name `{span}` matches no CSV column or \
                             workspace identifier; it was probably renamed in code"
                        ),
                    });
                }
            }
        }
    }
}

/// The contents of inline `` `code` `` spans on one markdown line.
fn backtick_spans(line: &str) -> Vec<&str> {
    line.split('`').skip(1).step_by(2).collect()
}

/// `Some(columns)` when the span is a comma-separated list of ≥ 2
/// lowercase snake_case names (at least one with an underscore) — the
/// shape of a documented CSV column list, and nothing prose-like.
fn doc_column_list(span: &str) -> Option<Vec<&str>> {
    let cols: Vec<&str> = span.split(',').map(str::trim).collect();
    if cols.len() < 2 || !cols.iter().all(|c| is_doc_ident(c)) {
        return None;
    }
    cols.iter().any(|c| c.contains('_')).then_some(cols)
}

/// A lowercase snake_case identifier with an underscore — specific
/// enough that prose, CLI flags, paths and type names in backticks are
/// never mistaken for column references.
fn is_doc_ident(s: &str) -> bool {
    s.contains('_')
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// `units/suffix-mix`: `a_cycles + b_bytes` style arithmetic, unless a
/// named conversion (`*_per_*`, `to_*`, `from_*`) sits on either side.
fn check_suffix_mix(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    let is_conversion = |name: &str| {
        name.contains("per_")
            || name.starts_with("to_")
            || name.starts_with("from_")
            || name.contains("_to_")
            || name.contains("_from_")
    };
    for file in &model.files {
        for op in &file.unit_ops {
            let (Some(lu), Some(ru)) = (unit_suffix(&op.lhs), unit_suffix(&op.rhs)) else {
                continue;
            };
            if lu == ru || is_conversion(&op.lhs) || is_conversion(&op.rhs) {
                continue;
            }
            if file.in_test_code(op.line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: Rule::SuffixMix,
                file: file.path.clone(),
                line: op.line,
                message: format!(
                    "`{}` ({}) and `{}` ({}) are added/subtracted across units; \
                     route the conversion through a named *_per_*/to_*/from_* \
                     identifier",
                    op.lhs, lu, op.rhs, ru
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel {
            files: files
                .iter()
                .map(|(rel, src)| parse_file(rel, &lex(src)))
                .collect(),
            packages: ["nvr_bench".to_string()].into(),
        }
    }

    const KIND_OK: &str = "pub enum SystemKind { A, B }\n\
        impl SystemKind {\n  pub const ALL: [SystemKind; 2] = \
        [SystemKind::A, SystemKind::B];\n}\n";

    #[test]
    fn drift_fires_when_variant_missing_from_all() {
        let bad = KIND_OK.replace(", SystemKind::B", "");
        let m = model(&[
            ("crates/sim/src/runner.rs", &bad),
            (
                "crates/sim/src/sweep.rs",
                "fn f() { let _ = (SystemKind::A, SystemKind::B); }\n",
            ),
        ]);
        let diags = run(&m, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::VariantDrift);
        assert!(diags[0].message.contains("SystemKind::B"));
    }

    #[test]
    fn drift_fires_when_variant_unreferenced_elsewhere() {
        let m = model(&[
            ("crates/sim/src/runner.rs", KIND_OK),
            (
                "crates/sim/src/sweep.rs",
                "fn f() { let _ = SystemKind::A; }\n",
            ),
        ]);
        let diags = run(&m, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("never referenced outside"));
    }

    #[test]
    fn figure_id_needs_no_external_references() {
        let src = "pub enum FigureId { F1 }\nimpl FigureId {\n  \
                   pub const ALL: [FigureId; 1] = [FigureId::F1];\n}\n";
        let m = model(&[("crates/sim/src/figures.rs", src)]);
        assert!(run(&m, &[]).is_empty());
    }

    #[test]
    fn dead_knob_fires_and_external_read_clears_it() {
        let cfg = "pub struct NvrConfig {\n  pub vector_width: u32,\n  pub unused_knob: u32,\n}\n";
        let user = "fn f(c: &NvrConfig) -> u32 { c.vector_width }\n";
        let m = model(&[
            ("crates/core/src/config.rs", cfg),
            ("crates/core/src/controller.rs", user),
        ]);
        let diags = run(&m, &[]);
        let dead: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == Rule::DeadKnob).collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert!(dead[0].message.contains("unused_knob"));
    }

    #[test]
    fn csv_doc_drift_fires_on_unknown_column() {
        let writer = "fn f() { let h = \"tile_id,total_cycles\\n\"; }\n";
        let m = model(&[("crates/sim/src/sweep.rs", writer)]);
        let docs = vec![(
            "README.md".to_string(),
            "The sweep CSV carries `tile_id,total_cycles`.\n\
             Columns `tile_id` and `ghost_column` matter.\n\
             The `nvr_bench` package has no Rust identifier.\n\
             ```\ncode fence with `fake_col` is skipped\n```\n\
             CLI flags like `--out nvr-lint.json` are not columns.\n"
                .to_string(),
        )];
        let diags = run(&m, &docs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::CsvCrossFile);
        assert!(diags[0].message.contains("ghost_column"));
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn suffix_mix_fires_across_units_only() {
        let src = "fn f(a_cycles: u64, b_bytes: u64, c_cycles: u64, bytes_per_line: u64) {\n\
                   let x = a_cycles + b_bytes;\n\
                   let y = a_cycles + c_cycles;\n\
                   let z = b_bytes - bytes_per_line;\n}\n";
        let m = model(&[("crates/core/src/x.rs", src)]);
        let diags = run(&m, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::SuffixMix);
        assert_eq!(diags[0].line, 2);
    }
}
