//! Diagnostics: the rule catalogue, violation records, and the text/JSON
//! renderings the CLI emits.

use std::fmt;

use crate::model::ModelStats;

/// Every rule `nvr-lint` enforces.
///
/// Two families: per-file token rules, and workspace-wide semantic rules
/// that need the cross-file [`crate::model::WorkspaceModel`]. Everything
/// rustc or clippy can check lives in the toolchain config instead (the
/// workspace `[lints]` table, the root `clippy.toml` and module-level
/// `#![deny(...)]` attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// No per-iteration `Vec`/`String`/`Box` allocation inside the named
    /// tick/advance loops of `nvr_core`/`nvr_mem` — the allocator in a
    /// per-cycle loop multiplies every sweep's wall clock.
    HotLoopAlloc,
    /// CSV header literals must agree column-for-column with the row
    /// format string that follows them.
    CsvSchemaSync,
    /// Semantic: every registry-enum variant (`SystemKind`, `WorkloadId`,
    /// `FigureId`) must sit in its `ALL` table and — for the dispatched
    /// enums — be referenced outside its defining file.
    VariantDrift,
    /// Semantic: every pub field of a config struct must be read in at
    /// least one file other than the one defining it.
    DeadKnob,
    /// Semantic: CSV column names documented in README/ARCHITECTURE.md
    /// must exist in some writer's header string (or as a workspace
    /// identifier) — the cross-file upgrade of `csv/schema-sync`.
    CsvCrossFile,
    /// Semantic: no `+`/`-` between identifiers carrying *different* unit
    /// suffixes (`_cycles`/`_ns`/`_bytes`/`_lines`) unless one side is a
    /// named conversion.
    SuffixMix,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 6] = [
        Rule::HotLoopAlloc,
        Rule::CsvSchemaSync,
        Rule::VariantDrift,
        Rule::DeadKnob,
        Rule::CsvCrossFile,
        Rule::SuffixMix,
    ];

    /// The stable `category/name` id used in diagnostics and `--rule`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotLoopAlloc => "perf/hot-loop-alloc",
            Rule::CsvSchemaSync => "csv/schema-sync",
            Rule::VariantDrift => "registry/variant-drift",
            Rule::DeadKnob => "config/dead-knob",
            Rule::CsvCrossFile => "csv/cross-file-schema",
            Rule::SuffixMix => "units/suffix-mix",
        }
    }

    /// One-line description for `--list-rules`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HotLoopAlloc => {
                "no per-iteration Vec/String/Box allocation inside named \
                 tick/advance loops of core/mem"
            }
            Rule::CsvSchemaSync => {
                "CSV header literals must match the column count of their row format"
            }
            Rule::VariantDrift => {
                "registry-enum variants must sit in ALL and be referenced outside \
                 their defining file"
            }
            Rule::DeadKnob => "every pub config-struct field must be read outside its file",
            Rule::CsvCrossFile => {
                "CSV columns documented in README/ARCHITECTURE.md must exist in a writer"
            }
            Rule::SuffixMix => {
                "no +/- between identifiers with different unit suffixes without a conversion"
            }
        }
    }

    /// Looks a rule up by its `category/name` id.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The long-form rationale printed by `--explain <name>`: what the
    /// rule guards, why the repo cares, and how to fix a hit.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HotLoopAlloc => {
                "The simulator's throughput budget is set by the per-cycle loops in \
                 crates/core and crates/mem (tick/advance/step/issue/probe/install \
                 and friends). A Vec::new, String::from, format!, Box::new or \
                 .collect() inside such a loop's body calls the allocator once per \
                 iteration — the exact pattern the SoA/batching rework removed, and \
                 the one the perf CI gate exists to catch after the fact.\nFix: hoist \
                 the allocation out of the loop and reuse the buffer (clear(), \
                 swap-style drains), or size it once with with_capacity."
            }
            Rule::CsvSchemaSync => {
                "Within one file, a CSV header literal and the row format! that \
                 follows must agree on column count, or every downstream plot reads \
                 shifted columns.\nFix: keep header string and row fields in sync."
            }
            Rule::VariantDrift => {
                "The headline grid (8 workloads x 7 systems x figures) is built \
                 from hand-maintained registries: each enum's ALL table plus the \
                 dispatch surfaces (runner, sweep tables, CLI FromStr, figure \
                 drivers). A variant missing from ALL — or never referenced outside \
                 its defining file — silently drops out of every sweep while the \
                 build stays green.\nFix: add the variant to ALL and wire it through \
                 the dispatch surfaces; the fixture trees under crates/lint/tests \
                 show the minimal shape."
            }
            Rule::DeadKnob => {
                "A pub field on NvrConfig/CacheConfig/DramConfig/MemoryConfig/\
                 NpuConfig that no other file reads is a knob wired to nothing: \
                 sweeps vary it, plots caption it, the model ignores it.\nFix: \
                 either wire the knob into the model or delete it."
            }
            Rule::CsvCrossFile => {
                "README/ARCHITECTURE.md document CSV columns by name; the writers \
                 in crates/sim own the header strings. When a column is renamed in \
                 code but not in docs, every reader of the docs mis-parses the \
                 artifact.\nFix: update the documented column lists to match the \
                 writer headers (backticked snake_case names are checked against \
                 all writer headers and workspace identifiers)."
            }
            Rule::SuffixMix => {
                "Identifiers ending in _cycles/_ns/_bytes/_lines carry their unit \
                 in the name; adding or subtracting across units (latency_ns + \
                 row_bytes) is a dimensional bug the type system cannot see.\nFix: \
                 convert through a named helper (a *_per_*, to_*, from_* identifier \
                 on either side marks the site as a conversion)."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule violated.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were checked.
    pub files_checked: usize,
    /// What the workspace model indexed (0 across the board when the
    /// semantic pass did not run, e.g. single-file `lint_source`).
    pub model_stats: ModelStats,
}

impl Report {
    /// True when nothing was flagged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable rendering: one stable JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tool\": \"nvr-lint\",\n");
        let s = &self.model_stats;
        out.push_str(&format!(
            "  \"files_checked\": {},\n  \"model_stats\": \
             {{\"files\": {}, \"enums\": {}, \"variants\": {}, \"structs\": {}, \
             \"fields\": {}, \"csv_headers\": {}}},\n  \"violations\": [",
            self.files_checked, s.files, s.enums, s.variants, s.structs, s.fields, s.csv_headers
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(d.rule.name()),
                json_escape(&d.file),
                d.line,
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(!rule.describe().is_empty());
        }
        assert_eq!(Rule::from_name("nonsense/rule"), None);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report {
            files_checked: 2,
            ..Report::default()
        };
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"violations\": []"));
        r.diagnostics.push(Diagnostic {
            rule: Rule::DeadKnob,
            file: "crates/core/src/config.rs".into(),
            line: 3,
            message: "`NvrConfig::unused` is never read".into(),
        });
        let json = r.to_json();
        assert!(json.contains("\"rule\": \"config/dead-knob\""));
        assert!(json.contains("\"line\": 3"));
    }
}
