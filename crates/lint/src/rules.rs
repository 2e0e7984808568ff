//! The per-file (pass 1) rule checks.
//!
//! [`analyze_source`] lexes one file, runs every token rule whose scope
//! covers it and builds the file's [`FileModel`] for the workspace
//! semantic pass. [`lint_source`] is the single-file entry point (tests,
//! fixture checks): the token-rule findings alone.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::model::FileModel;

/// Function-name markers for the simulator's per-cycle entry points in
/// `crates/core`/`crates/mem`: a `for`/`while`/`loop` body inside a
/// function whose name contains one of these is a hot loop, where a
/// per-iteration allocation multiplies every sweep's wall clock.
const HOT_FN_MARKERS: [&str; 7] = [
    "tick", "advance", "step", "issue", "probe", "install", "progress",
];

/// Everything pass 1 learns about one file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Token-rule findings, in (line, rule) order.
    pub findings: Vec<Diagnostic>,
    /// The file's slice of the workspace model.
    pub model: FileModel,
}

/// Pass 1 for one file: token rules + item model. `rel` is the
/// workspace-relative path with forward slashes — rule scoping keys off
/// it.
#[must_use]
pub fn analyze_source(rel: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let test_lines = cfg_test_lines(&lexed);
    let mut findings: Vec<Diagnostic> = Vec::new();
    check_hot_loop_alloc(rel, &lexed, &test_lines, &mut findings);
    check_csv_schema(rel, &lexed, &mut findings);
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.name().cmp(b.rule.name())));
    FileAnalysis {
        findings,
        model: crate::parser::parse_file(rel, &lexed),
    }
}

/// Lints one file's source with the per-file rules only (no workspace
/// semantic pass).
#[must_use]
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    analyze_source(rel, src).findings
}

/// Lines covered by `#[cfg(test)]` items: rules that police production
/// tick paths skip these (tests unwrap freely, by design). The parser
/// reuses it to stamp [`crate::model::FileModel::test_ranges`].
pub(crate) fn cfg_test_lines(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = tok_is(&toks[i], "#")
            && tok_is(&toks[i + 1], "[")
            && ident_is(&toks[i + 2], "cfg")
            && tok_is(&toks[i + 3], "(")
            && ident_is(&toks[i + 4], "test")
            && tok_is(&toks[i + 5], ")")
            && tok_is(&toks[i + 6], "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the body's opening brace, then its matching close.
        let mut j = i + 7;
        while j < toks.len() && !tok_is(&toks[j], "{") {
            // A `;` first means a braceless item (e.g. `mod tests;`).
            if tok_is(&toks[j], ";") {
                break;
            }
            j += 1;
        }
        if j >= toks.len() || !tok_is(&toks[j], "{") {
            i = j;
            continue;
        }
        let start = toks[i].line;
        let mut depth = 0i64;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = toks.get(j).map_or(u32::MAX, |t| t.line);
        ranges.push((start, end));
        i = j + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

fn tok_is(tok: &Tok, text: &str) -> bool {
    match tok.kind {
        TokKind::Punct(c) => text.len() == 1 && text.starts_with(c),
        _ => false,
    }
}

fn ident_is(tok: &Tok, text: &str) -> bool {
    tok.kind == TokKind::Ident && tok.text == text
}

fn push(diags: &mut Vec<Diagnostic>, rule: Rule, rel: &str, line: u32, message: String) {
    diags.push(Diagnostic {
        rule,
        file: rel.into(),
        line,
        message,
    });
}

/// The first `{` at or after `from` together with its matching `}`, as
/// token indices. Returns `None` when a `;` arrives first (no block — a
/// trait-method signature) or the braces never balance.
fn brace_block(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < toks.len() && !tok_is(&toks[i], "{") {
        if tok_is(&toks[i], ";") {
            return None;
        }
        i += 1;
    }
    let open = i;
    let mut depth = 0i64;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Flags per-iteration `Vec`/`String`/`Box` allocation (constructors,
/// `vec!`/`format!`, `.to_vec()`/`.to_string()`/`.to_owned()`/
/// `.collect()`) inside `for`/`while`/`loop` bodies of the named hot
/// functions of `crates/core`/`crates/mem`.
fn check_hot_loop_alloc(
    rel: &str,
    lexed: &Lexed,
    test_lines: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    if !(rel.starts_with("crates/core/") || rel.starts_with("crates/mem/")) {
        return;
    }
    let toks = &lexed.toks;
    // Body spans of the hot functions (token index ranges).
    let mut hot_spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_hot_fn = ident_is(&toks[i], "fn")
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && HOT_FN_MARKERS.iter().any(|m| t.text.contains(m))
            })
            && !in_ranges(test_lines, toks[i].line);
        if is_hot_fn {
            if let Some(span) = brace_block(toks, i + 2) {
                hot_spans.push(span);
            }
        }
        i += 1;
    }
    // Loop bodies inside those functions.
    let mut loop_spans: Vec<(usize, usize)> = Vec::new();
    for &(fs, fe) in &hot_spans {
        for j in fs..=fe {
            let is_loop = toks[j].kind == TokKind::Ident
                && matches!(toks[j].text.as_str(), "for" | "while" | "loop");
            if is_loop {
                if let Some((open, close)) = brace_block(toks, j + 1) {
                    if close <= fe {
                        loop_spans.push((open, close));
                    }
                }
            }
        }
    }
    // Allocation sites, deduplicated by token index (nested loops overlap).
    let mut flagged: Vec<usize> = Vec::new();
    for &(ls, le) in &loop_spans {
        for k in ls..=le {
            let Some(what) = alloc_site(toks, k) else {
                continue;
            };
            if flagged.contains(&k) {
                continue;
            }
            flagged.push(k);
            push(
                diags,
                Rule::HotLoopAlloc,
                rel,
                toks[k].line,
                format!(
                    "{what} allocates on every iteration of a hot tick/advance loop; \
                     hoist the buffer out of the loop and reuse it"
                ),
            );
        }
    }
}

/// `Some(description)` when the token at `k` starts an allocating
/// expression: a `Vec`/`String`/`Box` constructor, a `vec!`/`format!`
/// invocation, or an allocating method call.
fn alloc_site(toks: &[Tok], k: usize) -> Option<String> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "Vec" | "String" | "Box" => {
            let path = tok_is(toks.get(k + 1)?, ":") && tok_is(toks.get(k + 2)?, ":");
            let m = toks.get(k + 3)?;
            let ctor = m.kind == TokKind::Ident
                && matches!(m.text.as_str(), "new" | "from" | "with_capacity");
            (path && ctor).then(|| format!("`{}::{}`", t.text, m.text))
        }
        "vec" | "format" if tok_is(toks.get(k + 1)?, "!") => Some(format!("`{}!`", t.text)),
        "to_string" | "to_owned" | "to_vec" | "collect" => {
            let method_call = k > 0
                && tok_is(&toks[k - 1], ".")
                && toks
                    .get(k + 1)
                    .is_some_and(|n| tok_is(n, "(") || tok_is(n, ":"));
            method_call.then(|| format!("`.{}()`", t.text))
        }
        _ => None,
    }
}

/// Pairs CSV header literals with the first row-format literal that
/// follows and compares top-level column counts.
fn check_csv_schema(rel: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let strs: Vec<&Tok> = lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .collect();
    for (i, header) in strs.iter().enumerate() {
        let Some(header_cols) = csv_header_columns(&header.text) else {
            continue;
        };
        // The matching row emitter is the next format-ish literal ending in
        // a newline within a generous window of the header.
        let row = strs[i + 1..]
            .iter()
            .find(|t| t.text.ends_with('\n') && t.text.contains('{') && t.line <= header.line + 80);
        let Some(row) = row else { continue };
        let row_cols = top_level_commas(&row.text) + 1;
        if row_cols != header_cols {
            push(
                diags,
                Rule::CsvSchemaSync,
                rel,
                row.line,
                format!(
                    "CSV row format has {row_cols} columns but the header on line {} \
                     declares {header_cols}; keep the header string and the row \
                     field list in sync",
                    header.line
                ),
            );
        }
    }
}

/// `Some(columns)` when the literal looks like a CSV header: ends with a
/// newline, has ≥ 2 commas, no format placeholders, and every segment is
/// an identifier-shaped column name.
fn csv_header_columns(text: &str) -> Option<usize> {
    if !text.ends_with('\n') || text.contains('{') || text.contains('}') {
        return None;
    }
    let body = text.trim_end_matches('\n');
    let segments: Vec<&str> = body.split(',').collect();
    if segments.len() < 3 {
        return None;
    }
    let ident_like = |s: &str| {
        let s = s.trim();
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    segments
        .iter()
        .all(|s| ident_like(s))
        .then_some(segments.len())
}

/// Commas outside `{...}` placeholders (format-spec commas don't count),
/// honouring `{{`/`}}` escapes.
fn top_level_commas(text: &str) -> usize {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => i += 1,
            '}' if chars.get(i + 1) == Some(&'}') => i += 1,
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => commas += 1,
            _ => {}
        }
        i += 1;
    }
    commas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(rel: &str, src: &str) -> Vec<Rule> {
        lint_source(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn csv_header_mismatch_detected() {
        let good = "fn csv() -> String {\n\
            let mut out = String::from(\"a,b,c\\n\");\n\
            out.push_str(&format!(\"{},{},{}\\n\", 1, 2, 3));\nout\n}\n";
        assert!(rules_fired("crates/sim/src/x.rs", good).is_empty());
        let bad = good.replace("\"a,b,c\\n\"", "\"a,b,c,d\\n\"");
        assert_eq!(
            rules_fired("crates/sim/src/x.rs", &bad),
            [Rule::CsvSchemaSync]
        );
    }

    #[test]
    fn format_spec_commas_do_not_count() {
        assert_eq!(top_level_commas("{},{:>8},{:.3}\n"), 2);
        assert_eq!(top_level_commas("{{literal}},{}\n"), 1);
    }
}
