//! The item-level parser: one linear scan over a file's token stream
//! producing a [`FileModel`].
//!
//! This is deliberately not a Rust parser. It recognises exactly the
//! item shapes the semantic rules query — `enum` definitions, braced
//! `struct` definitions with `pub` fields, `const … = [ … ];` registry
//! tables, and `Root::Name` path references — by bracket-depth counting,
//! and skips
//! everything else. The workspace is rustfmt-clean 2021-edition code;
//! the fixtures in `tests/` pin every shape the rules depend on, and the
//! lexer guarantees comments/strings/raw identifiers can never fake a
//! keyword to this pass.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::model::{ConstArray, EnumDef, FileModel, PathRef, StructDef, UnitOpSite};

/// The unit vocabulary of the `units/suffix-mix` rule.
const UNIT_SUFFIXES: [&str; 4] = ["_cycles", "_ns", "_bytes", "_lines"];

/// The unit suffix an identifier carries, if any.
#[must_use]
pub fn unit_suffix(name: &str) -> Option<&'static str> {
    UNIT_SUFFIXES.iter().copied().find(|s| name.ends_with(s))
}

/// Parses one lexed file into its [`FileModel`]. Never fails: malformed
/// shapes are skipped, not reported — the compiler owns syntax errors.
#[must_use]
pub fn parse_file(rel: &str, lexed: &Lexed) -> FileModel {
    let toks = &lexed.toks;
    let mut model = FileModel {
        path: rel.to_string(),
        test_ranges: crate::rules::cfg_test_lines(lexed),
        ..FileModel::default()
    };

    for (i, tok) in toks.iter().enumerate() {
        match tok.kind {
            TokKind::Ident => {
                model.idents.insert(tok.text.clone());
            }
            TokKind::Str => {
                if looks_like_csv_header(&tok.text) {
                    model.csv_headers.push((tok.text.clone(), tok.line));
                }
                continue;
            }
            _ => continue,
        }

        // `Root::Name` with an uppercase-initial root: enum variants,
        // associated consts, unit structs — the reference graph the
        // registry rules walk.
        if starts_upper(&tok.text)
            && is_punct(toks.get(i + 1), ':')
            && is_punct(toks.get(i + 2), ':')
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
        {
            model.paths.push(PathRef {
                root: tok.text.clone(),
                name: toks[i + 3].text.clone(),
                line: tok.line,
            });
        }

        // `lhs ± rhs` between identifiers. `->`, `+=`, `-=` and unary
        // minus all fail the Ident-operator-Ident shape on their own.
        if let Some(op) = toks.get(i + 1) {
            if matches!(op.kind, TokKind::Punct('+') | TokKind::Punct('-'))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                // The right operand may be a dotted chain
                // (`self.cfg.latency_ns`); its unit lives on the last
                // segment. The left operand's last segment is `tok`
                // already — the lexer hands segments one at a time.
                let mut j = i + 2;
                while is_punct(toks.get(j + 1), '.')
                    && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    j += 2;
                }
                if unit_suffix(&tok.text).is_some() && unit_suffix(&toks[j].text).is_some() {
                    model.unit_ops.push(UnitOpSite {
                        line: op.line,
                        lhs: tok.text.clone(),
                        rhs: toks[j].text.clone(),
                    });
                }
            }
        }

        // Item keywords. The scan resumes at i + 1 in every case.
        match tok.text.as_str() {
            "enum" => {
                if let Some(def) = parse_enum(toks, i) {
                    model.enums.push(def);
                }
            }
            "struct" => {
                if let Some(def) = parse_struct(toks, i) {
                    model.structs.push(def);
                }
            }
            "const" => {
                if let Some(def) = parse_const_array(toks, i) {
                    model.const_arrays.push(def);
                }
            }
            _ => {}
        }
    }
    model
}

fn is_punct(tok: Option<&Tok>, c: char) -> bool {
    tok.is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn punct_of(tok: &Tok) -> Option<char> {
    match tok.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// A string literal shaped like a CSV header: ends in a newline, carries
/// no format placeholders, and every comma-separated segment is an
/// identifier-shaped column name (≥ 2 of them).
fn looks_like_csv_header(text: &str) -> bool {
    if !text.ends_with('\n') || text.contains('{') || text.contains('}') {
        return false;
    }
    let body = text.trim_end_matches('\n');
    if body.contains('\n') {
        return false;
    }
    let segments: Vec<&str> = body.split(',').collect();
    if segments.len() < 2 {
        return false;
    }
    segments.iter().all(|s| {
        let s = s.trim();
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    })
}

/// `enum Name { Variant, Variant(T), Variant { .. } }` starting at the
/// `enum` keyword. Variant payloads push bracket depth, so their field
/// idents are never mistaken for variants.
fn parse_enum(toks: &[Tok], kw: usize) -> Option<EnumDef> {
    let name = toks.get(kw + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    // Find the body brace; a `;` or `=` first means this was not an enum
    // definition after all (`enum` cannot appear elsewhere, but stay safe).
    let mut j = kw + 2;
    loop {
        match toks.get(j).and_then(punct_of) {
            Some('{') => break,
            Some(';') | Some('=') | None => return None,
            _ => j += 1,
        }
    }
    let mut def = EnumDef {
        name: name.text.clone(),
        line: toks[kw].line,
        variants: Vec::new(),
    };
    let mut depth = 0i64;
    let mut expect_variant = false;
    while let Some(tok) = toks.get(j) {
        match punct_of(tok) {
            Some('{') => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
            }
            Some('}') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some(',') if depth == 1 => expect_variant = true,
            // `#[...]` attribute on a variant: skip it whole so `doc`,
            // `must_use` etc. are not read as variant names.
            Some('#') if depth == 1 && is_punct(toks.get(j + 1), '[') => {
                let mut attr_depth = 0i64;
                j += 1;
                while let Some(t) = toks.get(j) {
                    match punct_of(t) {
                        Some('[') => attr_depth += 1,
                        Some(']') => {
                            attr_depth -= 1;
                            if attr_depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Explicit discriminants (`Variant = 3`) never re-arm.
            Some('=') if depth == 1 => expect_variant = false,
            None if tok.kind == TokKind::Ident && depth == 1 && expect_variant => {
                def.variants.push((tok.text.clone(), tok.line));
                expect_variant = false;
            }
            _ => {}
        }
        j += 1;
    }
    Some(def)
}

/// `struct Name { pub field: T, … }` starting at the `struct` keyword.
/// Tuple and unit structs have no named fields and are skipped.
fn parse_struct(toks: &[Tok], kw: usize) -> Option<StructDef> {
    let name = toks.get(kw + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let mut j = kw + 2;
    loop {
        match toks.get(j).and_then(punct_of) {
            Some('{') => break,
            // `struct Unit;` / `struct Tuple(T);` — nothing to index.
            Some(';') | Some('(') | None => return None,
            _ => j += 1,
        }
    }
    let mut def = StructDef {
        name: name.text.clone(),
        line: toks[kw].line,
        fields: Vec::new(),
    };
    let mut depth = 0i64;
    while let Some(tok) = toks.get(j) {
        match punct_of(tok) {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            None if tok.kind == TokKind::Ident && tok.text == "pub" && depth == 1 => {
                // `pub` / `pub(crate)` / `pub(super)` field visibility.
                let mut k = j + 1;
                if is_punct(toks.get(k), '(') {
                    while toks.get(k).is_some() && !is_punct(toks.get(k), ')') {
                        k += 1;
                    }
                    k += 1;
                }
                // Field name: an identifier followed by a single `:`
                // (a `::` here would be a path in an expression).
                if let Some(field) = toks.get(k) {
                    if field.kind == TokKind::Ident
                        && is_punct(toks.get(k + 1), ':')
                        && !is_punct(toks.get(k + 2), ':')
                    {
                        def.fields.push((field.text.clone(), field.line));
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some(def)
}

/// `const NAME: [T; n] = [ Root::Item, … ];` starting at the `const`
/// keyword — the registry-table shape. Consts whose initialiser is not
/// an array literal return `None`.
fn parse_const_array(toks: &[Tok], kw: usize) -> Option<ConstArray> {
    // `*const T` raw-pointer types share the keyword; the `*` gives
    // them away. `const fn` has a keyword, not a name, in position 1.
    if kw > 0 && punct_of(&toks[kw - 1]) == Some('*') {
        return None;
    }
    let name = toks.get(kw + 1)?;
    if name.kind != TokKind::Ident || name.text == "fn" {
        return None;
    }
    if !is_punct(toks.get(kw + 2), ':') || is_punct(toks.get(kw + 3), ':') {
        return None;
    }
    // Scan the type for the `=` at bracket depth 0. `[T; n]` array types
    // nest a `;`, so depth matters; a bare `;`, `,`, `>` or `{` at depth
    // 0 means there is no array initialiser here (plain const, const
    // generic parameter, trait bound).
    let mut j = kw + 3;
    let mut depth = 0i64;
    loop {
        let tok = toks.get(j)?;
        match punct_of(tok) {
            Some('[') | Some('(') => depth += 1,
            Some(']') | Some(')') => depth -= 1,
            Some('=') if depth == 0 => break,
            Some(';') | Some(',') | Some('>') | Some('{') if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if !is_punct(toks.get(j + 1), '[') {
        return None;
    }
    let mut def = ConstArray {
        name: name.text.clone(),
        line: toks[kw].line,
        items: Vec::new(),
    };
    let mut k = j + 1;
    let mut depth = 0i64;
    while let Some(tok) = toks.get(k) {
        match punct_of(tok) {
            Some('[') | Some('(') | Some('{') => depth += 1,
            Some(']') | Some(')') | Some('}') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            None if tok.kind == TokKind::Ident
                && starts_upper(&tok.text)
                && is_punct(toks.get(k + 1), ':')
                && is_punct(toks.get(k + 2), ':')
                && toks.get(k + 3).is_some_and(|t| t.kind == TokKind::Ident) =>
            {
                def.items.push(PathRef {
                    root: tok.text.clone(),
                    name: toks[k + 3].text.clone(),
                    line: tok.line,
                });
                k += 3;
            }
            _ => {}
        }
        k += 1;
    }
    Some(def)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileModel {
        parse_file("crates/core/src/x.rs", &lex(src))
    }

    #[test]
    fn enum_variants_with_payloads_and_attrs() {
        let m = parse(
            "pub enum Kind {\n  #[doc = \"x\"]\n  Plain,\n  Tuple(u32, u64),\n  \
             Struct { a: u32 },\n  Last,\n}\n",
        );
        assert_eq!(m.enums.len(), 1);
        let names: Vec<&str> = m.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["Plain", "Tuple", "Struct", "Last"]);
    }

    #[test]
    fn struct_pub_fields_only() {
        let m = parse(
            "pub struct Cfg {\n  pub width: u32,\n  pub(crate) inner: u64,\n  \
             private: bool,\n  pub nested: Vec<(u32, u32)>,\n}\n",
        );
        assert_eq!(m.structs.len(), 1);
        let names: Vec<&str> = m.structs[0]
            .fields
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["width", "inner", "nested"]);
    }

    #[test]
    fn tuple_and_unit_structs_are_skipped() {
        let m = parse("struct Unit;\nstruct Tuple(u32);\nstruct Real { pub a: u32 }\n");
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].name, "Real");
    }

    #[test]
    fn const_array_items_collected() {
        let m = parse(
            "pub const ALL: [Kind; 2] = [Kind::A, Kind::B];\n\
             pub const N: usize = 3;\nfn f(x: *const u8) {}\n",
        );
        assert_eq!(m.const_arrays.len(), 1);
        assert_eq!(m.const_arrays[0].name, "ALL");
        let items: Vec<&str> = m.const_arrays[0]
            .items
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(items, ["A", "B"]);
    }

    #[test]
    fn csv_headers_and_unit_ops() {
        let m = parse(
            "fn f() {\n  let h = \"tile,cycles\\n\";\n  let not = \"a b c\";\n  \
             let x = total_cycles + row_bytes;\n  let y = a_cycles - b_cycles;\n  \
             let z = lat_ns + self.cfg.dram_cycles;\n}\n",
        );
        assert_eq!(m.csv_headers.len(), 1);
        assert_eq!(m.csv_headers[0].0, "tile,cycles\n");
        let pairs: Vec<(&str, &str)> = m
            .unit_ops
            .iter()
            .map(|u| (u.lhs.as_str(), u.rhs.as_str()))
            .collect();
        assert_eq!(
            pairs,
            [
                ("total_cycles", "row_bytes"),
                ("a_cycles", "b_cycles"),
                ("lat_ns", "dram_cycles")
            ]
        );
    }

    #[test]
    fn path_refs_and_idents_indexed() {
        let m = parse("use crate::x::Kind;\nfn f() { let k = Kind::A; std::mem::drop(k); }\n");
        assert!(m.paths.iter().any(|p| p.root == "Kind" && p.name == "A"));
        // Lowercase roots (module paths) are not reference-graph edges.
        assert!(!m.paths.iter().any(|p| p.root == "std"));
        assert!(m.idents.contains("drop"));
    }

    #[test]
    fn cfg_test_ranges_recorded() {
        let m = parse("fn f() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\n");
        assert_eq!(m.test_ranges.len(), 1);
        assert!(m.in_test_code(4));
        assert!(!m.in_test_code(1));
    }
}
