//! The hot-loop allocation scan, shared by `tests/static_checks.rs`
//! (which runs it over the real tree) and `crates/nvr/tests/engine.rs`
//! (which runs it over fixtures), plus the source-walking helpers it
//! is built from.
//!
//! A `for`/`while`/`loop` body inside a hot function of `crates/core` or
//! `crates/mem` (outside `#[cfg(test)]`) must not allocate: a
//! per-iteration allocation multiplies every sweep's wall clock. Hoist
//! the buffer out of the loop and reuse it.

use std::collections::BTreeMap;

/// Name fragments of the simulator's per-cycle entry points.
const HOT_FN_MARKERS: [&str; 7] = [
    "tick", "advance", "step", "issue", "probe", "install", "progress",
];

/// Allocating method calls, as matched and as reported.
const ALLOC_METHODS: [(&str, &str); 5] = [
    (".to_vec(", ".to_vec()"),
    (".to_string(", ".to_string()"),
    (".to_owned(", ".to_owned()"),
    (".collect(", ".collect()"),
    (".collect::", ".collect()"),
];

/// What one scan examined and found.
#[derive(Debug, Default)]
pub struct HotLoopScan {
    /// Hot functions with a body, outside `#[cfg(test)]`.
    pub hot_fns: usize,
    /// Loop bodies inside those functions.
    pub loops: usize,
    /// One `path:line: `expr`` entry per allocation site, in line order.
    pub sites: Vec<String>,
}

/// Scans one source file at the root-relative `path`; files outside
/// `crates/core` and `crates/mem` are out of scope and scan empty.
pub fn hot_loop_allocations(path: &str, src: &str) -> HotLoopScan {
    let mut scan = HotLoopScan::default();
    if !["crates/core/", "crates/mem/"]
        .iter()
        .any(|d| path.starts_with(d))
    {
        return scan;
    }
    let ctors = ["Vec", "String", "Box"]
        .iter()
        .flat_map(|ty| ["new", "from", "with_capacity"].map(|ctor| format!("{ty}::{ctor}")));
    let allocs: Vec<String> = ctors.chain(["vec!".into(), "format!".into()]).collect();
    let src = strip_comments(src);
    let tests: Vec<_> = src
        .match_indices("#[cfg(test)]")
        .filter_map(|(i, _)| block(&src, i))
        .collect();
    for at in word_offsets(&src, "fn") {
        let name: String = src[at + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        let in_test = tests.iter().any(|&(a, b)| (a..=b).contains(&at));
        let hot = HOT_FN_MARKERS.iter().any(|m| name.contains(m));
        let Some((body, end)) = block(&src, at).filter(|_| hot && !in_test) else {
            continue;
        };
        scan.hot_fns += 1;
        let mut flagged = BTreeMap::new();
        for kw in ["for", "while", "loop"] {
            for k in word_offsets(&src[..end], kw).filter(|&k| k > body) {
                let Some((open, close)) = block(&src[..end], k) else {
                    continue;
                };
                scan.loops += 1;
                let lp = &src[open..close];
                let ctors = allocs
                    .iter()
                    .flat_map(|a| word_offsets(lp, a).map(move |i| (i, a.as_str())));
                let calls = ALLOC_METHODS
                    .iter()
                    .flat_map(|&(m, shown)| lp.match_indices(m).map(move |(i, _)| (i, shown)));
                flagged.extend(ctors.chain(calls).map(|(i, what)| (open + i, what)));
            }
        }
        scan.sites.extend(
            flagged
                .into_iter()
                .map(|(i, what)| format!("{path}:{}: `{what}`", line_of(&src, i))),
        );
    }
    scan
}

/// The source with `//` comments removed, lines kept in place.
pub fn strip_comments(src: &str) -> String {
    let lines: Vec<&str> = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect();
    lines.join("\n")
}

pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Offsets at which `word` occurs as a whole identifier.
fn word_offsets<'a>(src: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    src.match_indices(word).map(|(i, _)| i).filter(move |&i| {
        !src[..i].ends_with(is_ident_char) && !src[i + word.len()..].starts_with(is_ident_char)
    })
}

/// The `{ ... }` block opening at the first `{` at or after `from`, as
/// offsets of its braces; `None` when a `;` comes first (a bodiless item).
pub fn block(src: &str, from: usize) -> Option<(usize, usize)> {
    let open = from + src[from..].find(['{', ';'])?;
    let mut depth = 0;
    for (i, c) in src[open..].char_indices() {
        match c {
            ';' if depth == 0 => return None,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, open + i));
                }
            }
            _ => {}
        }
    }
    None
}

fn line_of(src: &str, offset: usize) -> usize {
    src[..offset].lines().count().max(1)
}
