//! Repository invariants that no rustc or clippy lint can see, checked
//! by reading the sources and docs with `std::fs`:
//!
//! - no per-iteration allocation in the hot loops of `nvr_core`/`nvr_mem`;
//! - every config knob is read outside the file that defines it;
//! - every CSV column the docs name exists in a writer's header.
//!
//! Each check asserts a floor on what it examined, so a moved path fails
//! instead of passing vacuously. The toolchain configuration that carries
//! the determinism, panic, cast and wildcard-arm bans is guarded by
//! `crates/nvr/tests/toolchain_lints.rs`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use nvr::prelude::*;
use nvr::sim::figures::fig9;

mod hot_loop_scan;
use hot_loop_scan::{block, hot_loop_allocations, is_ident_char, strip_comments};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root above crates/nvr")
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// Every `.rs` file under the root-relative `dir`, as (root-relative
/// path, source) pairs in path order.
fn rust_sources(dir: &str) -> Vec<(String, String)> {
    let root = root();
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for path in entries.flatten().map(|e| e.path()) {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path.strip_prefix(&root).expect("under root");
                let src = fs::read_to_string(&path).expect("readable source");
                out.push((rel.display().to_string(), src));
            }
        }
    }
    out.sort();
    out
}

/// No hot loop of `crates/core` or `crates/mem` allocates per iteration
/// (see `hot_loop_scan.rs` for the rule's scope and vocabulary).
#[test]
fn hot_loops_in_core_and_mem_do_not_allocate() {
    let (mut hot_fns, mut loops, mut sites) = (0, 0, Vec::new());
    for (path, src) in [rust_sources("crates/core"), rust_sources("crates/mem")].concat() {
        let scan = hot_loop_allocations(&path, &src);
        hot_fns += scan.hot_fns;
        loops += scan.loops;
        sites.extend(scan.sites);
    }
    assert!(
        hot_fns >= 8 && loops >= 4,
        "scanned {hot_fns} hot fns, {loops} loops"
    );
    assert!(
        sites.is_empty(),
        "allocation inside a hot loop at {sites:?}"
    );
}

/// Config structs whose knobs must be read by the model.
const CONFIG_STRUCTS: [&str; 5] = [
    "NvrConfig",
    "CacheConfig",
    "DramConfig",
    "MemoryConfig",
    "NpuConfig",
];

/// Every `pub` field of a config struct is read (`.field`) in some file
/// under `crates/` other than the struct's own; otherwise sweeps can vary
/// a knob and plots caption it while the model ignores it.
#[test]
fn every_config_knob_is_read_outside_its_defining_file() {
    let sources: Vec<(String, String)> = rust_sources("crates")
        .into_iter()
        .map(|(path, src)| (path, strip_comments(&src)))
        .collect();
    for name in CONFIG_STRUCTS {
        let header = format!("pub struct {name} {{");
        let defs: Vec<_> = sources
            .iter()
            .filter(|(_, s)| s.contains(&header))
            .collect();
        assert_eq!(defs.len(), 1, "`{header}` defined in {} files", defs.len());
        let (def_path, src) = defs[0];
        let (open, close) = block(src, src.find(&header).expect("found")).expect("struct body");
        let fields: Vec<&str> = src[open + 1..close]
            .lines()
            .filter_map(|l| l.trim().strip_prefix("pub ")?.split_once(':'))
            .map(|(field, _)| field.trim())
            .collect();
        assert!(!fields.is_empty(), "{name} has no pub fields");
        for field in fields {
            let read = format!(".{field}");
            let is_read = |s: &String| {
                s.match_indices(&read)
                    .any(|(i, _)| !s[i + read.len()..].starts_with(is_ident_char))
            };
            assert!(
                sources.iter().any(|(p, s)| p != def_path && is_read(s)),
                "config knob `{name}::{field}` is never read outside {def_path}"
            );
        }
    }
}

fn is_snake_case(s: &str) -> bool {
    !s.is_empty()
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Backticked column lists in README and ARCHITECTURE must be subsets of
/// a real CSV header, and a lone backticked snake_case name with an
/// underscore must be a CSV column, a package or an identifier of the
/// source tree: a column or function renamed in code only fails here.
#[test]
fn documented_csv_columns_exist_in_a_writer_header() {
    let spec = SweepSpec {
        workloads: vec![WorkloadId::Ds],
        systems: vec![SystemKind::InOrder],
        scales: vec![Scale::Tiny],
        seeds: vec![1],
        ..SweepSpec::default()
    };
    let csvs = [run_sweep(&spec, 1).to_csv(), fig9::policy_csv(&[])];
    let headers: Vec<Vec<&str>> = csvs
        .iter()
        .map(|csv| csv.lines().next().expect("header").split(',').collect())
        .collect();
    let crates = fs::read_dir(root().join("crates")).expect("crates/ dir");
    let manifests = crates
        .flatten()
        .filter_map(|e| fs::read_to_string(e.path().join("Cargo.toml")).ok());
    let idents: BTreeSet<String> = ["crates", "tests", "examples"]
        .into_iter()
        .flat_map(rust_sources)
        .map(|(_, src)| src)
        .chain(manifests)
        .flat_map(|src| {
            src.split(|c| !is_ident_char(c))
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .collect();
    let (mut lists, mut names) = (0, 0);
    for doc in ["README.md", "docs/ARCHITECTURE.md"] {
        let text = read(doc);
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            let spans = line.split('`').skip(1).step_by(2).filter(|_| !fenced);
            for span in spans {
                let cols: Vec<&str> = span.split(',').map(str::trim).collect();
                if !cols.iter().all(|c| is_snake_case(c)) {
                    continue;
                }
                let at = format!("{doc}:{}: `{span}`", n + 1);
                if cols.len() > 1 {
                    lists += 1;
                    let known = headers.iter().any(|h| cols.iter().all(|c| h.contains(c)));
                    assert!(known, "{at} is not a subset of any CSV header");
                } else if span.contains('_') {
                    names += 1;
                    // CSV columns are words of the writers' header literals.
                    assert!(
                        idents.contains(span),
                        "{at} names no CSV column or source identifier"
                    );
                }
            }
        }
    }
    assert!(
        lists >= 4 && names >= 20,
        "checked {lists} lists, {names} names"
    );
}
