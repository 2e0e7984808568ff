//! The self-test: the real workspace must lint clean. This is the same
//! invariant the CI `nvr-lint` job gates on — failing here means a
//! registry, config, CSV, unit or hot-loop hazard landed in the tree.

use std::path::Path;

use nvr_lint::{find_workspace_root, lint_workspace};

#[test]
fn real_workspace_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace readable");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree (12 crates + root tests
    // and examples), not an empty directory.
    assert!(
        report.files_checked > 100,
        "only {} files checked — walker lost the tree?",
        report.files_checked
    );
    // The semantic pass ran over a populated model: the real tree defines
    // the three registry enums (SystemKind, WorkloadId, FigureId), the
    // config structs and the sweep CSV writers. All
    // zeros would mean pass 2 silently saw an empty workspace.
    let s = report.model_stats;
    assert_eq!(s.files, report.files_checked, "every file is modelled");
    assert!(s.enums >= 3, "registry enums missing from the model: {s:?}");
    assert!(
        s.variants >= 15,
        "enum variants missing from the model: {s:?}"
    );
    assert!(
        s.structs >= 5,
        "config structs missing from the model: {s:?}"
    );
    assert!(s.fields >= 10, "pub fields missing from the model: {s:?}");
    assert!(
        s.csv_headers >= 1,
        "sweep CSV writers missing from the model: {s:?}"
    );
}
