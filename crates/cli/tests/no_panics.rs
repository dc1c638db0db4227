//! Guard: the workspace invariants only a project analyzer can check
//! (budget reachability, the hot-path shared-state screen, error
//! taxonomy, offline guard, CSR-only adjacency, narrowing casts) hold
//! everywhere. Panicking calls on input-reachable paths are not this
//! test's job: `unwrap`, `expect`, `panic!` and `unreachable!` are
//! workspace clippy denials, audited by `#[expect(clippy::…, reason)]`.
//! This test drives the `dvicl-lint` library API over the whole
//! workspace and requires zero unsuppressed findings.

use std::path::Path;

#[test]
fn workspace_passes_dvicl_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dvicl_lint::lint_workspace(&root)
        .unwrap_or_else(|e| panic!("dvicl-lint failed to run: {e}"));
    assert!(report.files_scanned > 0, "linter scanned no files");
    assert!(
        report.is_clean(),
        "dvicl-lint found unsuppressed findings:\n{}",
        report.human()
    );
}
