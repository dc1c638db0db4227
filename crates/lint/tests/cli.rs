//! End-to-end tests of the `dvicl-lint` binary: exit codes, the GitHub
//! annotation format, and the zero-findings acceptance gate over the
//! real workspace.

use std::path::{Path, PathBuf};

#[expect(
    clippy::disallowed_types,
    reason = "the binary's end-to-end tests run it as a subprocess"
)]
fn bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_dvicl-lint"))
}

fn fixture(group: &str, name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(group)
        .join(name)
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_is_lint_clean() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace must have zero unsuppressed findings:\n{stdout}"
    );
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn tripping_fixture_exits_nonzero() {
    for (group, rel) in [
        ("budget_reachability", "crates/refine/src/partition.rs"),
        ("error_taxonomy", "crates/core/src/fixture.rs"),
    ] {
        let out = bin()
            .arg("--root")
            .arg(workspace_root())
            .arg("--as")
            .arg(rel)
            .arg(fixture(group, "trip.rs"))
            .output()
            .expect("run dvicl-lint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{group}/trip.rs must exit 1:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn clean_fixture_exits_zero() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--as")
        .arg("crates/core/src/fixture.rs")
        .arg(fixture("error_taxonomy", "clean.rs"))
        .output()
        .expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn list_rules_covers_the_catalog() {
    let out = bin().arg("--list-rules").output().expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    // The three analyzer rules plus the three pragma meta-rules, and
    // nothing else: the retired rules are clippy denials, types or
    // rustc checks now.
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        [
            "error-taxonomy",
            "nested-vec-adjacency",
            "budget-reachability",
            "pragma-missing-reason",
            "pragma-unknown-rule",
            "pragma-unused",
        ],
        "{stdout}"
    );
}

#[test]
fn github_format_emits_error_annotations() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--as")
        .arg("crates/core/src/fixture.rs")
        .arg("--format")
        .arg("github")
        .arg(fixture("error_taxonomy", "trip.rs"))
        .output()
        .expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout.contains("::error file=crates/core/src/fixture.rs,line="),
        "{stdout}"
    );
    assert!(stdout.contains("title=error-taxonomy::"), "{stdout}");
    assert!(stdout.contains("::notice title=dvicl-lint::"), "{stdout}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = bin().arg("--frobnicate").output().expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn as_takes_exactly_one_file() {
    // Findings name their file by the `--as` path: two files under it
    // could not be told apart in the report.
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--as")
        .arg("crates/core/src/fixture.rs")
        .arg(fixture("pragmas", "suppressed.rs"))
        .arg(fixture("error_taxonomy", "trip.rs"))
        .output()
        .expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unreadable_file_exits_two() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("does/not/exist.rs")
        .output()
        .expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(2));
}
