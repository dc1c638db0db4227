//! Drives every fixture through the library API: each rule must fire on
//! its tripping sample and stay silent on its clean sample.

use dvicl_lint::lint_source;
use std::path::Path;

/// Reads a fixture and lints it as if it lived at `rel` inside the
/// workspace (rule applicability is path-driven).
#[expect(
    clippy::panic,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn lint_fixture(group: &str, name: &str, rel: &str) -> (Vec<&'static str>, usize) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(group)
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let (findings, suppressed) = lint_source(rel, &src);
    (findings.iter().map(|f| f.rule).collect(), suppressed)
}

/// (fixture dir, rule id, rel path to lint under, findings expected in trip.rs)
const CASES: [(&str, &str, &str, usize); 2] = [
    (
        "budget_reachability",
        "budget-reachability",
        "crates/refine/src/partition.rs",
        3,
    ),
    (
        "error_taxonomy",
        "error-taxonomy",
        "crates/core/src/fixture.rs",
        5,
    ),
];

#[test]
fn every_rule_fires_on_its_tripping_fixture() {
    for (group, rule, rel, expected) in CASES {
        let (rules, _) = lint_fixture(group, "trip.rs", rel);
        let hits = rules.iter().filter(|r| **r == rule).count();
        assert_eq!(
            hits, expected,
            "{group}/trip.rs: expected {expected} `{rule}` findings, got {rules:?}"
        );
    }
}

#[test]
fn every_clean_fixture_is_fully_clean() {
    for (group, rule, rel, _) in CASES {
        let (rules, _) = lint_fixture(group, "clean.rs", rel);
        assert!(
            rules.is_empty(),
            "{group}/clean.rs: expected no findings at all (rule `{rule}`), got {rules:?}"
        );
    }
}

#[test]
fn clean_fixtures_record_their_suppressions() {
    // The budget fixture's clean sample carries one well-formed pragma.
    let (_, suppressed) = lint_fixture(
        "budget_reachability",
        "clean.rs",
        "crates/refine/src/partition.rs",
    );
    assert_eq!(
        suppressed, 1,
        "budget_reachability/clean.rs suppression count"
    );
}

#[test]
fn missing_reason_pragma_is_a_finding_and_suppresses_nothing() {
    let (rules, suppressed) =
        lint_fixture("pragmas", "missing_reason.rs", "crates/core/src/fixture.rs");
    assert_eq!(suppressed, 0);
    assert!(
        rules.contains(&dvicl_lint::PRAGMA_MISSING_REASON),
        "{rules:?}"
    );
    assert!(rules.contains(&"error-taxonomy"), "{rules:?}");
}

#[test]
fn unknown_rule_pragma_is_a_finding() {
    let (rules, _) = lint_fixture("pragmas", "unknown_rule.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules, vec![dvicl_lint::PRAGMA_UNKNOWN_RULE]);
}

#[test]
fn well_formed_pragma_fixture_is_clean() {
    let (rules, suppressed) =
        lint_fixture("pragmas", "suppressed.rs", "crates/core/src/fixture.rs");
    assert!(rules.is_empty(), "{rules:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn budget_fixture_is_inert_outside_governed_crates() {
    // The same tripping source is fine in an ungoverned crate.
    let (rules, _) = lint_fixture("budget_reachability", "trip.rs", "crates/apps/src/other.rs");
    assert!(!rules.contains(&"budget-reachability"), "{rules:?}");
}
