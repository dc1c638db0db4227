//! Deterministic parser fault injection: a `parse@graph.*` arm must make
//! the parsers fail with a *typed* error at exactly the j-th read — never
//! a panic, never a partial graph.
//!
//! A fault plan is installed on the calling thread only, so the plans
//! installed here cannot leak into the malformed-input corpus tests.

use dvicl_govern::fault::{self, FaultPlan, Site};
use dvicl_govern::{DviclError, ParseErrorKind};
use dvicl_graph::graph6::{from_graph6, to_graph6};
use dvicl_graph::io::read_edge_list;
use dvicl_graph::named;

#[test]
fn injected_parse_faults_are_typed_and_deterministic() {
    let input = "0 1\n1 2\n2 3\n3 4\n4 0\n";

    // Probe: count how many times each parser checkpoint fires on a
    // clean run, so the injection points below are known-reachable.
    fault::install(FaultPlan::default());
    read_edge_list(input.as_bytes()).unwrap();
    let probe = fault::hit_counts();
    fault::clear();
    let edge_lines = probe
        .iter()
        .find(|(site, _)| *site == Site::GraphEdgeLine)
        .map(|&(_, k)| k)
        .unwrap_or(0);
    assert_eq!(edge_lines, 5, "one checkpoint per data line");

    // Inject at every reachable line: the parse always fails with the
    // typed injected error, regardless of which read trips.
    for j in 1..=edge_lines {
        let plan = FaultPlan::parse(&format!("parse@graph.edge_line:{j}")).unwrap();
        fault::install(plan);
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        fault::clear();
        match err {
            DviclError::Parse(p) => {
                assert_eq!(p.kind, ParseErrorKind::Truncated, "injection {j}");
                assert!(p.detail.contains("injected"), "injection {j}: {p:?}");
            }
            other => panic!("injection {j}: expected Parse, got {other}"),
        }
        assert_eq!(err_exit(&read_edge_list(input.as_bytes())), 0); // plan cleared
    }

    // graph6 reads hit their checkpoint once per decode.
    let enc = to_graph6(&named::petersen());
    let plan = FaultPlan::parse("parse@graph.graph6:1").unwrap();
    fault::install(plan);
    let err = from_graph6(&enc).unwrap_err();
    fault::clear();
    assert!(matches!(
        err,
        DviclError::Parse(ref p) if p.kind == ParseErrorKind::Truncated
    ));
    assert_eq!(err.exit_code(), 2);

    // With the plan cleared, both parsers succeed again.
    assert_eq!(read_edge_list(input.as_bytes()).unwrap().graph.m(), 5);
    assert_eq!(from_graph6(&enc).unwrap(), named::petersen());
}

fn err_exit(r: &Result<dvicl_graph::io::LoadedGraph, DviclError>) -> u8 {
    match r {
        Ok(_) => 0,
        Err(e) => e.exit_code(),
    }
}
