//! Malformed-input corpus: every parser entry point must return a typed
//! `Err` — never panic — on hostile or truncated input, and the error
//! variant must say *what* went wrong.

use dvicl_govern::{DviclError, ParseErrorKind};
use dvicl_graph::graph6::from_graph6;
use dvicl_graph::io::read_edge_list;

#[expect(
    clippy::panic,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn parse_kind(err: DviclError) -> ParseErrorKind {
    match err {
        DviclError::Parse(p) => p.kind,
        other => panic!("expected a parse error, got {other}"),
    }
}

// -------------------------------------------------------------------
// Edge lists
// -------------------------------------------------------------------

#[test]
fn edge_list_truncated_lines() {
    for input in ["7\n", "0 1\n2\n", "  5  \n"] {
        assert!(
            matches!(
                parse_kind(read_edge_list(input.as_bytes()).unwrap_err()),
                ParseErrorKind::TruncatedLine
            ),
            "input {input:?}"
        );
    }
}

#[test]
fn edge_list_non_numeric_tokens() {
    for input in ["a b\n", "1 x\n", "0 1\n2 -3\n", "0 1e3\n", "0x10 3\n"] {
        assert!(
            matches!(
                parse_kind(read_edge_list(input.as_bytes()).unwrap_err()),
                ParseErrorKind::NonNumeric
            ),
            "input {input:?}"
        );
    }
}

#[test]
fn edge_list_u64_overflow_ids() {
    // u64::MAX is 18446744073709551615; one digit more overflows.
    let input = "0 184467440737095516159\n";
    assert!(matches!(
        parse_kind(read_edge_list(input.as_bytes()).unwrap_err()),
        ParseErrorKind::Overflow
    ));
    // u64::MAX itself is a *valid* id (ids are compacted, not allocated).
    let ok = read_edge_list("0 18446744073709551615\n".as_bytes()).unwrap();
    assert_eq!(ok.graph.n(), 2);
}

#[test]
fn edge_list_crlf_line_endings_parse_cleanly() {
    // Windows-style CRLF: `lines()` strips `\n`, our `trim()` strips the
    // stray `\r`, so the parse must agree byte-for-byte with the LF file.
    let crlf = "# header\r\n10 20\r\n20 30\r\n\r\n30 10\r\n";
    let lf = "# header\n10 20\n20 30\n\n30 10\n";
    let a = read_edge_list(crlf.as_bytes()).unwrap();
    let b = read_edge_list(lf.as_bytes()).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.original_ids, b.original_ids);
    assert_eq!(a.graph.m(), 3);
}

#[test]
fn edge_list_duplicate_and_reversed_edges_collapse() {
    // Duplicate edges — including reversed duplicates and interleaved
    // self-loops — are preprocessing noise, not errors: the loaded graph
    // is simple and undirected.
    let input = "0 1\n1 0\n0 1\n2 2\n1 2\n2 1\n";
    let loaded = read_edge_list(input.as_bytes()).unwrap();
    assert_eq!(loaded.graph.n(), 3);
    assert_eq!(loaded.graph.m(), 2); // {0,1} and {1,2}; self-loop dropped
    assert!(loaded.graph.has_edge(0, 1));
    assert!(loaded.graph.has_edge(1, 2));
}

#[test]
fn edge_list_empty_inputs() {
    for input in ["", "\n", "# header only\n", "% comment\n\n# more\n"] {
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        assert!(
            matches!(parse_kind(err), ParseErrorKind::Empty),
            "input {input:?}"
        );
    }
}

#[test]
fn edge_list_errors_report_the_line() {
    let err = read_edge_list("0 1\n1 2\nbroken\n".as_bytes()).unwrap_err();
    match err {
        DviclError::Parse(p) => assert_eq!(p.line, Some(3)),
        other => panic!("unexpected {other}"),
    }
}

// -------------------------------------------------------------------
// graph6
// -------------------------------------------------------------------

#[test]
fn graph6_empty_input() {
    for input in ["", "\n", "  \n"] {
        // trim_end removes trailing whitespace, so these are all empty.
        assert!(matches!(
            parse_kind(from_graph6(input).unwrap_err()),
            ParseErrorKind::Empty | ParseErrorKind::BadByte(_)
        ));
    }
}

#[test]
fn graph6_truncated_payloads() {
    // Headers that promise more adjacency bytes than follow.
    for input in ["C", "D?", "~??", "~~?????"] {
        assert!(
            matches!(
                parse_kind(from_graph6(input).unwrap_err()),
                ParseErrorKind::Truncated
            ),
            "input {input:?}"
        );
    }
}

#[test]
fn graph6_oversized_headers_fail_fast() {
    use std::time::Instant;
    // Each declares an astronomically large n with (at most) a few bytes
    // of payload. The decoder must reject without allocating for n.
    let bombs = ["~~~~~~~~", "~~zzzzzz", "~zzz"];
    let t0 = Instant::now();
    for bomb in bombs {
        let kind = parse_kind(from_graph6(bomb).unwrap_err());
        assert!(
            matches!(kind, ParseErrorKind::TooLarge | ParseErrorKind::Truncated),
            "input {bomb:?} gave {kind:?}"
        );
    }
    assert!(
        t0.elapsed().as_millis() < 1000,
        "header bombs must be rejected in microseconds, not by OOM"
    );
}

#[test]
fn graph6_bad_bytes() {
    for input in ["C\u{7}", "\u{1}", "D\x20?"] {
        assert!(
            matches!(
                parse_kind(from_graph6(input).unwrap_err()),
                ParseErrorKind::BadByte(_)
            ),
            "input {input:?}"
        );
    }
}

#[test]
fn graph6_trailing_data() {
    assert!(matches!(
        parse_kind(from_graph6("C~~").unwrap_err()),
        ParseErrorKind::TrailingData
    ));
}

#[test]
fn parse_errors_map_to_exit_code_2() {
    let err = read_edge_list("nope\n".as_bytes()).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert_ne!(err.exit_code(), 3);
    let err = from_graph6("C").unwrap_err();
    assert_eq!(err.exit_code(), 2);
}
