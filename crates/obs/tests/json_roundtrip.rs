//! The run report must write valid JSON: one complete JSON object on
//! one line, parseable without serde by the test-only reader in
//! `support/json_reader.rs`.

#[path = "support/json_reader.rs"]
mod json_reader;

use dvicl_obs::{self as obs, Counter, JsonObj, Phase, Report};
use json_reader::{obj, parse, J};

#[test]
fn report_writes_one_summary_line_with_the_error() {
    let path = std::env::temp_dir().join(format!("dvicl-obs-report-{}.json", std::process::id()));
    let report = Report::open(false, Some(&path)).expect("trace file opens");
    obs::bump(Counter::SearchNodes);
    {
        let _span = obs::span(Phase::CanonSearch);
    }
    let nodes = obs::get(Counter::SearchNodes);
    let error = "budget exceeded: deadline \"2s\"\nsecond line";
    report.write(Some(error));
    let text = std::fs::read_to_string(&path).expect("trace file reads back");
    std::fs::remove_file(&path).ok();

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one summary line: {text:?}");
    let line = parse(lines[0]).expect("summary line parses");
    let line = obj(&line);
    assert_eq!(line.get("type"), Some(&J::Str("summary".into())));
    assert_eq!(line.get("error"), Some(&J::Str(error.into())));
    let inner = obj(line.get("summary").expect("summary"));
    let counters = obj(inner.get("counters").expect("counters"));
    assert_eq!(counters.get("search_nodes"), Some(&J::Num(nodes as f64)));
    match inner.get("phases") {
        Some(J::Arr(rows)) => {
            let row = rows
                .iter()
                .map(obj)
                .find(|r| r.get("label") == Some(&J::Str("canon.search".into())))
                .expect("the span's row");
            assert_eq!(row.get("calls"), Some(&J::Num(1.0)));
        }
        other => panic!("expected phases array, got {other:?}"),
    }
}

#[test]
fn writer_output_is_valid_json_for_tricky_strings() {
    let tricky = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{00e9}";
    let line = JsonObj::new().str("k", tricky).finish();
    let parsed = parse(&line).expect("parses");
    assert_eq!(obj(&parsed).get("k"), Some(&J::Str(tricky.into())));
}
