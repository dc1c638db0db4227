//! End-to-end tests of the `dvicl` binary.

#[path = "../../obs/tests/support/json_reader.rs"]
mod json_reader;

use json_reader::{obj, parse, J};
use std::io::Write;
use std::process::Stdio;

/// The `dvicl` binary under test, ready for arguments.
#[expect(
    clippy::disallowed_types,
    reason = "the CLI's end-to-end tests run the binary as a subprocess"
)]
fn bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_dvicl"))
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn dvicl(args: &[&str]) -> (String, String, bool) {
    let out = bin().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn canon_on_inline_graph6() {
    let (stdout, _, ok) = dvicl(&["canon", "g6:C~"]); // K4
    assert!(ok);
    assert!(stdout.contains("n: 4  m: 6"));
    assert!(stdout.contains("certificate (canonical graph6): C~"));
}

#[test]
fn aut_of_petersen() {
    // Published graph6 string of the Petersen graph.
    let (stdout, _, ok) = dvicl(&["aut", "g6:IheA@GUAo"]);
    assert!(ok);
    assert!(stdout.contains("|Aut(G)| = 120"));
    assert!(stdout.contains("orbits: 1 (0 singletons)"));
}

#[test]
fn iso_distinguishes() {
    // C6 vs K3,3-prism style pair via inline literals: encode with the
    // library first.
    use dvicl_graph::{graph6, named};
    let c6 = format!("g6:{}", graph6::to_graph6(&named::cycle(6)));
    let two_tri = format!(
        "g6:{}",
        graph6::to_graph6(&named::cycle(3).disjoint_union(&named::cycle(3)))
    );
    let (stdout, _, ok) = dvicl(&["iso", &c6, &two_tri]);
    assert!(ok);
    assert!(stdout.contains("isomorphic: no"));
    let (stdout, _, _) = dvicl(&["iso", &c6, &c6]);
    assert!(stdout.contains("isomorphic: yes"));
    assert!(stdout.contains("mapping: "));
}

#[test]
fn tree_stats_and_render() {
    use dvicl_graph::{graph6, named};
    let fig1 = format!("g6:{}", graph6::to_graph6(&named::fig1_example()));
    let (stdout, _, ok) = dvicl(&["tree", &fig1, "--render"]);
    assert!(ok);
    assert!(stdout.contains("nodes: 7"));
    assert!(stdout.contains("non-singleton leaves: 1"));
}

#[test]
fn ssm_counts() {
    use dvicl_graph::{graph6, named};
    let fig1 = format!("g6:{}", graph6::to_graph6(&named::fig1_example()));
    let (stdout, _, ok) = dvicl(&["ssm", &fig1, "4"]);
    assert!(ok);
    assert!(stdout.contains("images under Aut(G): 3"));
}

#[test]
fn regular_plane_queries_finish_under_a_deadline() {
    // AG(2, 11)'s point-line incidence graph (121 points, 132 lines), the
    // smallest AG(2, q) that a bliss-like labeling cannot finish in 10 s.
    // `iso` must label with the CLI's traces-like preset and `ssm` must
    // answer from the leaf labeling the build stored; then each takes
    // milliseconds.
    use dvicl_graph::{graph6, Perm};
    let g = dvicl_data::bench_graphs::ag2(11);
    let n = g.vertices().end;
    // v -> 7v + 3 (mod 253) is a bijection: gcd(7, 253) = 1.
    let gamma = Perm::from_image((0..n).map(|v| (7 * v + 3) % n).collect()).unwrap();
    let a = format!("g6:{}", graph6::to_graph6(&g));
    let b = format!("g6:{}", graph6::to_graph6(&g.permuted(&gamma)));
    let (stdout, stderr, ok) = dvicl(&["--timeout", "10s", "iso", &a, &b]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("isomorphic: yes"), "{stdout}");
    let (stdout, stderr, ok) = dvicl(&["--timeout", "10s", "ssm", &a, "0"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("images under Aut(G): 121"), "{stdout}");
}

#[test]
fn reads_edge_list_from_stdin() {
    let mut child = bin()
        .args(["canon", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"# triangle\n0 1\n1 2\n2 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("n: 3  m: 3"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (_, stderr, ok) = dvicl(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn one_shot_subcommands_reject_stray_tokens() {
    // A mistyped flag, a bad flag value or a surplus argument is a usage
    // error naming the token, never a silent run.
    let cases: [(&[&str], &str); 10] = [
        (&["canon", "g6:IheA@GUAo", "--paranoia"], "`--paranoia`"),
        (&["tree", "g6:IheA@GUAo", "--rendr"], "`--rendr`"),
        (&["ssm", "g6:IheA@GUAo", "0", "--limit", "abc"], "\"abc\""),
        (&["canon", "g6:IheA@GUAo", "extra"], "`extra`"),
        (&["canon", "--stat", "g6:IheA@GUAo"], "`--stat`"),
        (&["canon", "g6:IheA@GUAo", "--threads", "4"], "`--threads`"),
        // There is no fault injection: a work cap trips a build at any
        // point through the production path.
        (
            &[
                "canon",
                "--fault-plan",
                "trip@core.build_node:1",
                "g6:IheA@GUAo",
            ],
            "`--fault-plan`",
        ),
        // There is no target-cell override: every query is labeled
        // under the one configuration the CLI builds with.
        (
            &["batch", "--index", "a.dvix", "--target-cell", "smallest"],
            "`--target-cell`",
        ),
        // The global limits are each request's budget; there are no
        // per-request flags.
        (&["batch", "--req-max-nodes", "40"], "`--req-max-nodes`"),
        (&["serve", "--req-timeout", "1s"], "`--req-timeout`"),
    ];
    for (args, token) in cases {
        let out = bin().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        assert!(
            stderr.contains(token),
            "{args:?} must name {token}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn dataset_emits_edge_list() {
    let (stdout, _, ok) = dvicl(&["dataset", "wikivote"]);
    assert!(ok);
    assert!(stdout.starts_with("# nodes:"));
    let (_, stderr, ok) = dvicl(&["dataset", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dataset"));
}

#[test]
fn convert_roundtrip() {
    let (g6line, _, ok) = dvicl(&["convert", "g6:IheA@GUAo"]);
    assert!(ok);
    // Converting an inline graph6 yields an edge list...
    assert!(g6line.contains("# nodes: 10 edges: 15"));
}

#[test]
fn second_stdin_read_is_a_clear_error() {
    // `iso - -` used to silently read an empty second graph; now the
    // second `-` must fail with a typed message and exit code 2.
    let mut child = bin()
        .args(["iso", "-", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"0 1\n1 2\n2 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stdin") && stderr.contains("already consumed"),
        "stderr must explain the double stdin read, got: {stderr}"
    );
}

#[test]
fn timeout_exits_3_within_twice_the_deadline() {
    use std::time::{Duration, Instant};
    // A CFI instance over a cubic circulant: hard enough that the
    // unbudgeted run takes 2.9-3.4 s in release (5.6-5.8 s before the
    // search kept its non-singleton cells; a shared 2-vCPU x86-64 host)
    // and longer in debug, so a 300 ms deadline fires mid-search under
    // either profile. Written as an edge list: its graph6 is 12 MB.
    let base = dvicl_data::bench_graphs::cubic_circulant(1200);
    let hard = dvicl_data::bench_graphs::cfi(&base, false);
    let path = std::env::temp_dir().join(format!("dvicl-hard-{}.edges", std::process::id()));
    let file = std::fs::File::create(&path).unwrap();
    dvicl_graph::io::write_edge_list(file, &hard).unwrap();
    let t0 = Instant::now();
    let out = bin()
        .args(["canon", "--timeout", "300ms", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let elapsed = t0.elapsed();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(3), "budget exhaustion must exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exceeded"), "got: {stderr}");
    assert!(
        elapsed < Duration::from_millis(600),
        "a 300 ms deadline must abort within ~2x, took {elapsed:?}"
    );
}

#[test]
fn max_nodes_caps_every_subcommand() {
    // A work cap far too small for Petersen's build: every one-shot
    // subcommand that builds must stop with exit 3, name the exhausted
    // resource, and print no result.
    let petersen = "g6:IheA@GUAo";
    let runs: [&[&str]; 7] = [
        &["canon", petersen],
        &["aut", petersen],
        &["iso", petersen, petersen],
        &["tree", petersen],
        &["ssm", petersen, "0"],
        &["ksym", petersen, "2"],
        &["quotient", petersen],
    ];
    for args in runs {
        let out = bin()
            .args(["--max-nodes", "2"])
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(stderr.contains("work units"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn rendering_the_group_order_spends_the_budget() {
    // A 2 000-leaf star: the build and the group order spend 6 007 work
    // units, and printing |Aut| = 2000! (5 736 digits) spends 638 more,
    // one per nine digits. A cap between the two must stop the render,
    // with nothing printed.
    let star = TempPath::new("star");
    let edges: String = (1..=2000).map(|i| format!("0 {i}\n")).collect();
    std::fs::write(&star.0, edges).unwrap();
    let out = bin()
        .args(["--max-nodes", "6300", "aut", star.as_str()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("work units"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed a result");
}

#[test]
fn ssm_limit_returns_a_prefix_of_a_leaf_orbit() {
    // Petersen is one non-singleton leaf, and a non-edge has 30 images:
    // the default limit returns the first 20 of them.
    let (stdout, stderr, ok) = dvicl(&["ssm", "g6:IheA@GUAo", "0,2"]);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "images under Aut(G): 30");
    assert_eq!(lines[1], "first 20 matches:");
    assert_eq!(lines.len(), 22, "{stdout}");
    assert!(lines[2..].iter().all(|l| l.starts_with("  [")));
}

#[test]
fn malformed_input_exits_2() {
    let (_, stderr, _) = dvicl(&["canon", "g6:C"]); // truncated graph6
    let out = bin().args(["canon", "g6:C"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("parse error"), "got: {stderr}");
    // Bad flag values are input errors too.
    let out = bin()
        .args(["canon", "--timeout", "banana", "g6:C~"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn paranoid_verifies_results() {
    // Witness checks pass on healthy runs and say so on stderr.
    let (stdout, stderr, ok) = dvicl(&["canon", "--paranoid", "g6:IheA@GUAo"]);
    assert!(ok, "paranoid canon failed: {stderr}");
    assert!(stdout.contains("certificate (canonical graph6):"));
    assert!(
        stderr.contains("paranoid: tree witness checks passed"),
        "got: {stderr}"
    );

    let (stdout, stderr, ok) = dvicl(&["iso", "--paranoid", "g6:IheA@GUAo", "g6:IheA@GUAo"]);
    assert!(ok, "paranoid iso failed: {stderr}");
    assert!(stdout.contains("isomorphic: yes"));
    assert!(
        stderr.contains("paranoid: iso mapping witness checks passed"),
        "got: {stderr}"
    );
}

#[test]
fn quotient_of_petersen_collapses() {
    let (stdout, _, ok) = dvicl(&["quotient", "g6:IheA@GUAo"]);
    assert!(ok);
    assert!(stdout.contains("quotient: n = 1, m = 0"));
    assert!(stdout.contains("entropy = 0.0000"));
}

/// Runs the binary with `input` piped to stdin; returns stdout, stderr
/// and the exit code.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn dvicl_stdin(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // A process that fails before reading stdin (e.g. an unusable
    // --index file) closes the pipe early; that is the scenario under
    // test, not a harness error.
    let _ = child.stdin.as_mut().unwrap().write_all(input.as_bytes());
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// A scratch path that is removed when the value drops.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!("dvicl-cli-{tag}-{}", std::process::id())))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "test helper: a panic here fails the calling test, which is the intent"
    )]
    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn batch_protocol_answers_inserts_and_lookups() {
    // Petersen twice (one g6:, one as an inline edge list of the
    // isomorphic Kneser construction is overkill — relabeled g6 works),
    // a pentagon, and queries against both.
    let queries = "\
# corpus
insert g6:IheA@GUAo
insert el:0-1,1-2,2-3,3-4,4-0

lookup el:1-2,2-3,3-4,4-5,5-1
insert g6:IheA@GUAo
groupsize g6:IheA@GUAo
lookup el:0-1
";
    let (stdout, stderr, code) = dvicl_stdin(&["batch"], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        [
            "insert: class=0 members=1 fresh",
            "insert: class=1 members=1 fresh",
            "lookup: class=1 members=1",
            "insert: class=0 members=2 known",
            "groupsize: 2",
            "lookup: not-indexed",
        ],
        "stdout: {stdout}"
    );
    assert!(
        stderr.contains("served 6 requests (0 errors); index: 2 classes, 3 members"),
        "stderr: {stderr}"
    );
}

#[test]
fn batch_request_errors_stay_inline() {
    // Malformed specs and unknown commands answer `error:` lines and
    // the stream keeps going with exit 0.
    let queries = "\
insert el:0-x
frobnicate g6:C~
insert nope
insert g6:C~ extra
lookup g6:C~
";
    let (stdout, stderr, code) = dvicl_stdin(&["batch"], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "stdout: {stdout}");
    for line in &lines[..4] {
        assert!(line.starts_with("error: "), "got: {line}");
    }
    assert_eq!(lines[4], "lookup: not-indexed");
    assert!(stderr.contains("(4 errors)"), "stderr: {stderr}");
}

#[test]
fn batch_per_request_budget_trips_inline() {
    // Forty work units cannot canonicalize Petersen, but the tripped
    // request must not take the service down: the pentagon after it
    // gets a fresh forty and a real answer.
    let queries = "\
insert g6:IheA@GUAo
insert el:0-1,1-2,2-3,3-4,4-0
";
    let (stdout, stderr, code) = dvicl_stdin(&["--max-nodes", "40", "batch"], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout: {stdout}");
    assert!(
        lines[0].starts_with("error: ") && lines[0].contains("budget"),
        "got: {}",
        lines[0]
    );
    assert_eq!(lines[1], "insert: class=0 members=1 fresh");
}

#[test]
fn batch_and_serve_run_each_request_under_the_global_limits() {
    // The global work cap is every request's own budget: Petersen trips
    // it inline, and the service still exits 0.
    for (cmd, input) in [
        ("batch", "insert g6:IheA@GUAo\n"),
        ("serve", "insert g6:IheA@GUAo\nquit\n"),
    ] {
        let (stdout, stderr, code) = dvicl_stdin(&["--max-nodes", "2", cmd], input);
        assert_eq!(code, Some(0), "{cmd}: {stderr}");
        assert!(
            stdout.starts_with("error: budget exceeded"),
            "{cmd}: {stdout}"
        );
        assert!(stderr.contains("(1 errors)"), "{cmd}: {stderr}");
    }
}

#[test]
fn batch_saves_an_index_that_serve_reloads() {
    let path = TempPath::new("roundtrip");
    let (_, stderr, code) = dvicl_stdin(
        &["batch", "--save", path.as_str()],
        "insert g6:IheA@GUAo\ninsert g6:IheA@GUAo\ninsert el:0-1,1-2,2-0\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    // `serve` flushes per response and stops at `quit`; --paranoid makes
    // the load re-derive every stored fingerprint.
    let (stdout, stderr, code) = dvicl_stdin(
        &["serve", "--index", path.as_str(), "--paranoid"],
        "groupsize g6:IheA@GUAo\nlookup el:0-1,1-2,2-0\nquit\nlookup g6:C~\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        ["groupsize: 2", "lookup: class=1 members=1"],
        "lines after quit must not be answered; stdout: {stdout}"
    );
}

#[test]
fn batch_rejects_a_corrupt_index_file() {
    let path = TempPath::new("corrupt");
    std::fs::write(&path.0, b"not a DVIX1 file at all").unwrap();
    let (_, stderr, code) = dvicl_stdin(&["batch", "--index", path.as_str()], "lookup g6:C~\n");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error:"), "stderr: {stderr}");
}

/// The one line of a `--trace-json` file, parsed: it must hold exactly
/// one JSON object of type `summary`.
#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn trace_line(path: &TempPath) -> J {
    let text = std::fs::read_to_string(&path.0).expect("trace file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one summary line: {text:?}");
    let line = parse(lines[0]).expect("the line parses");
    assert_eq!(obj(&line).get("type"), Some(&J::Str("summary".into())));
    line
}

/// A counter of a parsed summary line.
#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn trace_counter<'a>(line: &'a J, name: &str) -> &'a J {
    let summary = obj(obj(line).get("summary").expect("summary"));
    obj(summary.get("counters").expect("counters"))
        .get(name)
        .expect("a catalog counter")
}

#[test]
fn stats_and_trace_json_report_the_same_run() {
    let trace = TempPath::new("trace-both");
    let out = bin()
        .args(["--stats", "--trace-json", trace.as_str()])
        .args(["canon", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.starts_with("== dvicl stats =="), "{stderr}");
    let line = trace_line(&trace);
    assert!(
        !obj(&line).contains_key("error"),
        "a clean run has no error"
    );
    let stats_nodes: f64 = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("search_nodes"))
        .expect("the stats report lists search_nodes")
        .trim()
        .parse()
        .expect("a count");
    assert!(stats_nodes > 0.0);
    assert_eq!(trace_counter(&line, "search_nodes"), &J::Num(stats_nodes));
}

#[test]
fn a_tripped_run_still_writes_its_summary() {
    let trace = TempPath::new("trace-trip");
    let out = bin()
        .args(["--max-nodes", "2", "--trace-json", trace.as_str()])
        .args(["canon", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(out.stdout.is_empty(), "printed a result");
    let line = trace_line(&trace);
    assert_eq!(trace_counter(&line, "budget_trips"), &J::Num(1.0));
    match obj(&line).get("error") {
        Some(J::Str(e)) => assert!(e.contains("work units"), "{e}"),
        other => panic!("expected an error string, got {other:?}"),
    }
}

#[test]
fn an_unwritable_trace_path_exits_2_before_any_work() {
    let dir = TempPath::new("no-such-dir");
    let path = dir.0.join("t.json");
    let out = bin()
        .args(["--trace-json", path.to_str().expect("utf-8 temp path")])
        .args(["canon", "g6:C~"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran anyway");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--trace-json"),
        "the error names the flag"
    );
}

#[test]
fn a_closed_stdout_ends_quietly_and_still_reports() {
    // A 754 kB edge list overflows the pipe, so closing the read end
    // after one line makes the next write fail: the run ends with
    // status 0 and still writes its summary line.
    use std::io::BufRead;
    let trace = TempPath::new("trace-closed");
    let mut child = bin()
        .args(["--trace-json", trace.as_str(), "dataset", "wikivote"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    assert!(first.starts_with("# nodes:"), "{first}");
    let out = child.wait_with_output().expect("binary ends");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    trace_line(&trace);
}
