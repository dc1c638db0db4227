//! End-to-end tests of the `dvicl` binary.

use std::io::Write;
use std::process::{Command, Stdio};

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn dvicl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(args)
        .output()
        .expect("binary runs");
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
fn reads_edge_list_from_stdin() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
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
    let cases: [(&[&str], &str); 7] = [
        (&["canon", "g6:IheA@GUAo", "--paranoia"], "`--paranoia`"),
        (&["tree", "g6:IheA@GUAo", "--rendr"], "`--rendr`"),
        (&["ssm", "g6:IheA@GUAo", "0", "--limit", "abc"], "\"abc\""),
        (&["canon", "g6:IheA@GUAo", "extra"], "`extra`"),
        (&["canon", "--stat", "g6:IheA@GUAo"], "`--stat`"),
        (&["canon", "g6:IheA@GUAo", "--threads", "4"], "`--threads`"),
        // There is no target-cell override: every query is labeled
        // under the one configuration the CLI builds with.
        (
            &["batch", "--index", "a.dvix", "--target-cell", "smallest"],
            "`--target-cell`",
        ),
    ];
    for (args, token) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        assert!(stderr.contains(token), "{args:?} must name {token}: {stderr}");
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
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
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
    // unbudgeted run takes about 3 s in release and longer in debug, so
    // a 300 ms deadline fires mid-search under either profile.
    let base = dvicl_data::bench_graphs::cubic_circulant(400);
    let hard = dvicl_data::bench_graphs::cfi(&base, false);
    let path = std::env::temp_dir().join(format!("dvicl-hard-{}.g6", std::process::id()));
    std::fs::write(&path, dvicl_graph::graph6::to_graph6(&hard)).unwrap();
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
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
fn max_nodes_degrades_gracefully() {
    // A node budget far too small for the divided build: the run must
    // still succeed (whole-graph fallback), note the degradation on
    // stderr, and print a certificate.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--max-nodes", "2", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "got: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("n: 10  m: 15"));
    assert!(stdout.contains("certificate (canonical graph6):"));
}

#[test]
fn malformed_input_exits_2() {
    let (_, stderr, _) = dvicl(&["canon", "g6:C"]); // truncated graph6
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:C"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("parse error"), "got: {stderr}");
    // Bad flag values are input errors too.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
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
    assert!(stderr.contains("paranoid: tree witness checks passed"), "got: {stderr}");

    let (stdout, stderr, ok) = dvicl(&["iso", "--paranoid", "g6:IheA@GUAo", "g6:IheA@GUAo"]);
    assert!(ok, "paranoid iso failed: {stderr}");
    assert!(stdout.contains("isomorphic: yes"));
    assert!(stderr.contains("paranoid: iso mapping witness checks passed"), "got: {stderr}");
}

#[test]
fn paranoid_covers_degraded_results() {
    // A degraded run must pass the same witness checks and carry both
    // the degradation marker and the paranoid confirmation.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--paranoid", "--max-nodes", "2", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "got: {stderr}");
    assert!(stderr.contains("paranoid: tree witness checks passed"), "got: {stderr}");
}

#[test]
fn fault_plan_flag_trips_deterministically() {
    // Tripping the work budget at the first build checkpoint degrades
    // the run (marker on stderr, exit 0) — the resilient path treats an
    // injected WorkUnits trip exactly like a real one.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--paranoid", "--fault-plan", "trip@core.build_node:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "got: {stderr}");
    assert!(stderr.contains("degraded"), "got: {stderr}");
    assert!(stderr.contains("paranoid: tree witness checks passed"), "got: {stderr}");

    // Cancellation is not degradable: typed error, exit 3.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "cancel@core.build_node:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cancelled"), "got: {stderr}");

    // An injected parse fault surfaces as a parse error, exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "parse@graph.graph6:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fault_plan_env_var_is_honored() {
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:IheA@GUAo"])
        .env("DVICL_FAULT_PLAN", "cancel@govern.spend:1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));

    // A malformed plan spec is a usage-level input error.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:C~"])
        .env("DVICL_FAULT_PLAN", "explode@everything")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "nope", "g6:C~"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_fault_site_is_rejected_with_the_valid_sites() {
    // A misspelled site would otherwise arm a plan that never fires.
    let check = |out: std::process::Output| {
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown fault site 'index.insrt'"),
            "got: {stderr}"
        );
        assert!(stderr.contains("index.insert"), "got: {stderr}");
        assert!(out.stdout.is_empty(), "no request may be served");
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["batch", "--fault-plan", "trip@index.insrt:1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The binary may exit before reading stdin; a closed pipe is fine.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"insert g6:IheA@GUAo\n");
    check(child.wait_with_output().expect("binary exits"));

    check(
        Command::new(env!("CARGO_BIN_EXE_dvicl"))
            .args(["canon", "g6:IheA@GUAo"])
            .env("DVICL_FAULT_PLAN", "trip@index.insrt:1")
            .output()
            .expect("binary runs"),
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
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
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
    // Three work units cannot canonicalize Petersen, but the tripped
    // request must not take the service down: the pentagon after it
    // still gets a real answer.
    let queries = "\
insert g6:IheA@GUAo
insert el:0-1,1-2,2-3,3-4,4-0
";
    let (stdout, stderr, code) = dvicl_stdin(&["batch", "--req-max-nodes", "40"], queries);
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

#[test]
fn batch_fault_injection_covers_the_index_checkpoints() {
    // An injected fault at index.insert is a per-request error: the
    // service answers it inline and keeps going.
    let (stdout, stderr, code) = dvicl_stdin(
        &["batch", "--fault-plan", "trip@index.insert:2"],
        "insert g6:C~\ninsert g6:C~\ninsert g6:C~\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "insert: class=0 members=1 fresh");
    assert!(lines[1].starts_with("error: "), "got: {}", lines[1]);
    assert_eq!(lines[2], "insert: class=0 members=2 known");

    // At index.load the index is unusable: a process-level typed exit.
    let path = TempPath::new("faultload");
    let (_, _, code) = dvicl_stdin(
        &["batch", "--save", path.as_str()],
        "insert g6:C~\n",
    );
    assert_eq!(code, Some(0));
    let (_, stderr, code) = dvicl_stdin(
        &["batch", "--index", path.as_str(), "--fault-plan", "trip@index.load:1"],
        "lookup g6:C~\n",
    );
    assert_eq!(code, Some(3), "stderr: {stderr}");
}
