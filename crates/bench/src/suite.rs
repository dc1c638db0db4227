//! Shared helpers for the table binaries.
//!
//! Every binary funnels its measured work through [`measure`] (counter
//! deltas + peak heap + wall clock) and its AutoTree builds through
//! [`build_tree`] (so `DVICL_BUDGET_SECS` is enforced by
//! `govern::Budget` everywhere, never by a binary-private timer), and
//! appends machine-readable rows to a [`Recorder`], which writes the
//! `BENCH_<table>.json` document described in DESIGN.md §9.
//!
//! Builds go through a caller-owned [`Session`] ([`dvicl_session`] pins
//! one to an engine config): a table binary that labels its whole suite
//! reuses one session's arena pools and refiner across every
//! graph, exactly like the `dvicl batch` service. Certificates are
//! byte-identical to one-shot builds — reuse changes where the working
//! memory comes from, never the result.

use dvicl_canon::{try_canonical_form, Config};
use dvicl_core::{AutoTree, DviclOptions, Session};
use dvicl_govern::Budget;
use dvicl_graph::{Coloring, Graph};
use dvicl_obs::{self as obs, JsonArr, JsonObj, Snapshot, Value};
use std::time::{Duration, Instant};

/// The flags shared by every table binary, parsed once by [`init_obs`]
/// and passed to every helper that needs them.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// `--paranoid`: every AutoTree a table binary builds is re-checked
    /// against its witness before its row is recorded (DESIGN.md §11).
    pub paranoid: bool,
}

/// The three baseline engines of the paper's evaluation and their
/// `DviCL+X` counterparts. The names mirror the paper's columns; see
/// `dvicl-canon` for what each configuration stands in for.
pub fn engines() -> Vec<(&'static str, Config)> {
    vec![
        ("nauty", Config::nauty_like()),
        ("traces", Config::traces_like()),
        ("bliss", Config::bliss_like()),
    ]
}

/// Wall-clock budget for one baseline run. The paper allowed 2 hours on
/// graphs two orders of magnitude larger; the scaled default is 20 s and
/// can be overridden with `DVICL_BUDGET_SECS`.
pub fn budget() -> Duration {
    let secs = std::env::var("DVICL_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(20);
    Duration::from_secs(secs)
}

/// Parses the flags shared by every table binary (`--stats`,
/// `--paranoid`, `--trace-json <path>`), installs the matching sink and
/// returns the run options. Call first in `main`; [`Recorder::write`]
/// flushes the sink at the end via `dvicl_obs::finish`.
pub fn init_obs() -> RunOptions {
    let args: Vec<String> = std::env::args().collect();
    let mut stats = false;
    let mut trace: Option<String> = None;
    let mut opts = RunOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => stats = true,
            "--paranoid" => opts.paranoid = true,
            "--trace-json" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("--trace-json requires a path");
                    std::process::exit(2);
                };
                trace = Some(p.clone());
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown flag {other} (expected --stats, --paranoid or --trace-json <path>)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(path) = &trace {
        match obs::JsonSink::to_file(std::path::Path::new(path)) {
            Ok(sink) => {
                obs::install(Box::new(sink));
            }
            Err(e) => {
                eprintln!("--trace-json {path}: {e}");
                std::process::exit(2);
            }
        }
    } else if stats {
        obs::install(Box::new(obs::TextSink));
    }
    if stats || trace.is_some() {
        obs::set_timing(true);
    }
    opts
}

/// Outcome of one measured run.
pub struct Run {
    /// Wall-clock seconds, `None` if the budget was exceeded.
    pub secs: Option<f64>,
    /// Peak extra heap bytes during the run.
    pub peak_bytes: usize,
    /// Observability counter deltas attributable to this run. The
    /// pipeline is deterministic, so two runs on the same graph yield
    /// identical deltas (wall time is the only thing that varies).
    pub counters: Snapshot,
}

impl Run {
    /// Formats the time column the way the paper does (`-` = exceeded).
    pub fn fmt_time(&self) -> String {
        match self.secs {
            Some(s) if s < 0.01 => "<0.01".to_string(),
            Some(s) => format!("{s:.2}"),
            None => "-".to_string(),
        }
    }

    /// Formats the memory column (MB; `-` when the run did not finish).
    pub fn fmt_mem(&self) -> String {
        match self.secs {
            Some(_) => crate::alloc::fmt_mb(self.peak_bytes),
            None => "-".to_string(),
        }
    }
}

/// Runs `f` with the peak-allocation meter reset and a counter snapshot
/// taken around it. `None` from `f` means the budget was exceeded; the
/// [`Run`] then reports `-` columns but still carries the partial
/// counter deltas (useful for diagnosing *where* the budget went).
pub fn measure<T>(f: impl FnOnce() -> Option<T>) -> (Run, Option<T>) {
    crate::alloc::reset_peak();
    let before_bytes = crate::alloc::live_bytes();
    let before = obs::snapshot();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    (
        Run {
            secs: out.is_some().then_some(secs),
            peak_bytes: crate::alloc::peak_bytes().saturating_sub(before_bytes),
            counters: obs::snapshot().diff(&before),
        },
        out,
    )
}

/// Runs a baseline engine `X` alone on `(g, unit)` under the budget.
pub fn run_baseline(g: &Graph, config: &Config) -> Run {
    let limits = Budget::with_deadline(budget());
    measure(|| try_canonical_form(g, &Coloring::unit(g.n()), config, &limits).ok()).0
}

/// A session for `DviCL+X` runs: AutoTree construction with `X` as the
/// leaf labeler. Hold it across a whole suite so its arena pools and
/// refiner amortize over every graph.
pub fn dvicl_session(config: &Config) -> Session {
    Session::new(DviclOptions {
        leaf_config: config.clone(),
        ..DviclOptions::default()
    })
}

/// Budgeted AutoTree construction. Every table binary builds its trees
/// through here so that `DVICL_BUDGET_SECS` is honored uniformly through
/// `govern::Budget` — a graph the budget cannot cover yields `None` and
/// `-` table cells instead of an unbounded build. Under `--paranoid`
/// the tree is witness-checked, and a failure ends the process.
pub fn build_tree(opts: &RunOptions, session: &mut Session, g: &Graph) -> (Run, Option<AutoTree>) {
    let limits = Budget::with_deadline(budget());
    // Open-coded `measure` so that under `--paranoid` the witness checks
    // land inside the wall clock (overhead is the number being measured)
    // but *after* the peak-heap sample: verification scratch must not
    // shift the memory columns the CI ceilings watch.
    crate::alloc::reset_peak();
    let before_bytes = crate::alloc::live_bytes();
    let before = obs::snapshot();
    let t0 = Instant::now();
    let tree = session.try_build(g, &Coloring::unit(g.n()), &limits).ok();
    let peak_bytes = crate::alloc::peak_bytes().saturating_sub(before_bytes);
    if let (Some(t), true) = (&tree, opts.paranoid) {
        if let Err(e) = dvicl_core::verify::verify_tree(g, t) {
            eprintln!("error: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let run = Run {
        secs: tree.is_some().then_some(secs),
        peak_bytes,
        counters: obs::snapshot().diff(&before),
    };
    (run, tree)
}

/// Accumulates one table's machine-readable benchmark records and
/// writes them as `BENCH_<table>.json` (schema `dvicl-bench-v1`,
/// DESIGN.md §9) when the binary finishes.
pub struct Recorder {
    table: &'static str,
    records: JsonArr,
}

impl Recorder {
    /// Starts an empty recorder for `table` (e.g. `"table8"`).
    pub fn new(table: &'static str) -> Recorder {
        Recorder {
            table,
            records: JsonArr::new(),
        }
    }

    /// Appends one `{graph, algo, completed, wall_ms, peak_bytes,
    /// counters}` record and mirrors it as a `bench_record` event, so a
    /// `--trace-json` sink captures the rows as they are produced.
    pub fn record(&mut self, graph: &str, algo: &str, run: &Run) {
        let wall_ms = run.secs.map(|s| s * 1e3);
        let peak = u64::try_from(run.peak_bytes).unwrap_or(u64::MAX);
        let mut counters = JsonObj::new();
        for (name, v) in run.counters.iter() {
            counters = counters.u64(name, v);
        }
        let mut obj = JsonObj::new()
            .str("graph", graph)
            .str("algo", algo)
            .bool("completed", run.secs.is_some());
        obj = match wall_ms {
            Some(ms) => obj.f64("wall_ms", ms),
            None => obj.null("wall_ms"),
        };
        obj = obj.u64("peak_bytes", peak).obj("counters", counters);
        self.records = std::mem::take(&mut self.records).push_obj(obj);
        obs::emit(
            "bench_record",
            &[
                ("table", Value::Str(self.table.to_string())),
                ("graph", Value::Str(graph.to_string())),
                ("algo", Value::Str(algo.to_string())),
                ("completed", Value::Bool(run.secs.is_some())),
                // NaN serializes as null, matching the record's wall_ms.
                ("wall_ms", Value::F64(wall_ms.unwrap_or(f64::NAN))),
                ("peak_bytes", Value::U64(peak)),
            ],
        );
    }

    /// Writes `BENCH_<table>.json` into the current directory and
    /// flushes the installed observability sink. Returns the path
    /// written (best effort: an unwritable directory only warns).
    pub fn write(self) -> String {
        let path = format!("BENCH_{}.json", self.table);
        let doc = JsonObj::new()
            .str("schema", "dvicl-bench-v1")
            .str("table", self.table)
            .arr("records", self.records)
            .finish();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("warning: could not write {path}: {e}");
        }
        obs::finish();
        path
    }
}

/// Prints a row of `|`-free aligned columns.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (i, c) in cols.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        line.push_str(&format!("{c:>w$}  "));
    }
    println!("{}", line.trim_end());
}

/// Prints a left-aligned header row.
pub fn print_header(cols: &[&str], widths: &[usize]) {
    let strings: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
    print_row(&strings, widths);
    let total: usize = widths.iter().map(|w| w + 2).sum();
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_formats_like_the_paper() {
        let finished = Run {
            secs: Some(1.234),
            peak_bytes: 3 * 1024 * 1024,
            counters: Snapshot::default(),
        };
        assert_eq!(finished.fmt_time(), "1.23");
        assert_eq!(finished.fmt_mem(), "3.00");
        let fast = Run {
            secs: Some(0.004),
            peak_bytes: 10,
            counters: Snapshot::default(),
        };
        assert_eq!(fast.fmt_time(), "<0.01");
        let failed = Run {
            secs: None,
            peak_bytes: 999,
            counters: Snapshot::default(),
        };
        assert_eq!(failed.fmt_time(), "-");
        assert_eq!(failed.fmt_mem(), "-");
    }

    #[test]
    fn engines_match_the_paper_columns() {
        let names: Vec<&str> = engines().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["nauty", "traces", "bliss"]);
    }

    #[test]
    fn baseline_and_dvicl_agree_on_a_small_graph() {
        let g = dvicl_graph::named::fig1_example();
        let opts = RunOptions::default();
        for (_, config) in engines() {
            let base = run_baseline(&g, &config);
            assert!(base.secs.is_some(), "tiny graph must finish");
            let mut session = dvicl_session(&config);
            let (run, tree) = build_tree(&opts, &mut session, &g);
            assert!(run.secs.is_some());
            assert_eq!(tree.expect("built").stats().total_nodes, 7);
        }
    }

    #[test]
    fn session_reuse_keeps_certificates_stable() {
        // The whole point of threading a Session through the tables:
        // later builds reuse arenas and refiner yet certify identically.
        let opts = RunOptions::default();
        let mut session = dvicl_session(&Config::traces_like());
        let graphs = [
            dvicl_graph::named::petersen(),
            dvicl_graph::named::fig1_example(),
            dvicl_graph::named::petersen(),
        ];
        let mut forms = Vec::new();
        for g in &graphs {
            let (_, tree) = build_tree(&opts, &mut session, g);
            forms.push(tree.expect("built").canonical_form().to_form());
        }
        assert_eq!(forms[0], forms[2]);
        assert_ne!(forms[0], forms[1]);
        assert_eq!(session.builds(), 3);
    }

    #[test]
    fn counter_deltas_are_deterministic() {
        let g = dvicl_graph::named::petersen();
        let config = Config::bliss_like();
        let r1 = run_baseline(&g, &config);
        let r2 = run_baseline(&g, &config);
        assert_eq!(r1.counters, r2.counters, "reruns must agree exactly");
        assert!(r1.counters.get(dvicl_obs::Counter::SearchNodes) > 0);
    }

    #[test]
    fn bench_records_round_trip_the_run() {
        let run = Run {
            secs: Some(0.5),
            peak_bytes: 1024,
            counters: Snapshot::default(),
        };
        let mut rec = Recorder::new("table_test");
        rec.record("k_5", "nauty", &run);
        let doc = JsonObj::new()
            .str("schema", "dvicl-bench-v1")
            .str("table", rec.table)
            .arr("records", std::mem::take(&mut rec.records))
            .finish();
        assert!(doc.contains(r#""schema":"dvicl-bench-v1""#));
        assert!(doc.contains(r#""graph":"k_5""#));
        assert!(doc.contains(r#""wall_ms":500"#));
        assert!(doc.contains(r#""counters":{"refine_rounds":0"#));
    }

    #[test]
    fn budget_env_override() {
        // Whatever the ambient env, budget() is positive and finite.
        assert!(budget().as_secs() >= 1);
    }
}
