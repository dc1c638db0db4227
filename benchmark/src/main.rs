//! The DviCL benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one, and a correctness
//! check of every output. See README.md for the workloads, the metric
//! definitions and the timing rule.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload social|large|search|service] [--seed N] [--seconds S] \
//!     [--trace 0|1] [--smoke]
//! ```
//!
//! Prints `workload metric value unit` lines, then one JSON result line.
//! Exits 1 when any check failed and 2 on a usage error.

mod alloc;
mod builds;
mod gen;
mod json;
mod pass;
mod report;
mod service;
mod stats;
mod trace;

use builds::Family;
use report::Report;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Meter = alloc::Meter;

/// A build or request that runs longer than this fails (budget trip).
pub const OP_DEADLINE: Duration = Duration::from_secs(20);

/// The workloads, in the order a run without `--workload` takes them.
const WORKLOADS: [&str; 4] = ["social", "large", "search", "service"];

/// Seconds of measurement per workload when `--seconds` is not given;
/// BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Set-up repetitions, whose median is `setup_s`.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: dvicl-benchmark [--workload social|large|search|service] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Run options shared by every workload.
pub struct Opts {
    /// Seeds every input the workloads make.
    pub seed: u64,
    /// Measure for at least this long (and at least two passes).
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrunken inputs, one set-up, the minimum two passes.
    pub smoke: bool,
}

impl Opts {
    /// Set-up repetitions.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }
}

fn parse_args(args: &[String]) -> Result<(Option<&'static str>, Opts), String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&name| name == w)
                        .ok_or_else(|| format!("unknown workload `{w}`"))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed: not a number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds: not a number".to_string())?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.unwrap_or(if smoke { 0.0 } else { DEFAULT_SECONDS });
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
            smoke,
        },
    ))
}

fn run(workload: &'static str, opts: &Opts) -> Report {
    match workload {
        "social" => builds::run(workload, Family::Social, opts),
        "large" => builds::run(workload, Family::Large, opts),
        "search" => builds::run(workload, Family::Search, opts),
        _ => service::run(opts),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let names = workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut reports = Vec::new();
    for name in names {
        let r = run(name, &opts);
        for line in r.lines(opts.trace) {
            println!("{line}");
        }
        for problem in r.problems() {
            eprintln!("{name}: FAILED: {problem}");
        }
        reports.push(r);
    }
    println!("{}", report::result_json(&reports, opts.trace));
    if !reports.iter().all(Report::correct) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Option<&'static str>, Opts), String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_flags_parse() {
        let (w, o) = parse(&[
            "--workload",
            "search",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(w, Some("search"));
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (7, 3.0, true, false));
        let (w, o) = parse(&["--smoke"]).expect("valid flags");
        assert_eq!((w, o.seconds, o.setup_reps()), (None, 0.0, 1));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
