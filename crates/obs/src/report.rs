//! The end-of-run [`Report`]: the `--stats` text and the one
//! `--trace-json` summary line of a run.
//!
//! The binary that runs the work opens the report before the run and
//! writes it after, on the thread that did the work, so the report is
//! that thread's counters and phase table. Library code writes no
//! observability output (DESIGN.md §9.3).

use crate::counters::{snapshot, Snapshot};
use crate::json::{JsonArr, JsonObj};
use crate::span::{phases, set_timing, PhaseStat};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `{"counters":{...},"phases":[...]}`, times in milliseconds.
fn summary_json(counters: &Snapshot, phases: &[(&str, PhaseStat)]) -> JsonObj {
    let mut values = JsonObj::new();
    for (name, v) in counters.iter() {
        values = values.u64(name, v);
    }
    let mut rows = JsonArr::new();
    for (label, st) in phases {
        rows = rows.push_obj(
            JsonObj::new()
                .str("label", label)
                .u64("calls", st.calls)
                .f64("total_ms", ms(st.total_ns))
                .f64("self_ms", ms(st.self_ns)),
        );
    }
    JsonObj::new().obj("counters", values).arr("phases", rows)
}

/// The human `--stats` report: non-zero counters, then the phase table
/// when timing was on.
fn render_text(counters: &Snapshot, phases: &[(&str, PhaseStat)]) -> String {
    let mut out = String::from("== dvicl stats ==\n");
    let mut any = false;
    for (name, v) in counters.iter() {
        if v > 0 {
            out.push_str(&format!("  {name:<24} {v}\n"));
            any = true;
        }
    }
    if !any {
        out.push_str("  (all counters zero)\n");
    }
    if !phases.is_empty() {
        out.push_str("  phase                    calls    total_ms     self_ms\n");
        for (label, st) in phases {
            out.push_str(&format!(
                "  {:<24} {:>5} {:>11.3} {:>11.3}\n",
                label,
                st.calls,
                ms(st.total_ns),
                ms(st.self_ns)
            ));
        }
    }
    out
}

/// One run's report, opened before the work and written once after it:
/// the `--stats` text on stderr and one `{"type":"summary",...}` JSON
/// line in the `--trace-json` file. The default reports nothing.
#[derive(Debug, Default)]
pub struct Report {
    stats: bool,
    trace: Option<File>,
}

impl Report {
    /// Opens a report: the text under `stats`, the JSON line in the file
    /// at `trace`. The file is created (truncated) now, so a path that
    /// cannot be written fails before any work is done. Either output
    /// turns span timing on.
    pub fn open(stats: bool, trace: Option<&Path>) -> io::Result<Report> {
        let trace = trace.map(File::create).transpose()?;
        if stats || trace.is_some() {
            set_timing(true);
        }
        Ok(Report { stats, trace })
    }

    /// Writes the report from the calling thread's counters and phase
    /// table. `error` is the run's failure, if it failed; the JSON line
    /// carries it as `"error"`. Best effort: a failed write does not
    /// change the run's outcome.
    pub fn write(self, error: Option<&str>) {
        if !self.stats && self.trace.is_none() {
            return;
        }
        let (counters, phases) = (snapshot(), phases());
        if self.stats {
            let _ = io::stderr().write_all(render_text(&counters, &phases).as_bytes());
        }
        if let Some(mut file) = self.trace {
            let mut line = JsonObj::new()
                .str("type", "summary")
                .obj("summary", summary_json(&counters, &phases));
            if let Some(e) = error {
                line = line.str("error", e);
            }
            let _ = file.write_all((line.finish() + "\n").as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_lists_nonzero_counters_and_phases() {
        let demo = PhaseStat {
            calls: 2,
            total_ns: 1_250_000,
            self_ns: 1_000_000,
        };
        let text = render_text(&Snapshot::default(), &[("obs.render_demo", demo)]);
        assert!(text.starts_with("== dvicl stats ==\n"));
        assert!(text.contains("(all counters zero)"));
        assert!(text.contains("  obs.render_demo              2       1.250       1.000\n"));
    }
}
