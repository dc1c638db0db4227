//! Rendering findings: a human `file:line:col` listing and a JSON form
//! for CI tooling. JSON is emitted by hand — the workspace builds
//! offline, so no serde.

use crate::rules::Finding;
use std::fmt::Write as _;

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, ordered by file then line then column.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of findings silenced by well-formed pragmas.
    pub suppressed: usize,
}

impl Report {
    /// True when the run should exit zero.
    pub fn is_clean(&self) -> bool {
        self.findings
            .iter()
            .all(|f| f.severity != crate::rules::Severity::Deny)
    }

    /// Human-readable listing, one finding per line plus a summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}[{}] {}:{}:{}: {}",
                f.severity.as_str(),
                f.rule,
                f.file,
                f.line,
                f.col,
                f.message
            );
        }
        let _ = writeln!(
            out,
            "dvicl-lint: {} finding(s), {} suppressed, {} file(s) scanned",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        );
        out
    }

    /// GitHub Actions workflow commands: one `::error`/`::warning`
    /// annotation per finding, so findings surface inline on the PR
    /// diff. The summary line goes through as a `::notice`.
    pub fn github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let cmd = match f.severity {
                crate::rules::Severity::Deny => "error",
                crate::rules::Severity::Warn => "warning",
            };
            let _ = writeln!(
                out,
                "::{cmd} file={},line={},col={},title={}::{}",
                f.file,
                f.line,
                f.col,
                f.rule,
                gh_escape(&f.message)
            );
        }
        let _ = writeln!(
            out,
            "::notice title=dvicl-lint::{} finding(s), {} suppressed, {} file(s) scanned",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        );
        out
    }

    /// JSON object with a `findings` array; stable key order.
    pub fn json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_str(f.rule),
                json_str(f.severity.as_str()),
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.message)
            );
        }
        let _ = write!(
            out,
            "],\"suppressed\":{},\"files_scanned\":{}}}",
            self.suppressed, self.files_scanned
        );
        out
    }
}

/// Workflow-command data escaping: `%`, CR, and LF must be
/// percent-encoded or GitHub truncates the message at the newline.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // dvicl-lint: allow(narrowing-cast) -- char as u32 is the full scalar value, a widening conversion
            c if (c as u32) < 0x20 => {
                // dvicl-lint: allow(narrowing-cast) -- char as u32 is the full scalar value, a widening conversion
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    fn sample() -> Finding {
        Finding {
            rule: "narrowing-cast",
            severity: Severity::Deny,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            byte: 0,
            message: "`.unwrap()` in non-test code".into(),
        }
    }

    #[test]
    fn human_lists_span_and_rule() {
        let r = Report {
            findings: vec![sample()],
            files_scanned: 1,
            suppressed: 2,
        };
        let h = r.human();
        assert!(h.contains("deny[narrowing-cast] crates/x/src/lib.rs:3:9:"));
        assert!(h.contains("1 finding(s), 2 suppressed, 1 file(s) scanned"));
    }

    #[test]
    fn json_escapes_and_orders_keys() {
        let mut f = sample();
        f.message = "quote \" and \\ and\nnewline".into();
        let r = Report {
            findings: vec![f],
            files_scanned: 1,
            suppressed: 0,
        };
        let j = r.json();
        assert!(j.starts_with("{\"findings\":["));
        assert!(j.contains("\\\""));
        assert!(j.contains("\\n"));
        assert!(j.ends_with("\"suppressed\":0,\"files_scanned\":1}"));
    }

    #[test]
    fn clean_report_is_clean() {
        assert!(Report::default().is_clean());
    }

    #[test]
    fn github_format_emits_workflow_commands() {
        let mut f = sample();
        f.message = "50% of\nthe time".into();
        let r = Report {
            findings: vec![f],
            files_scanned: 1,
            suppressed: 0,
        };
        let g = r.github();
        assert!(
            g.contains("::error file=crates/x/src/lib.rs,line=3,col=9,title=narrowing-cast::"),
            "{g}"
        );
        assert!(g.contains("50%25 of%0Athe time"), "{g}");
        assert!(g.contains("::notice title=dvicl-lint::1 finding(s)"), "{g}");
    }
}
