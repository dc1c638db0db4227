//! Rendering findings: a human `file:line:col` listing, and GitHub
//! Actions annotations for CI.

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
        self.findings.is_empty()
    }

    /// The one-line summary both formats end with.
    fn summary(&self) -> String {
        format!(
            "{} finding(s), {} suppressed, {} file(s) scanned",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        )
    }

    /// Human-readable listing, one finding per line plus a summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "error[{}] {}:{}:{}: {}",
                f.rule, f.file, f.line, f.col, f.message
            );
        }
        let _ = writeln!(out, "dvicl-lint: {}", self.summary());
        out
    }

    /// GitHub Actions workflow commands: one `::error` annotation per
    /// finding, so findings surface inline on the PR diff. The summary
    /// line goes through as a `::notice`.
    pub fn github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "::error file={},line={},col={},title={}::{}",
                f.file,
                f.line,
                f.col,
                f.rule,
                gh_escape(&f.message)
            );
        }
        let _ = writeln!(out, "::notice title=dvicl-lint::{}", self.summary());
        out
    }
}

/// Workflow-command data escaping: `%`, CR, and LF must be
/// percent-encoded or GitHub truncates the message at the newline.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "error-taxonomy",
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
        assert!(h.contains("error[error-taxonomy] crates/x/src/lib.rs:3:9:"));
        assert!(h.contains("1 finding(s), 2 suppressed, 1 file(s) scanned"));
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
            g.contains("::error file=crates/x/src/lib.rs,line=3,col=9,title=error-taxonomy::"),
            "{g}"
        );
        assert!(g.contains("50%25 of%0Athe time"), "{g}");
        assert!(g.contains("::notice title=dvicl-lint::1 finding(s)"), "{g}");
    }
}
