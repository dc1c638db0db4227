//! The unified error taxonomy for every fallible DviCL entry point.

use std::fmt;

/// What a parser choked on. Kept as data (not prose) so tests and
/// callers can match on the failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A line ended before both edge endpoints were present.
    TruncatedLine,
    /// A token that should have been a vertex id was not a base-10 integer.
    NonNumeric,
    /// A vertex id or count overflowed the machine representation.
    Overflow,
    /// The input declared a graph too large to represent.
    TooLarge,
    /// A byte outside the printable graph6 alphabet (63..=126).
    BadByte(u8),
    /// The payload ended before the declared adjacency bits.
    Truncated,
    /// Well-formed data followed by unexpected trailing bytes.
    TrailingData,
    /// The input contained no graph at all.
    Empty,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::TruncatedLine => write!(f, "truncated line"),
            ParseErrorKind::NonNumeric => write!(f, "non-numeric vertex id"),
            ParseErrorKind::Overflow => write!(f, "vertex id overflow"),
            ParseErrorKind::TooLarge => write!(f, "graph too large"),
            ParseErrorKind::BadByte(b) => write!(f, "invalid byte 0x{b:02x}"),
            ParseErrorKind::Truncated => write!(f, "truncated input"),
            ParseErrorKind::TrailingData => write!(f, "trailing data"),
            ParseErrorKind::Empty => write!(f, "empty input"),
        }
    }
}

/// A typed parse failure from the edge-list or graph6 readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The failure class.
    pub kind: ParseErrorKind,
    /// 1-based line number, when the input format has lines.
    pub line: Option<usize>,
    /// Free-form context (the offending token, the declared size, ...).
    pub detail: String,
}

impl ParseError {
    /// Builds a parse error with no line attribution.
    pub fn new(kind: ParseErrorKind, detail: impl Into<String>) -> Self {
        ParseError {
            kind,
            line: None,
            detail: detail.into(),
        }
    }

    /// Attaches a 1-based line number.
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.kind)?;
        if let Some(line) = self.line {
            write!(f, " on line {line}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The cooperative work counter (search-tree nodes, matcher states,
    /// refinement splits) hit its cap.
    WorkUnits,
    /// The wall-clock deadline passed.
    WallClock,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::WorkUnits => write!(f, "work units"),
            Resource::WallClock => write!(f, "wall clock"),
        }
    }
}

/// The error type every fallible DviCL entry point returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DviclError {
    /// The input could not be parsed.
    Parse(ParseError),
    /// A [`crate::Budget`] limit was reached. `spent` is work units for
    /// [`Resource::WorkUnits`] and elapsed milliseconds for
    /// [`Resource::WallClock`].
    BudgetExceeded {
        /// Which limit was hit.
        resource: Resource,
        /// How much of it had been consumed when the check fired.
        spent: u64,
    },
    /// The computation's [`crate::CancelToken`] was triggered.
    Cancelled,
    /// The request itself was malformed (bad flag value, out-of-range
    /// vertex, k = 0, ...).
    InvalidInput(String),
    /// A paranoid witness check rejected an output: the claimed
    /// labeling, generator, or iso mapping did not actually hold on the
    /// graph. This is always a bug, never a property of the input.
    WitnessFailure {
        /// Which verification stage rejected the witness
        /// (`"root_form"`, `"generator"`, `"iso_mapping"`, ...).
        stage: &'static str,
        /// What exactly did not hold.
        detail: String,
    },
}

impl DviclError {
    /// Shorthand for an [`DviclError::InvalidInput`] with a formatted message.
    pub fn invalid(msg: impl Into<String>) -> Self {
        DviclError::InvalidInput(msg.into())
    }

    /// Shorthand for a [`DviclError::WitnessFailure`].
    pub fn witness(stage: &'static str, detail: impl Into<String>) -> Self {
        DviclError::WitnessFailure {
            stage,
            detail: detail.into(),
        }
    }

    /// The CLI exit code for this error: 2 for bad input, 3 when a
    /// budget ran out or the run was cancelled, 4 when a paranoid
    /// witness check rejected an output.
    pub fn exit_code(&self) -> u8 {
        match self {
            DviclError::Parse(_) | DviclError::InvalidInput(_) => 2,
            DviclError::BudgetExceeded { .. } | DviclError::Cancelled => 3,
            DviclError::WitnessFailure { .. } => 4,
        }
    }
}

impl fmt::Display for DviclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DviclError::Parse(e) => e.fmt(f),
            DviclError::BudgetExceeded { resource, spent } => match resource {
                Resource::WorkUnits => {
                    write!(f, "budget exceeded: {spent} work units spent")
                }
                Resource::WallClock => {
                    write!(f, "budget exceeded: deadline passed after {spent} ms")
                }
            },
            DviclError::Cancelled => write!(f, "cancelled"),
            DviclError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            DviclError::WitnessFailure { stage, detail } => {
                write!(f, "witness check failed at {stage}: {detail}")
            }
        }
    }
}

impl std::error::Error for DviclError {}

impl From<ParseError> for DviclError {
    fn from(e: ParseError) -> Self {
        DviclError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_match_the_cli_contract() {
        assert_eq!(
            DviclError::Parse(ParseError::new(ParseErrorKind::Empty, "")).exit_code(),
            2
        );
        assert_eq!(DviclError::invalid("k must be >= 1").exit_code(), 2);
        assert_eq!(
            DviclError::BudgetExceeded {
                resource: Resource::WallClock,
                spent: 101
            }
            .exit_code(),
            3
        );
        assert_eq!(DviclError::Cancelled.exit_code(), 3);
        assert_eq!(
            DviclError::witness("root_form", "edge mismatch").exit_code(),
            4
        );
    }

    #[test]
    fn display_is_informative() {
        let e = DviclError::Parse(
            ParseError::new(ParseErrorKind::NonNumeric, "token 'abc'").at_line(3),
        );
        let msg = e.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("abc"), "{msg}");
        let b = DviclError::BudgetExceeded {
            resource: Resource::WorkUnits,
            spent: 512,
        };
        assert!(b.to_string().contains("512"));
        // The trait object form works (std::error::Error is implemented).
        let boxed: Box<dyn std::error::Error> = Box::new(b);
        assert!(boxed.to_string().contains("budget"));
    }

    #[test]
    fn witness_display_is_informative() {
        let w = DviclError::witness("iso_mapping", "edge (0,1) unmapped");
        let msg = w.to_string();
        assert!(msg.contains("iso_mapping"), "{msg}");
        assert!(msg.contains("(0,1)"), "{msg}");
    }
}
