//! Execution governance for the DviCL pipeline.
//!
//! The IR backtrack search at the heart of DviCL is worst-case
//! exponential, and the paper's own evaluation (Tables 2–5) runs every
//! engine under a per-run budget. This crate makes bounded, abortable
//! execution a first-class property of the whole pipeline instead of an
//! ad-hoc feature of one leaf labeler:
//!
//! - [`Budget`] — a cheaply-cloneable handle carrying an optional
//!   wall-clock deadline, an optional work cap (search-tree nodes,
//!   matcher states, refinement splits), and a shared [`CancelToken`].
//!   Hot loops call [`Budget::spend`], which counts work on every call
//!   but only consults the clock every [`STRIDE`] units.
//! - [`CancelToken`] — cooperative cancellation shared across threads;
//!   a request handler can abort an in-flight computation from outside.
//! - [`DviclError`] — the unified error taxonomy every fallible entry
//!   point returns, with a stable [`DviclError::exit_code`] mapping for
//!   the CLI (2 = bad input, 3 = budget exceeded / cancelled).
//!
//! Budget trips are counted: the error paths of [`Budget::spend`] and
//! [`Budget::check`] bump the thread's `budget_trips` counter in
//! `dvicl-obs` and nothing else, and the owner of the unit of work
//! reports it with the unit's other counters (DESIGN.md §9.4).
//!
//! Spending is deterministic, so a work cap is also the fault injector:
//! a build under `Budget::with_max_work(c)` aborts at exactly its
//! `(c + 1)`-th unit, through the same trip path as any other limit.
//! The cap sweep (DESIGN.md §11.2) builds under caps from 0 up to a
//! build's total work.

#![deny(missing_docs)]

mod budget;
mod error;

pub use budget::{Budget, CancelToken, STRIDE};
pub use error::{DviclError, ParseError, ParseErrorKind, Resource};

use std::time::Duration;

/// Parses a human-friendly duration: `100ms`, `5s`, `2m`, `1h`, or a
/// bare (possibly fractional) number of seconds.
pub fn parse_duration(s: &str) -> Result<Duration, DviclError> {
    let s = s.trim();
    let split = s
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .parse()
        .map_err(|_| DviclError::InvalidInput(format!("invalid duration '{s}'")))?;
    let scale = match unit.trim() {
        "ms" => 1e-3,
        "" | "s" => 1.0,
        "m" => 60.0,
        "h" => 3600.0,
        other => {
            return Err(DviclError::InvalidInput(format!(
                "invalid duration unit '{other}' (expected ms, s, m, or h)"
            )))
        }
    };
    let secs = value * scale;
    if !secs.is_finite() || secs < 0.0 {
        return Err(DviclError::InvalidInput(format!("invalid duration '{s}'")));
    }
    Ok(Duration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_duration_accepts_the_common_forms() {
        assert_eq!(parse_duration("100ms").unwrap(), Duration::from_millis(100));
        assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("5").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert_eq!(
            parse_duration(" 250ms ").unwrap(),
            Duration::from_millis(250)
        );
    }

    #[test]
    fn parse_duration_rejects_garbage() {
        for bad in ["", "fast", "10q", "-3s", "1e999", "..", "ms"] {
            let err = parse_duration(bad).unwrap_err();
            assert!(
                matches!(err, DviclError::InvalidInput(_)),
                "{bad:?} gave {err:?}"
            );
            assert_eq!(err.exit_code(), 2);
        }
    }
}
