//! `dvicl-obs` — zero-dependency observability for the DviCL pipeline.
//!
//! A speed claim is only as good as the breakdown behind it: where time
//! and work went, phase by phase. This crate gives the whole workspace
//! one shared vocabulary for that, in the house style (no `tracing`
//! crate; everything offline and dependency-free):
//!
//! * [`Counter`] — a fixed catalog of cheap per-thread counters
//!   (search-tree nodes, refinement rounds, divide decisions, index
//!   hits…). Bumping is a plain add to a thread-local cell.
//! * [`span()`] — a scoped timer producing the per-phase wall-time
//!   breakdown (refine / divide / combine / leaf-IR / ssm), labelled by
//!   a closed [`Phase`] catalog, into a per-thread phase table. Timing
//!   is off until [`set_timing`] enables it process-wide, so un-observed
//!   runs pay one atomic load per span.
//! * [`Report`] — one run's end-of-run report, opened and written by
//!   the binary that runs the work: the human `--stats` text on stderr
//!   and one JSON summary line in the `--trace-json` file.
//!
//! Counters and the phase table belong to the thread that does the
//! work, so a unit of work (a CLI call, a bench cell, one `batch`
//! request) is measured by a [`snapshot`] diff on its own thread, and
//! two units on two threads never mix. The counter and phase catalogs
//! are each generated from one list by [`catalog!`], so an unknown
//! counter or phase does not compile. Library code only counts and
//! times; it writes no output. The catalogs, the `crate.phase` span
//! naming convention, the report and the overhead policy are
//! documented in DESIGN.md §9.
//!
//! # Quick start
//!
//! ```
//! use dvicl_obs::{self as obs, Counter, Phase};
//!
//! // Counters: bump on the hot path, snapshot around a measured region.
//! let before = obs::snapshot();
//! obs::bump(Counter::SearchNodes);
//! obs::add(Counter::DivideSEdgesDeleted, 3);
//! let delta = obs::snapshot().diff(&before);
//! assert_eq!(delta.get(Counter::SearchNodes), 1);
//!
//! // Spans: time a phase (a no-op unless timing was enabled).
//! {
//!     let _g = obs::span(Phase::CoreBuild);
//!     // ... the governed work ...
//! }
//! ```

#![deny(missing_docs)]

#[doc(hidden)]
pub mod catalog;
mod counters;
mod json;
mod report;
mod span;

pub use counters::{add, bump, get, snapshot, Counter, Snapshot, NUM_COUNTERS};
pub use json::{JsonArr, JsonObj};
pub use report::Report;
pub use span::{phases, set_timing, span, timing_enabled, Phase, PhaseStat, Span};
