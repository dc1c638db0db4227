//! `dvicl-obs` — zero-dependency observability for the DviCL pipeline.
//!
//! The ROADMAP's north star is a system that is "as fast as the hardware
//! allows", which is unverifiable without a way to *see* where time and
//! work go. This crate gives the whole workspace one shared vocabulary
//! for that, in the house style (no `tracing` crate; everything offline
//! and dependency-free):
//!
//! * [`Counter`] — a fixed catalog of cheap process-wide counters
//!   (search-tree nodes, refinement rounds, divide decisions, cache
//!   hits…). Bumping is one relaxed atomic add; with the `obs-off`
//!   feature it compiles to nothing at all.
//! * [`span()`] — a scoped timer producing the per-phase wall-time
//!   breakdown (refine / divide / combine / leaf-IR / ssm), labelled by
//!   a closed [`Phase`] catalog. Timing is off until [`set_timing`]
//!   enables it, so un-observed runs pay one atomic load per span.
//! * [`Sink`] — where events and the final summary go: [`NullSink`]
//!   (default), [`TextSink`] (the CLI's human `--stats` report on
//!   stderr), or [`JsonSink`] (newline-delimited JSON events plus a
//!   final summary object, the CLI's `--trace-json`).
//!
//! The counter and phase catalogs are each generated from one list by
//! [`catalog!`], so an unknown counter or phase does not compile. The
//! catalogs, the `crate.phase` span naming convention, sink selection
//! and overhead policy are documented in DESIGN.md §9.
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
//! # #[cfg(not(feature = "obs-off"))]
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
mod sink;
mod span;

pub use counters::{add, bump, get, reset_counters, snapshot, Counter, Snapshot, NUM_COUNTERS};
pub use json::{JsonArr, JsonObj};
pub use sink::{
    emit, emit_budget_trip, finish, install, render_text, summary, summary_json, JsonSink,
    NullSink, PhaseRow, Sink, Summary, TextSink, Value,
};
pub use span::{phases, reset_phases, set_timing, span, timing_enabled, Phase, PhaseStat, Span};

/// Resets every counter *and* the phase table. Test/benchmark helper:
/// production code measures with [`snapshot`] deltas instead, so that
/// concurrent measurements cannot clobber each other.
///
/// ```
/// dvicl_obs::reset();
/// assert_eq!(dvicl_obs::get(dvicl_obs::Counter::SearchNodes), 0);
/// ```
pub fn reset() {
    reset_counters();
    reset_phases();
}
