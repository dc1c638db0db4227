//! Benchmark harness support for the DviCL reproduction.
//!
//! * [`alloc::Meter`] — a counting global allocator measuring live and
//!   peak heap bytes, standing in for the paper's per-process peak-memory
//!   column (Table 5).
//! * [`suite`] — shared helpers: dataset loading, engine configurations
//!   (the paper's `X` and `DviCL+X` columns), time budgets and formatting.
//!
//! Each `tableN` binary in `src/bin/` regenerates one table of the paper's
//! evaluation; see EXPERIMENTS.md for the mapping and the measured output.

#![expect(
    clippy::disallowed_methods,
    reason = "the table binaries own their exit codes: a usage error or a failed witness check ends the run with its code"
)]

pub mod alloc;
pub mod suite;
