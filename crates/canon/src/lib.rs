//! Individualization-refinement (IR) canonical labeling — the baseline.
//!
//! This crate is a from-scratch reimplementation of the search-tree scheme
//! shared by nauty, bliss and traces, exactly as reviewed in Section 4 of
//! the paper: a backtrack tree `T(G, π)` whose nodes are equitable colorings
//! obtained by a refinement function `R`, whose edges individualize vertices
//! of a cell chosen by a target cell selector `T`, and whose subtrees are
//! pruned with a node invariant `φ` (pruning rules `P_A`, `P_B`) and with
//! discovered automorphisms (`P_C`).
//!
//! The paper's baselines are the C implementations of nauty 2.6r10,
//! bliss 0.73 and traces 2.6r10; those cannot be linked here (the
//! reproduction builds every substrate from scratch), so this engine
//! provides three *configurations* that mirror the algorithmic distinctions
//! the paper attributes to them — primarily the target cell selector
//! (first non-singleton for bliss per \[18\], smallest non-singleton for
//! nauty per \[26\], largest for the traces stand-in) — see
//! [`Config::bliss_like`], [`Config::nauty_like`], [`Config::traces_like`].
//!
//! The same engine also serves as the leaf labeler that `DviCL` calls in
//! `CombineCL` (Algorithm 4).

#![warn(missing_docs)]

mod search;
pub mod tree;

pub use dvicl_govern::{Budget, CancelToken, DviclError};
pub use search::{
    try_canonical_form, try_canonical_form_with, CanonResult, Config, SearchStats, TargetCell,
};
