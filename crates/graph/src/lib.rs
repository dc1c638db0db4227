//! Graph substrate for the DviCL reproduction.
//!
//! This crate provides the foundational data types shared by every other
//! crate in the workspace:
//!
//! * [`Graph`] — an immutable undirected simple graph in CSR (compressed
//!   sparse row) form, the representation used by the refinement and
//!   canonical-labeling engines.
//! * [`Perm`] — dense vertex permutations with cycle-notation parsing and
//!   printing, composition, and inversion (the paper's `γ`).
//! * [`Coloring`] — ordered partitions of the vertex set (the paper's `π`),
//!   with the finer-than relation, equitability checking, and projection.
//! * [`CanonForm`] — the totally ordered certificate `(G, π)^γ` represented
//!   as a color multiset plus a sorted relabeled edge list.
//! * [`io`] — plain-text edge-list reading and writing.
//! * [`graph6`] — the nauty ecosystem's compact ASCII format.
//! * [`named`] — constructors for well-known graphs with known automorphism
//!   groups, used pervasively in tests and examples.
//!
//! Vertices are `u32` indices in `0..n`. All graphs are simple (no
//! self-loops, no parallel edges) and undirected, matching the problem
//! definition in Section 2 of the paper.

#![warn(missing_docs)]

mod coloring;
mod fingerprint;
mod form;
mod graph;
pub mod graph6;
pub mod io;
pub mod named;
mod perm;

pub use coloring::Coloring;
pub use fingerprint::Fingerprint;
pub use form::{CanonForm, FormRef};
pub use graph::{Graph, GraphBuilder};
pub use perm::Perm;

/// Vertex identifier. Graphs in this workspace address vertices as dense
/// `u32` indices in `0..n`, with `n <= V::MAX` ([`MAX_VERTICES`]): every
/// vertex id and every position in a vertex-indexed array fits in a `V`,
/// and `V::MAX` itself is never a vertex, so it can mark "none".
pub type V = u32;

/// The most vertices a graph may have. [`GraphBuilder`] and
/// [`Graph::from_csr`] refuse more; the input parsers reject such a
/// graph with a typed error before building it.
pub const MAX_VERTICES: usize = V::MAX as usize;

/// A vertex count, or a position among at most [`MAX_VERTICES`]
/// vertices, as a [`V`]. Panics if `n > MAX_VERTICES`: every vertex count
/// in the workspace is bounded by a built graph's, so this never
/// truncates.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "n <= MAX_VERTICES = V::MAX is asserted first"
)]
pub fn as_vertex(n: usize) -> V {
    assert!(n <= MAX_VERTICES, "{n} exceeds MAX_VERTICES");
    n as V
}

/// The vertex ids `0..n` as [`V`]s. Panics if `n > MAX_VERTICES`.
#[inline]
pub fn vertex_range(n: usize) -> std::ops::Range<V> {
    0..as_vertex(n)
}
