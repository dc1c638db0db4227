//! `dvicl-core` — the paper's primary contribution.
//!
//! This crate implements **DviCL**, the divide-and-conquer canonical
//! labeling algorithm of *"Graph Iso/Auto-morphism: A Divide-&-Conquer
//! Approach"* (SIGMOD 2021), together with the **AutoTree** index it
//! constructs and everything the paper builds on top of it:
//!
//! * [`build_autotree`] — Algorithm 1 (`DviCL`) with `DivideI`/`DivideS`
//!   (Algorithms 2–3) and `CombineCL`/`CombineST` (Algorithms 4–5).
//! * [`AutoTree`] — the tree index: canonical form, canonical labeling,
//!   sibling classes of symmetric subgraphs, structural statistics.
//! * [`aut`] — the automorphism group from the tree: generators, orbits,
//!   exact group order.
//! * [`ssm`] — symmetric subgraph matching (`SSM-AT`, Algorithm 6),
//!   symmetric-set keys, and exact counting of symmetric images.
//! * [`sm`] — a VF2-style induced subgraph matcher (the `SM` subroutine
//!   and the paper's SSM baseline).
//! * [`simplify`] — the structural-equivalence optimization of §6.1.
//! * [`iso`] — explicit isomorphism-mapping extraction between graphs.
//! * [`ksym`] — the k-symmetry anonymization application.
//! * [`verify`] — witness checking: near-linear runtime proofs that the
//!   labelings, generators and iso mappings above actually hold on the
//!   input graph (the `--paranoid` machinery, DESIGN.md §11).
//! * [`Session`] — a reusable build context (arena pools + `CombineCL`
//!   memo) that amortizes working memory and memoized leaf labelings
//!   across many graphs, the substrate of the `dvicl-index` batch
//!   isomorphism service.
//! * convenience wrappers: [`canonical_form`], [`are_isomorphic`].

#![warn(missing_docs)]

mod arena;
pub mod aut;
mod build;
pub mod iso;
pub mod ksym;
mod session;
pub mod simplify;
pub mod sm;
pub mod ssm;
mod sub;
mod tree;
pub mod verify;

pub use build::{
    build_autotree, build_autotree_resilient, build_autotree_whole_leaf, try_build_autotree,
    BuildOutcome, DviclOptions,
};
pub use arena::{ArenaMark, SubArena};
pub use session::Session;
pub use sub::{Division, Sub, SubCell};
pub use tree::{AutoTree, Node, NodeId, NodeKind, NodeRef, TreeStats};

/// Execution governance (re-export of `dvicl-govern`): [`govern::Budget`],
/// [`govern::CancelToken`], [`govern::DviclError`].
pub use dvicl_govern as govern;
pub use dvicl_govern::{Budget, CancelToken, DviclError};

use dvicl_graph::{CanonForm, Coloring, Graph};

pub use dvicl_graph::FormRef;

/// Canonically labels `g` (unit coloring, default options) and returns the
/// certificate.
pub fn canonical_form(g: &Graph) -> CanonForm {
    build_autotree(g, &Coloring::unit(g.n()), &DviclOptions::default())
        .canonical_form()
        .to_form()
}

/// True iff the two graphs are isomorphic (unit colorings): the
/// [`iso::find_isomorphism`] decision without the mapping.
pub fn are_isomorphic(g1: &Graph, g2: &Graph) -> bool {
    iso::find_isomorphism(g1, g2).is_some()
}

/// True iff the two *colored* graphs are isomorphic: the
/// [`iso::find_isomorphism_colored`] decision without the mapping.
pub fn are_isomorphic_colored(g1: &Graph, pi1: &Coloring, g2: &Graph, pi2: &Coloring) -> bool {
    iso::find_isomorphism_colored(g1, pi1, g2, pi2).is_some()
}

/// Budgeted [`are_isomorphic`] with graceful degradation: the
/// [`iso::try_find_isomorphism_outcome`] decision without the mapping.
/// When the divide-and-conquer builds exhaust the budget's work cap,
/// both sides fall back to whole-graph IR labeling, so the answer stays
/// correct under any work budget.
pub fn try_are_isomorphic(g1: &Graph, g2: &Graph, budget: &Budget) -> Result<bool, DviclError> {
    Ok(iso::try_find_isomorphism_outcome(g1, g2, budget)?
        .mapping
        .is_some())
}
