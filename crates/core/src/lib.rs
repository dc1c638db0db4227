//! `dvicl-core` — the paper's primary contribution.
//!
//! This crate implements **DviCL**, the divide-and-conquer canonical
//! labeling algorithm of *"Graph Iso/Auto-morphism: A Divide-&-Conquer
//! Approach"* (SIGMOD 2021), together with the **AutoTree** index it
//! constructs and everything the paper builds on top of it:
//!
//! * [`try_build_autotree`] — Algorithm 1 (`DviCL`) with `DivideI`/`DivideS`
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
//! * [`Session`] — a reusable build context (arena pools, refiner and
//!   combine arrays) that amortizes working memory across many graphs,
//!   the substrate of the `dvicl-index` batch isomorphism service.
//!
//! Every operation that can run long takes a [`Budget`] and returns a
//! `Result`; [`Budget::unlimited`] is the argument for no limit.

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

pub use arena::{ArenaMark, SubArena};
pub use build::{
    build_autotree_resilient, build_autotree_whole_leaf, try_build_autotree, BuildOutcome,
    DviclOptions,
};
pub use session::Session;
pub use sub::{Division, Sub};
pub use tree::{AutoTree, Node, NodeId, NodeKind, NodeRef, TreeStats};

/// Execution governance (re-export of `dvicl-govern`): [`govern::Budget`],
/// [`govern::CancelToken`], [`govern::DviclError`].
pub use dvicl_govern as govern;
pub use dvicl_govern::{Budget, CancelToken, DviclError};

pub use dvicl_graph::FormRef;
