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

/// True iff the two graphs are isomorphic (unit colorings).
pub fn are_isomorphic(g1: &Graph, g2: &Graph) -> bool {
    g1.n() == g2.n() && g1.m() == g2.m() && canonical_form(g1) == canonical_form(g2)
}

/// True iff the two *colored* graphs are isomorphic.
pub fn are_isomorphic_colored(g1: &Graph, pi1: &Coloring, g2: &Graph, pi2: &Coloring) -> bool {
    let opts = DviclOptions::default();
    g1.n() == g2.n()
        && g1.m() == g2.m()
        && same_cell_sizes(pi1, pi2)
        && build_autotree(g1, pi1, &opts).canonical_form()
            == build_autotree(g2, pi2, &opts).canonical_form()
}

/// True iff the two colorings have equal cell-size sequences.
///
/// An AutoTree certificate describes the *refined* input coloring, and
/// refinement can carry colorings with different cell sizes onto the
/// same refined one: `P₃ + K₁` colored `[isolated | rest]` and
/// `[rest | center]` both refine to `[isolated | leaves | center]`. So
/// two colored graphs are isomorphic iff their certificates are equal
/// *and* this holds. Unit colorings of equal size always pass.
pub(crate) fn same_cell_sizes(pi1: &Coloring, pi2: &Coloring) -> bool {
    pi1.cells()
        .iter()
        .map(Vec::len)
        .eq(pi2.cells().iter().map(Vec::len))
}

/// Budgeted [`are_isomorphic`] with graceful degradation: when the
/// divide-and-conquer builds exhaust the budget's work cap, both sides
/// fall back to whole-graph IR labeling. A degraded (single-leaf)
/// certificate is not comparable with a divided-tree certificate of the
/// same graph, so if only one side degrades the other is rebuilt in
/// degraded mode too — the answer stays correct under any work budget.
pub fn try_are_isomorphic(g1: &Graph, g2: &Graph, budget: &Budget) -> Result<bool, DviclError> {
    if g1.n() != g2.n() || g1.m() != g2.m() {
        return Ok(false);
    }
    let opts = DviclOptions::default();
    let unit1 = Coloring::unit(g1.n());
    let unit2 = Coloring::unit(g2.n());
    let mut t1 = build_autotree_resilient(g1, &unit1, &opts, budget)?;
    let mut t2 = build_autotree_resilient(g2, &unit2, &opts, budget)?;
    if t1.degraded != t2.degraded {
        // Rebuild the non-degraded side as a whole-graph leaf so the
        // certificates are comparable (same labeling mode on both sides).
        let relaxed = budget.without_work_limit();
        if t1.degraded {
            t2 = BuildOutcome {
                tree: build_autotree_whole_leaf(g2, &unit2, &opts, &relaxed)?,
                degraded: true,
            };
        } else {
            t1 = BuildOutcome {
                tree: build_autotree_whole_leaf(g1, &unit1, &opts, &relaxed)?,
                degraded: true,
            };
        }
    }
    Ok(t1.tree.canonical_form() == t2.tree.canonical_form())
}
