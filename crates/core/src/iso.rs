//! Explicit isomorphism extraction: not just *whether* two graphs are
//! isomorphic (certificate equality) but a concrete vertex bijection
//! realizing the isomorphism — composed from the two canonical labelings
//! (`γ₁ ∘ γ₂⁻¹`), the standard use of a canonical form the paper notes for
//! database retrieval.

use crate::build::{
    build_autotree, build_autotree_resilient, build_autotree_whole_leaf, BuildOutcome,
    DviclOptions,
};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Coloring, Graph, Perm};

/// Finds an isomorphism `γ` with `g1^γ = g2`, or `None` if the graphs are
/// not isomorphic. Unit colorings.
pub fn find_isomorphism(g1: &Graph, g2: &Graph) -> Option<Perm> {
    find_isomorphism_colored(g1, &Coloring::unit(g1.n()), g2, &Coloring::unit(g2.n()))
}

/// Colored variant: the returned `γ` additionally maps each cell of `pi1`
/// onto the equally colored cell of `pi2`.
pub fn find_isomorphism_colored(
    g1: &Graph,
    pi1: &Coloring,
    g2: &Graph,
    pi2: &Coloring,
) -> Option<Perm> {
    if !same_shape(g1, pi1, g2, pi2) {
        return None;
    }
    let opts = DviclOptions::default();
    let t1 = build_autotree(g1, pi1, &opts);
    let t2 = build_autotree(g2, pi2, &opts);
    if t1.canonical_form() != t2.canonical_form() {
        return None;
    }
    // λ₁ maps g1 onto the canonical graph, λ₂ maps g2 onto the same one:
    // γ = λ₁ ∘ λ₂⁻¹ maps g1 onto g2.
    let gamma = t1.canonical_labeling().then(&t2.canonical_labeling().inverse());
    debug_assert_eq!(g1.permuted(&gamma), *g2, "composed labeling must realize the isomorphism");
    Some(gamma)
}

/// The result of a budgeted isomorphism extraction: the mapping (if the
/// graphs are isomorphic) plus whether the answer came from degraded
/// (whole-graph fallback) builds — callers that surface degradation to
/// users (the CLI's stderr marker) need the flag, not just the mapping.
pub struct IsoOutcome {
    /// An isomorphism `γ` with `g1^γ = g2`, or `None` if the graphs are
    /// not isomorphic.
    pub mapping: Option<Perm>,
    /// True when a work-cap exhaustion forced whole-graph IR labeling
    /// on both sides. The answer is still exact.
    pub degraded: bool,
}

/// Budgeted [`find_isomorphism`] with graceful degradation (see
/// [`try_find_isomorphism_colored_outcome`]): a work-cap exhaustion
/// degrades both sides to whole-graph IR labeling instead of failing, so
/// the mapping — composed from two labelings produced in the *same*
/// mode — stays valid.
pub fn try_find_isomorphism(
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
) -> Result<Option<Perm>, DviclError> {
    Ok(try_find_isomorphism_outcome(g1, g2, budget)?.mapping)
}

/// [`try_find_isomorphism`] with the degradation flag exposed.
pub fn try_find_isomorphism_outcome(
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
) -> Result<IsoOutcome, DviclError> {
    try_find_isomorphism_colored_outcome(
        g1,
        &Coloring::unit(g1.n()),
        g2,
        &Coloring::unit(g2.n()),
        budget,
    )
}

/// Budgeted [`find_isomorphism_colored`].
pub fn try_find_isomorphism_colored(
    g1: &Graph,
    pi1: &Coloring,
    g2: &Graph,
    pi2: &Coloring,
    budget: &Budget,
) -> Result<Option<Perm>, DviclError> {
    Ok(try_find_isomorphism_colored_outcome(g1, pi1, g2, pi2, budget)?.mapping)
}

/// [`try_find_isomorphism_colored`] with the degradation flag exposed.
///
/// A degraded (single-leaf) certificate is not comparable with a
/// divided-tree certificate of the same graph, so if only one side
/// degrades the other is rebuilt in degraded mode too.
pub fn try_find_isomorphism_colored_outcome(
    g1: &Graph,
    pi1: &Coloring,
    g2: &Graph,
    pi2: &Coloring,
    budget: &Budget,
) -> Result<IsoOutcome, DviclError> {
    if !same_shape(g1, pi1, g2, pi2) {
        return Ok(IsoOutcome {
            mapping: None,
            degraded: false,
        });
    }
    let opts = DviclOptions::default();
    let mut t1 = build_autotree_resilient(g1, pi1, &opts, budget)?;
    let mut t2 = build_autotree_resilient(g2, pi2, &opts, budget)?;
    if t1.degraded != t2.degraded {
        // Certificates from a divided tree and a whole-graph leaf are not
        // comparable; rebuild the non-degraded side in degraded mode.
        let relaxed = budget.without_work_limit();
        if t1.degraded {
            t2 = BuildOutcome {
                tree: build_autotree_whole_leaf(g2, pi2, &opts, &relaxed)?,
                degraded: true,
            };
        } else {
            t1 = BuildOutcome {
                tree: build_autotree_whole_leaf(g1, pi1, &opts, &relaxed)?,
                degraded: true,
            };
        }
    }
    let degraded = t1.degraded;
    if t1.tree.canonical_form() != t2.tree.canonical_form() {
        return Ok(IsoOutcome {
            mapping: None,
            degraded,
        });
    }
    let gamma = t1
        .tree
        .canonical_labeling()
        .then(&t2.tree.canonical_labeling().inverse());
    debug_assert_eq!(g1.permuted(&gamma), *g2, "composed labeling must realize the isomorphism");
    Ok(IsoOutcome {
        mapping: Some(gamma),
        degraded,
    })
}

/// The checks that answer "not isomorphic" without building anything:
/// equal vertex and edge counts, and equal cell-size sequences.
///
/// An AutoTree certificate describes the *refined* input coloring, and
/// refinement can carry colorings with different cell sizes onto the
/// same refined one: `P₃ + K₁` colored `[isolated | rest]` and
/// `[rest | center]` both refine to `[isolated | leaves | center]`. So
/// two colored graphs are isomorphic iff their certificates are equal
/// *and* their cell sizes are. Unit colorings of equal size always pass.
fn same_shape(g1: &Graph, pi1: &Coloring, g2: &Graph, pi2: &Coloring) -> bool {
    g1.n() == g2.n()
        && g1.m() == g2.m()
        && pi1
            .cells()
            .iter()
            .map(Vec::len)
            .eq(pi2.cells().iter().map(Vec::len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    #[test]
    fn recovers_a_valid_mapping() {
        for g in [
            named::petersen(),
            named::fig1_example(),
            named::rary_tree(2, 3),
            named::frucht(),
        ] {
            let gamma = Perm::from_cycles(g.n(), &[&[0, (g.n() - 1) as u32], &[1, 2]]).unwrap();
            let h = g.permuted(&gamma);
            let found = find_isomorphism(&g, &h).expect("isomorphic by construction");
            assert_eq!(g.permuted(&found), h);
        }
    }

    #[test]
    fn rejects_non_isomorphic() {
        assert!(find_isomorphism(&named::cycle(6), &named::complete_bipartite(3, 3)).is_none());
        assert!(find_isomorphism(
            &named::cycle(6),
            &named::cycle(3).disjoint_union(&named::cycle(3))
        )
        .is_none());
        assert!(find_isomorphism(&named::cycle(6), &named::cycle(7)).is_none());
    }

    #[test]
    fn respects_colors() {
        let g = named::path(3); // 0-1-2
        let pin_end = Coloring::from_cells(vec![vec![1, 2], vec![0]]).unwrap();
        let pin_other_end = Coloring::from_cells(vec![vec![0, 1], vec![2]]).unwrap();
        let pin_mid = Coloring::from_cells(vec![vec![0, 2], vec![1]]).unwrap();
        let gamma = find_isomorphism_colored(&g, &pin_end, &g, &pin_other_end)
            .expect("ends are exchangeable");
        assert_eq!(gamma.apply(0), 2); // the pinned end must map to the pinned end
        assert!(find_isomorphism_colored(&g, &pin_end, &g, &pin_mid).is_none());
    }

    #[test]
    fn degraded_mapping_is_still_an_isomorphism() {
        // Under a work budget far too small for the divide-and-conquer
        // build, the extracted mapping must still realize g1 ≅ g2.
        let g = named::petersen();
        let gamma = Perm::from_cycles(10, &[&[0, 7], &[2, 4, 9]]).unwrap();
        let h = g.permuted(&gamma);
        let tight = Budget::with_max_work(2);
        let found = try_find_isomorphism(&g, &h, &tight)
            .expect("work exhaustion must degrade, not fail")
            .expect("isomorphic by construction");
        assert_eq!(g.permuted(&found), h);
        // A non-isomorphic pair with the same vertex and edge counts (the
        // Möbius ladder M5 is 3-regular on 10 vertices like Petersen, but
        // has girth 4) still comes back negative when degraded.
        let ladder = dvicl_graph::Graph::from_edges(
            10,
            &[
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 0),
                (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            ],
        );
        assert_eq!(
            try_find_isomorphism(&g, &ladder, &Budget::with_max_work(2)).unwrap(),
            None
        );
    }

    #[test]
    fn outcome_exposes_the_degradation_flag() {
        let g = named::petersen();
        let h = g.permuted(&Perm::from_cycles(10, &[&[0, 7]]).unwrap());
        let out = try_find_isomorphism_outcome(&g, &h, &Budget::with_max_work(2)).unwrap();
        assert!(out.degraded);
        assert!(out.mapping.is_some());
        let out = try_find_isomorphism_outcome(&g, &h, &Budget::unlimited()).unwrap();
        assert!(!out.degraded);
        // A size mismatch is answered without building anything.
        let out = try_find_isomorphism_outcome(&g, &named::cycle(5), &Budget::unlimited()).unwrap();
        assert!(!out.degraded);
        assert!(out.mapping.is_none());
    }

    #[test]
    fn rigid_mapping_is_unique() {
        let g = named::frucht();
        let gamma = Perm::from_cycles(12, &[&[0, 5], &[3, 8, 11]]).unwrap();
        let h = g.permuted(&gamma);
        // A rigid graph has exactly one isomorphism: the found mapping must
        // be γ itself.
        assert_eq!(find_isomorphism(&g, &h).unwrap(), gamma);
    }
}

/// Isomorphism test via the paper's Theorem 6.9 construction: build the
/// auxiliary graph containing `g1`, `g2` and one universal vertex `u`
/// adjacent to everything; `g1 ≅ g2` iff the AutoTree of the auxiliary
/// graph makes the two sides symmetric siblings (equal certificates under
/// the root).
///
/// [`find_isomorphism`] (two independent canonical forms) is the practical
/// API; this function exists to exercise the theorem's construction and is
/// tested to agree with it.
pub fn are_isomorphic_joint(g1: &Graph, g2: &Graph) -> bool {
    if g1.n() != g2.n() || g1.m() != g2.m() {
        return false;
    }
    let n = g1.n();
    if n == 0 {
        return true;
    }
    // dvicl-lint: allow(narrowing-cast) -- n = g1.n() <= V::MAX by Graph's construction invariant
    let shift = n as u32;
    let u = 2 * shift;
    let mut edges: Vec<(u32, u32)> = g1.edges().collect();
    edges.extend(g2.edges().map(|(a, b)| (a + shift, b + shift)));
    for v in 0..u {
        edges.push((v, u));
    }
    let joint = Graph::from_edges(2 * n + 1, &edges);
    let tree = build_autotree(&joint, &Coloring::unit(joint.n()), &DviclOptions::default());
    // The universal vertex is the axis; the root's children split into
    // {u} plus the connected pieces of g1 and g2. g1 ≅ g2 iff every
    // child-class is evenly split between the two sides — equivalently,
    // iff side 0's multiset of child certificates equals side 1's.
    let root = tree.node(tree.root());
    let mut side1: Vec<dvicl_graph::FormRef> = Vec::new();
    let mut side2: Vec<dvicl_graph::FormRef> = Vec::new();
    for &c in root.children() {
        let node = tree.node(c);
        if node.verts() == [u] {
            continue;
        }
        #[expect(
            clippy::unreachable,
            reason = "root children refine connected components, and every component of joint minus the axis lies wholly on one side"
        )]
        if node.verts().iter().all(|&v| v < shift) {
            side1.push(node.form());
        } else if node.verts().iter().all(|&v| v >= shift && v < u) {
            side2.push(node.form());
        } else {
            unreachable!("a root child mixes the two sides");
        }
    }
    side1.sort();
    side2.sort();
    side1 == side2
}

#[cfg(test)]
mod joint_tests {
    use super::*;
    use dvicl_graph::named;

    #[test]
    fn joint_construction_agrees_with_certificates() {
        let cases: Vec<(Graph, Graph, bool)> = vec![
            (named::petersen(), named::petersen(), true),
            (
                named::cycle(6),
                named::cycle(3).disjoint_union(&named::cycle(3)),
                false,
            ),
            (
                named::complete_bipartite(3, 3),
                Graph::from_edges(
                    6,
                    &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
                ),
                false,
            ),
            (named::path(5), named::path(5), true),
            (named::frucht(), named::frucht(), true),
        ];
        for (a, b, expected) in cases {
            assert_eq!(are_isomorphic_joint(&a, &b), expected);
            assert_eq!(
                are_isomorphic_joint(&a, &b),
                find_isomorphism(&a, &b).is_some()
            );
        }
    }

    #[test]
    fn joint_construction_on_shuffles() {
        let g = named::fig3_example();
        let gamma =
            Perm::from_cycles(g.n(), &[&[0, 13, 7], &[2, 6, 4], &[1, 11]]).unwrap();
        assert!(are_isomorphic_joint(&g, &g.permuted(&gamma)));
    }
}
