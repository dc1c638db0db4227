//! Explicit isomorphism extraction: not just *whether* two graphs are
//! isomorphic (certificate equality) but a concrete vertex bijection
//! realizing the isomorphism — composed from the two canonical labelings
//! (`γ₁ ∘ γ₂⁻¹`), the standard use of a canonical form the paper notes for
//! database retrieval.

use crate::build::{try_build_autotree, DviclOptions};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{as_vertex, Coloring, Graph, Perm, V};

/// Finds an isomorphism `γ` with `g1^γ = g2` (unit colorings), or
/// `None` if the graphs are not isomorphic. Both trees are built with
/// `opts` under the one `budget`; any exhausted limit, a work cap
/// included, aborts with a typed error. Pass [`Budget::unlimited`] for
/// no limit.
pub fn try_find_isomorphism(
    g1: &Graph,
    g2: &Graph,
    opts: &DviclOptions,
    budget: &Budget,
) -> Result<Option<Perm>, DviclError> {
    try_find_isomorphism_colored(
        g1,
        &Coloring::unit(g1.n()),
        g2,
        &Coloring::unit(g2.n()),
        opts,
        budget,
    )
}

/// Colored variant of [`try_find_isomorphism`]: the returned `γ`
/// additionally maps each cell of `pi1` onto the equally colored cell
/// of `pi2`.
pub fn try_find_isomorphism_colored(
    g1: &Graph,
    pi1: &Coloring,
    g2: &Graph,
    pi2: &Coloring,
    opts: &DviclOptions,
    budget: &Budget,
) -> Result<Option<Perm>, DviclError> {
    if !same_shape(g1, pi1, g2, pi2) {
        return Ok(None);
    }
    let t1 = try_build_autotree(g1, pi1, opts, budget)?;
    let t2 = try_build_autotree(g2, pi2, opts, budget)?;
    if t1.canonical_form() != t2.canonical_form() {
        return Ok(None);
    }
    let gamma = t1
        .canonical_labeling()
        .then(&t2.canonical_labeling().inverse());
    debug_assert_eq!(
        g1.permuted(&gamma),
        *g2,
        "composed labeling must realize the isomorphism"
    );
    Ok(Some(gamma))
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
        && pi1.cells().map(<[V]>::len).eq(pi2.cells().map(<[V]>::len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    pub(super) fn find_isomorphism(g1: &Graph, g2: &Graph) -> Option<Perm> {
        try_find_isomorphism(g1, g2, &DviclOptions::default(), &Budget::unlimited())
            .expect("unlimited build cannot fail")
    }

    #[test]
    fn recovers_a_valid_mapping() {
        for g in [
            named::petersen(),
            named::fig1_example(),
            named::rary_tree(2, 3),
            named::frucht(),
        ] {
            let gamma = Perm::from_cycles(g.n(), &[&[0, as_vertex(g.n() - 1)], &[1, 2]]).unwrap();
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
        let colored = |pi1, pi2| {
            try_find_isomorphism_colored(
                &g,
                pi1,
                &g,
                pi2,
                &DviclOptions::default(),
                &Budget::unlimited(),
            )
            .unwrap()
        };
        let gamma = colored(&pin_end, &pin_other_end).expect("ends are exchangeable");
        assert_eq!(gamma.apply(0), 2); // the pinned end must map to the pinned end
        assert!(colored(&pin_end, &pin_mid).is_none());
    }

    #[test]
    fn a_work_cap_is_a_typed_error() {
        // Petersen's build spends more than two units, so a cap of two
        // aborts the answer instead of relabeling the graph some other way.
        let g = named::petersen();
        let h = g.permuted(&Perm::from_cycles(10, &[&[0, 7], &[2, 4, 9]]).unwrap());
        let opts = DviclOptions::default();
        assert!(matches!(
            try_find_isomorphism(&g, &h, &opts, &Budget::with_max_work(2)),
            Err(DviclError::BudgetExceeded {
                resource: dvicl_govern::Resource::WorkUnits,
                ..
            })
        ));
        // A size mismatch is answered without building anything, so it
        // spends nothing and fits any cap.
        let capped = Budget::with_max_work(0);
        assert_eq!(
            try_find_isomorphism(&g, &named::cycle(5), &opts, &capped),
            Ok(None)
        );
        assert_eq!(capped.work_spent(), 0);
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
/// [`try_find_isomorphism`] (two independent canonical forms) is
/// the practical API; this function exists to exercise the theorem's
/// construction and is tested to agree with it. `budget` governs the
/// build of the auxiliary graph.
pub fn try_are_isomorphic_joint(
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
) -> Result<bool, DviclError> {
    if g1.n() != g2.n() || g1.m() != g2.m() {
        return Ok(false);
    }
    let n = g1.n();
    if n == 0 {
        return Ok(true);
    }
    let shift = g1.vertices().end;
    let u = as_vertex(2 * n);
    let mut edges: Vec<(u32, u32)> = g1.edges().collect();
    edges.extend(g2.edges().map(|(a, b)| (a + shift, b + shift)));
    for v in 0..u {
        edges.push((v, u));
    }
    let joint = Graph::from_edges(2 * n + 1, &edges);
    let unit = Coloring::unit(joint.n());
    let tree = try_build_autotree(&joint, &unit, &DviclOptions::default(), budget)?;
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
    Ok(side1 == side2)
}

#[cfg(test)]
mod joint_tests {
    use super::tests::find_isomorphism;
    use super::*;
    use dvicl_graph::named;

    fn are_isomorphic_joint(g1: &Graph, g2: &Graph) -> bool {
        try_are_isomorphic_joint(g1, g2, &Budget::unlimited()).expect("unlimited build cannot fail")
    }

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
                    &[
                        (0, 1),
                        (1, 2),
                        (2, 0),
                        (3, 4),
                        (4, 5),
                        (5, 3),
                        (0, 3),
                        (1, 4),
                        (2, 5),
                    ],
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
        let gamma = Perm::from_cycles(g.n(), &[&[0, 13, 7], &[2, 6, 4], &[1, 11]]).unwrap();
        assert!(are_isomorphic_joint(&g, &g.permuted(&gamma)));
    }
}
