//! Property-based tests for the refinement function `R`: the contract of
//! Section 4 — finer-or-equal, equitable, isomorphism-invariant — on
//! random graphs and colorings.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_govern::Budget;
use dvicl_graph::{Coloring, Graph, Perm, V};
use dvicl_refine::Refiner;
use proptest::prelude::*;

fn arb_colored_graph() -> impl Strategy<Value = (Graph, Coloring)> {
    (2usize..25).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..60),
            proptest::collection::vec(0u32..4, n),
        )
            .prop_map(move |(edges, labels)| {
                (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
            })
    })
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn shuffle(n: usize, seed: u64) -> Perm {
    let mut image: Vec<V> = (0..n as V).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        image.swap(i, (state >> 33) as usize % (i + 1));
    }
    Perm::from_image(image).expect("bijection")
}

proptest! {
    /// Property (i): R(G, π) ⪯ π, and the result is equitable.
    #[test]
    fn finer_and_equitable((g, pi) in arb_colored_graph()) {
        let r = Refiner::new().try_refine(&g, &pi, &Budget::unlimited()).unwrap();
        prop_assert!(r.coloring.is_finer_or_equal(&pi));
        prop_assert!(r.coloring.is_equitable(&g));
    }

    /// Property (iii): R(G^γ, π^γ) = R(G, π)^(γ⁻¹-conjugate), with equal
    /// traces (the node-invariant requirement).
    #[test]
    fn isomorphism_invariance((g, pi) in arb_colored_graph(), seed in any::<u64>()) {
        let gamma = shuffle(g.n(), seed);
        let r1 = Refiner::new().try_refine(&g, &pi, &Budget::unlimited()).unwrap();
        let r2 = Refiner::new().try_refine(
            &g.permuted(&gamma),
            &pi.apply_perm(&gamma.inverse()),
            &Budget::unlimited(),
        )
        .unwrap();
        prop_assert_eq!(r1.trace, r2.trace);
        prop_assert_eq!(r2.coloring, r1.coloring.apply_perm(&gamma.inverse()));
    }

    /// Refinement is idempotent: refining an equitable coloring is a no-op.
    #[test]
    fn idempotent((g, pi) in arb_colored_graph()) {
        let once = Refiner::new().try_refine(&g, &pi, &Budget::unlimited()).unwrap();
        let twice = Refiner::new().try_refine(&g, &once.coloring, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&twice.coloring, &once.coloring);
    }

    /// Individualization in place: v lands in a singleton cell; the result
    /// is finer and equitable; undo restores the refined coloring. At the
    /// root and at the child, whose spans hold their members out of
    /// order, `to_coloring` is the coloring the view's cells spell out.
    #[test]
    fn individualization_contract((g, pi) in arb_colored_graph()) {
        let mut r = Refiner::new();
        r.try_refine_in_place(&g, &pi, &Budget::unlimited()).unwrap();
        let refined = r.partition().to_coloring();
        prop_assert_eq!(Some(refined.clone()), spelled_out(&r));
        let Some(cell) = refined.cells().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[0];
        r.try_individualize(&g, v, &Budget::unlimited()).unwrap();
        let child = r.partition().to_coloring();
        prop_assert_eq!(Some(child.clone()), spelled_out(&r));
        prop_assert!(child.is_finer_or_equal(&refined));
        prop_assert!(child.is_equitable(&g));
        prop_assert!(child.cells().any(|c| c == [v]));
        r.undo();
        prop_assert_eq!(r.partition().to_coloring(), refined);
    }

    /// The recolored report lists exactly the vertices whose color
    /// changed, once each with its color before the call, and
    /// `recolored_from` answers the same for every vertex.
    #[test]
    fn recolored_vertices_are_exact((g, pi) in arb_colored_graph()) {
        let mut r = Refiner::new();
        r.try_refine_in_place(&g, &pi, &Budget::unlimited()).unwrap();
        let refined = r.partition().to_coloring();
        let Some(cell) = refined.cells().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[1 % cell.len()];
        r.try_individualize(&g, v, &Budget::unlimited()).unwrap();
        let child = r.partition().to_coloring();
        let mut reported: Vec<V> = Vec::new();
        for &(u, old) in r.recolored() {
            prop_assert_eq!(old, refined.color_of(u));
            reported.push(u);
        }
        reported.sort_unstable();
        let expected: Vec<V> = (0..g.n() as V)
            .filter(|&u| child.color_of(u) != refined.color_of(u))
            .collect();
        prop_assert_eq!(&reported, &expected);
        for u in 0..g.n() as V {
            let want = expected.contains(&u).then(|| refined.color_of(u));
            prop_assert_eq!(r.recolored_from(u), want);
        }
    }

    /// The non-singleton set a loaded partition keeps equals a scan of its
    /// cells after the load and after every step of a random walk of
    /// individualizations and undos, back to the root.
    #[test]
    fn non_singleton_set_matches_a_scan(
        (g, pi) in arb_colored_graph(),
        steps in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let mut r = Refiner::new();
        r.try_refine_in_place(&g, &pi, &Budget::unlimited()).unwrap();
        prop_assert_eq!(kept(&r), scanned(&r));
        let mut depth = 0;
        for step in steps {
            let targets: Vec<V> = r
                .partition()
                .cells()
                .filter(|c| c.len() > 1)
                .map(|c| c[step as usize % c.len()])
                .collect();
            if depth > 0 && (targets.is_empty() || step % 3 == 0) {
                r.undo();
                depth -= 1;
            } else if let Some(&v) = targets.get((step >> 32) as usize % targets.len().max(1)) {
                r.try_individualize(&g, v, &Budget::unlimited()).unwrap();
                depth += 1;
            }
            prop_assert_eq!(kept(&r), scanned(&r));
        }
        for _ in 0..depth {
            r.undo();
            prop_assert_eq!(kept(&r), scanned(&r));
        }
    }
}

/// The coloring whose cells are the partition's, in position order.
fn spelled_out(r: &Refiner) -> Option<Coloring> {
    Coloring::from_cells(r.partition().cells().map(<[V]>::to_vec).collect())
}

/// The loaded partition's non-singleton set, ascending.
fn kept(r: &Refiner) -> Vec<V> {
    let mut starts = r.partition().non_singleton().to_vec();
    starts.sort_unstable();
    starts
}

/// The colors of the partition's non-singleton cells, from a scan of
/// every cell in position order.
fn scanned(r: &Refiner) -> Vec<V> {
    let view = r.partition();
    view.cells()
        .filter(|c| c.len() > 1)
        .map(|c| view.color_of(c[0]))
        .collect()
}
