//! Property-based tests for the refinement function `R`: the contract of
//! Section 4 — finer-or-equal, equitable, isomorphism-invariant — on
//! random graphs and colorings.

use dvicl_graph::{Coloring, Graph, Perm, V};
use dvicl_refine::{refine, refine_individualized};
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
        let r = refine(&g, &pi);
        prop_assert!(r.coloring.is_finer_or_equal(&pi));
        prop_assert!(r.coloring.is_equitable(&g));
    }

    /// Property (iii): R(G^γ, π^γ) = R(G, π)^(γ⁻¹-conjugate), with equal
    /// traces (the node-invariant requirement).
    #[test]
    fn isomorphism_invariance((g, pi) in arb_colored_graph(), seed in any::<u64>()) {
        let gamma = shuffle(g.n(), seed);
        let r1 = refine(&g, &pi);
        let r2 = refine(&g.permuted(&gamma), &pi.apply_perm(&gamma.inverse()));
        prop_assert_eq!(r1.trace, r2.trace);
        prop_assert_eq!(r2.coloring, r1.coloring.apply_perm(&gamma.inverse()));
    }

    /// Refinement is idempotent: refining an equitable coloring is a no-op.
    #[test]
    fn idempotent((g, pi) in arb_colored_graph()) {
        let once = refine(&g, &pi);
        let twice = refine(&g, &once.coloring);
        prop_assert_eq!(&twice.coloring, &once.coloring);
        // ... and reports no newly created singletons beyond the existing
        // ones (everything already singleton counts as "new" at entry).
        prop_assert_eq!(
            twice.new_singletons.len(),
            once.coloring.num_singletons()
        );
    }

    /// Individualization: v lands in a singleton cell; result is finer and
    /// equitable; automorphic choices give equal traces.
    #[test]
    fn individualization_contract((g, pi) in arb_colored_graph()) {
        let refined = refine(&g, &pi).coloring;
        let Some(cell) = refined.cells().iter().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[0];
        let r = refine_individualized(&g, &refined, v);
        prop_assert!(r.coloring.is_finer_or_equal(&refined));
        prop_assert!(r.coloring.is_equitable(&g));
        prop_assert_eq!(r.coloring.cell_len_of(v), 1);
    }

    /// The new-singleton report is exactly the difference between the
    /// input and output singleton sets.
    #[test]
    fn new_singletons_are_exact((g, pi) in arb_colored_graph()) {
        let refined = refine(&g, &pi).coloring;
        let Some(cell) = refined.cells().iter().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[1 % cell.len()];
        let r = refine_individualized(&g, &refined, v);
        let before: std::collections::HashSet<V> = refined
            .cells()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0])
            .collect();
        let after: std::collections::HashSet<V> = r
            .coloring
            .cells()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0])
            .collect();
        let reported: std::collections::HashSet<V> = r.new_singletons.iter().copied().collect();
        let expected: std::collections::HashSet<V> = after.difference(&before).copied().collect();
        prop_assert_eq!(reported, expected);
    }
}
