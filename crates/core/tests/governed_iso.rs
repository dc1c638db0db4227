//! Isomorphism answers must stay correct under any work budget: the
//! resilient build degrades to whole-graph labeling rather than giving a
//! wrong or missing answer.

use dvicl_core::iso::try_find_isomorphism_outcome;
use dvicl_core::{Budget, DviclError, DviclOptions};
use dvicl_graph::{named, Graph, Perm};

/// The isomorphism decision under `budget`.
fn are_isomorphic(g1: &Graph, g2: &Graph, budget: &Budget) -> Result<bool, DviclError> {
    Ok(
        try_find_isomorphism_outcome(g1, g2, &DviclOptions::default(), budget)?
            .mapping
            .is_some(),
    )
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn shuffle(g: &Graph, salt: u64) -> Graph {
    let n = g.n();
    // Deterministic Fisher–Yates via an LCG.
    let mut image: Vec<u32> = dvicl_graph::vertex_range(n).collect();
    let mut state = salt | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        image.swap(i, j);
    }
    g.permuted(&Perm::from_image(image).expect("valid image"))
}

#[test]
fn shuffled_graphs_stay_isomorphic_under_tiny_work_budgets() {
    for (salt, g) in [
        named::petersen(),
        named::fig1_example(),
        named::frucht(),
        named::hypercube(4),
        named::complete_bipartite(3, 4),
    ]
    .into_iter()
    .enumerate()
    {
        let h = shuffle(&g, salt as u64 + 17);
        for max_work in [1, 2, 5, 50] {
            let tight = Budget::with_max_work(max_work);
            assert_eq!(
                are_isomorphic(&g, &h, &tight),
                Ok(true),
                "salt {salt}, max_work {max_work}: degraded build changed the verdict"
            );
        }
        assert_eq!(are_isomorphic(&g, &h, &Budget::unlimited()), Ok(true));
    }
}

#[test]
fn non_isomorphic_pairs_stay_distinguished_under_tiny_work_budgets() {
    // Same n and m, different structure: C6 vs 2×C3, and the CFI-style
    // pair of 3-regular graphs (Petersen vs Möbius ladder M5).
    let pairs = [
        (
            named::cycle(6),
            named::cycle(3).disjoint_union(&named::cycle(3)),
        ),
        (
            named::petersen(),
            Graph::from_edges(
                10,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 8),
                    (8, 9),
                    (9, 0),
                    (0, 5),
                    (1, 6),
                    (2, 7),
                    (3, 8),
                    (4, 9),
                ],
            ),
        ),
    ];
    for (a, b) in &pairs {
        for max_work in [1, 3, 40] {
            assert_eq!(
                are_isomorphic(a, b, &Budget::with_max_work(max_work)),
                Ok(false)
            );
        }
    }
}

#[test]
fn deadline_exhaustion_is_an_error_not_a_degrade() {
    let g = named::hypercube(4);
    let expired = Budget::with_deadline(std::time::Duration::ZERO);
    std::thread::sleep(std::time::Duration::from_millis(2));
    let err = are_isomorphic(&g, &shuffle(&g, 3), &expired).unwrap_err();
    assert!(matches!(err, DviclError::BudgetExceeded { .. }));
    assert_eq!(err.exit_code(), 3);
}
