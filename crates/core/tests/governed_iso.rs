//! Isomorphism answers under a work cap are the true verdict or a typed
//! `WorkUnits` error, never a wrong verdict: a cap aborts the answer, it
//! does not switch to another labeling.

use dvicl_core::iso::try_find_isomorphism;
use dvicl_core::{Budget, DviclError, DviclOptions};
use dvicl_govern::Resource;
use dvicl_graph::{named, Graph, Perm};

/// The isomorphism decision under `budget`.
fn are_isomorphic(g1: &Graph, g2: &Graph, budget: &Budget) -> Result<bool, DviclError> {
    Ok(try_find_isomorphism(g1, g2, &DviclOptions::default(), budget)?.is_some())
}

/// Asserts that the verdict under a cap of `max_work` units is
/// `expected` or a work-unit trip, and returns whether it answered.
fn capped_verdict(g1: &Graph, g2: &Graph, max_work: u64, expected: bool) -> bool {
    match are_isomorphic(g1, g2, &Budget::with_max_work(max_work)) {
        Ok(verdict) => {
            assert_eq!(verdict, expected, "max_work {max_work}: wrong verdict");
            true
        }
        Err(e) => {
            assert!(
                matches!(
                    e,
                    DviclError::BudgetExceeded {
                        resource: Resource::WorkUnits,
                        ..
                    }
                ),
                "max_work {max_work}: expected a work-unit trip, got {e}"
            );
            false
        }
    }
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
fn shuffled_graphs_are_isomorphic_or_trip_under_work_caps() {
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
        assert!(
            !capped_verdict(&g, &h, 1, true),
            "salt {salt}: one unit sufficed"
        );
        for max_work in [2, 5, 50, 5_000] {
            capped_verdict(&g, &h, max_work, true);
        }
        assert!(
            capped_verdict(&g, &h, 1_000_000, true),
            "salt {salt}: a large cap tripped"
        );
        assert_eq!(are_isomorphic(&g, &h, &Budget::unlimited()), Ok(true));
    }
}

#[test]
fn non_isomorphic_pairs_are_distinguished_or_trip_under_work_caps() {
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
        assert!(!capped_verdict(a, b, 1, false), "one unit sufficed");
        for max_work in [3, 40, 5_000] {
            capped_verdict(a, b, max_work, false);
        }
        assert!(
            capped_verdict(a, b, 1_000_000, false),
            "a large cap tripped"
        );
    }
}

#[test]
fn deadline_exhaustion_is_an_error() {
    let g = named::hypercube(4);
    let expired = Budget::with_deadline(std::time::Duration::ZERO);
    std::thread::sleep(std::time::Duration::from_millis(2));
    let err = are_isomorphic(&g, &shuffle(&g, 3), &expired).unwrap_err();
    assert!(matches!(
        err,
        DviclError::BudgetExceeded {
            resource: Resource::WallClock,
            ..
        }
    ));
    assert_eq!(err.exit_code(), 3);
}
