//! Split cost follows the touched part of a cell, not the cell.
//!
//! Root refinement of a long path peels two vertices off the big cell per
//! splitter; a split that re-gathered the whole cell made that quadratic
//! (about 30 s for a 100 000-vertex path in release). With touched-only
//! splits the same refinement takes milliseconds, so a 5 s deadline —
//! generous for a debug build — is a regression gate for the default
//! kernel at every graph size.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_govern::Budget;
use dvicl_graph::{named, Coloring, Graph, V};
use dvicl_refine::Refiner;
use std::time::Duration;

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn refine_within_deadline(g: &Graph) -> Coloring {
    let budget = Budget::with_deadline(Duration::from_secs(5));
    let r = Refiner::new()
        .try_refine(g, &Coloring::unit(g.n()), &budget)
        .expect("root refinement must finish well inside the deadline");
    assert!(r.coloring.is_equitable(g));
    r.coloring
}

#[test]
fn long_path_refines_within_deadline() {
    let n = 100_000;
    let coloring = refine_within_deadline(&named::path(n));
    // Only the reflection survives: cells are the pairs {i, n-1-i}.
    assert_eq!(coloring.cells().count(), n / 2);
    assert!(coloring.cells().all(|c| c.len() == 2));
}

#[test]
fn broom_refines_within_deadline() {
    // A 60 000-vertex path whose last vertex is the center of a
    // 40 000-leaf star: the handle is rigid, the leaves stay one cell.
    let (handle, leaves) = (60_000usize, 40_000usize);
    let mut edges: Vec<(V, V)> = (1..handle as V).map(|v| (v - 1, v)).collect();
    let center = handle as V - 1;
    edges.extend((handle..handle + leaves).map(|leaf| (center, leaf as V)));
    let coloring = refine_within_deadline(&Graph::from_edges(handle + leaves, &edges));
    let cells: Vec<&[V]> = coloring.cells().collect();
    assert_eq!(cells.len(), handle + 1);
    assert_eq!(cells.iter().filter(|c| c.len() == 1).count(), handle);
}
