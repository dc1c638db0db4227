//! Kernel parity: the sorting-based `GeneralKernel` and the dense
//! `BitsetKernel` must be observationally identical — same equitable
//! coloring *in the same cell order*, same trace hash, same
//! new-singleton creation order — on any colored graph. Everything
//! downstream (node invariants, certificates, orbit pruning) consumes
//! those three outputs, so this equality is exactly what makes
//! `--kernel` a pure wall-clock choice.
//!
//! The strategies deliberately straddle the bitset kernel's internal
//! thresholds: small dense graphs exercise the popcount counting path,
//! graphs with few colors and ≥32-vertex cells exercise the radix
//! (counting-sort) split, and sparse scatterings exercise the
//! adjacency-list path with the touched-aggregate uniformity test and
//! touched-only splits — large sparse cells in particular, where most
//! splits leave a big untouched count-0 fragment in place and swap
//! touched members out of its head.

use dvicl_graph::{Coloring, Graph, V};
use dvicl_refine::{KernelKind, Refiner};
use proptest::prelude::*;

/// Random colored graphs around the scatter/popcount boundary.
fn arb_colored_graph() -> impl Strategy<Value = (Graph, Coloring)> {
    (2usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..120),
            proptest::collection::vec(0u32..4, n),
        )
            .prop_map(move |(edges, labels)| {
                (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
            })
    })
}

/// Dense graphs (m ≈ n²/4) small enough for the popcount gate.
fn arb_dense_graph() -> impl Strategy<Value = (Graph, Coloring)> {
    (8usize..48).prop_flat_map(|n| {
        let m = n * n / 4;
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), m..m + n),
            proptest::collection::vec(0u32..3, n),
        )
            .prop_map(move |(edges, labels)| {
                (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
            })
    })
}

/// Large near-monochrome graphs: the initial cells hold ≥32 vertices,
/// so splits take the radix (degree-bucket counting sort) path.
fn arb_big_cell_graph() -> impl Strategy<Value = (Graph, Coloring)> {
    (64usize..140).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), n..4 * n),
            proptest::collection::vec(0u32..2, n),
        )
            .prop_map(move |(edges, labels)| {
                (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
            })
    })
}

/// Large sparse graphs (m ≈ n, 1–2 colors): big cells that each
/// splitter grazes, so touched-only splits run with touched members on
/// both sides of the untouched/touched boundary, and later splits see
/// the non-ascending spans earlier ones left behind.
fn arb_large_sparse_graph() -> impl Strategy<Value = (Graph, Coloring)> {
    (200usize..2000).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), n - n / 8..n + n / 8),
            proptest::collection::vec(0u32..2, n),
        )
            .prop_map(move |(edges, labels)| {
                (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
            })
    })
}

fn assert_parity(g: &Graph, pi: &Coloring) -> Result<(), String> {
    let a = Refiner::with_kernel(KernelKind::General).refine(g, pi);
    let b = Refiner::with_kernel(KernelKind::Bitset).refine(g, pi);
    // Full structural equality: coloring (cells AND their order), trace,
    // new-singleton order. `Coloring::to_string` is cell-order-sensitive,
    // so compare it too for a readable failure message.
    prop_assert_eq!(
        a.coloring.to_string(),
        b.coloring.to_string(),
        "cell order diverged"
    );
    prop_assert_eq!(&a, &b);
    // Individualize the first vertex of the first non-singleton cell and
    // re-refine: the seeded (swapped, non-ascending) cell layout and the
    // incremental splitter queue must also agree across kernels.
    if let Some(cell) = a.coloring.cells().iter().find(|c| c.len() > 1) {
        let v: V = cell[0];
        let ai = Refiner::with_kernel(KernelKind::General).refine_individualized(g, &a.coloring, v);
        let bi = Refiner::with_kernel(KernelKind::Bitset).refine_individualized(g, &b.coloring, v);
        prop_assert_eq!(&ai, &bi);
    }
    Ok(())
}

proptest! {
    /// Scalar vs bitset on random colored graphs: same partition, same
    /// cell order, same trace, same singleton order.
    #[test]
    fn kernels_agree_on_random_graphs((g, pi) in arb_colored_graph()) {
        assert_parity(&g, &pi)?;
    }

    /// Parity through the popcount counting path (dense, small n).
    #[test]
    fn kernels_agree_on_dense_graphs((g, pi) in arb_dense_graph()) {
        assert_parity(&g, &pi)?;
    }

    /// Parity through the radix split path (cells ≥ 32 vertices).
    #[test]
    fn kernels_agree_on_big_cells((g, pi) in arb_big_cell_graph()) {
        assert_parity(&g, &pi)?;
    }

    /// A refiner whose kernel is re-pointed mid-life (the `core::Session`
    /// retune path) behaves exactly like a freshly built one.
    #[test]
    fn kernel_switch_reuses_buffers_safely((g, pi) in arb_colored_graph()) {
        let mut r = Refiner::new();
        r.set_kernel(KernelKind::Bitset);
        let warm = r.refine(&g, &pi);
        r.set_kernel(KernelKind::General);
        let after_switch = r.refine(&g, &pi);
        prop_assert_eq!(&warm, &after_switch);
        let fresh = Refiner::with_kernel(KernelKind::General).refine(&g, &pi);
        prop_assert_eq!(&after_switch, &fresh);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parity through touched-only splits of large sparse cells.
    #[test]
    fn kernels_agree_on_large_sparse_graphs((g, pi) in arb_large_sparse_graph()) {
        assert_parity(&g, &pi)?;
    }
}

/// Auto dispatch is an implementation detail of *where* the work runs,
/// never of the result: whatever `Auto` picks must match both pins.
#[test]
fn auto_matches_both_pins_on_threshold_sizes() {
    // The named families the engine actually refines; a mismatch here
    // means the dispatcher changed semantics, not just speed.
    for g in [
        dvicl_graph::named::petersen(),
        dvicl_graph::named::hypercube(5),
        dvicl_graph::named::complete_bipartite(7, 9),
        dvicl_graph::named::rary_tree(2, 6),
    ] {
        let pi = Coloring::unit(g.n());
        let auto = Refiner::with_kernel(KernelKind::Auto).refine(&g, &pi);
        let gen = Refiner::with_kernel(KernelKind::General).refine(&g, &pi);
        let bit = Refiner::with_kernel(KernelKind::Bitset).refine(&g, &pi);
        assert_eq!(auto, gen);
        assert_eq!(auto, bit);
    }
}
