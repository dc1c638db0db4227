//! Property test for k-symmetry anonymization: the extension of any graph
//! must leave no orbit smaller than k (the paper's re-identification
//! guarantee).

use dvicl_core::{aut, ksym, try_build_autotree, Budget, DviclOptions};
use dvicl_graph::{vertex_range, Coloring, Graph, V};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_orbit_reaches_k(
        n in 2usize..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        k in 2usize..4,
    ) {
        let m = vertex_range(n).end;
        let edges: Vec<(V, V)> = edges.into_iter().map(|(a, b)| (a % m, b % m)).collect();
        let g = Graph::from_edges(n, &edges);
        let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());
        let tree = try_build_autotree(&g, &Coloring::unit(n), &opts, &unlimited).unwrap();
        let (g2, stats) = ksym::try_k_symmetric_extension(&g, &tree, k, &unlimited).unwrap();
        prop_assert!(g2.n() >= n);
        prop_assert_eq!(g2.n() - n, stats.added_vertices);
        // Recompute orbits on the extension: all at least k.
        let t2 = try_build_autotree(&g2, &Coloring::unit(g2.n()), &opts, &unlimited).unwrap();
        let mut orbits = aut::orbits(&t2);
        for cell in orbits.cells() {
            prop_assert!(cell.len() >= k, "orbit {:?} < k={}", cell, k);
        }
    }
}
