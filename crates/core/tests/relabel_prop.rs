//! Property test for the central behavior-preservation contract of the
//! arena-backed subgraph store: everything DviCL computes from a graph is
//! invariant under relabeling. For a random graph `G` and a random
//! permutation `γ`, the canonical form of `G^γ` must equal that of `G`
//! (Theorem 4.1's certificate property), and the automorphism group —
//! which `γ` merely conjugates — must keep its order and orbit-size
//! multiset.
//!
//! This exercises the whole divide-and-conquer pipeline (DivideI/DivideS
//! child carving, CombineCL memoization, CombineST certificate sorting)
//! on inputs the named-graph differential corpus cannot enumerate.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_core::{aut, try_build_autotree, Budget, DviclOptions};
use dvicl_graph::{Coloring, Graph, Perm, V};
use proptest::prelude::*;

/// A permutation of `0..n` obtained by sorting indices under random keys.
#[expect(
    clippy::expect_used,
    reason = "`image` is a sorted copy of 0..n, always a permutation"
)]
fn perm_from_keys(n: usize, keys: &[u64]) -> Perm {
    let mut image: Vec<V> = (0..n as V).collect();
    // Tie-break by index so the image is always a valid permutation.
    image.sort_unstable_by_key(|&i| (keys[i as usize % keys.len()], i));
    Perm::from_image(image).expect("sorted index vector is a permutation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn canonical_form_invariant_under_relabeling(
        n in 1usize..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 0..40),
        keys in proptest::collection::vec(any::<u64>(), 14),
    ) {
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        let gamma = perm_from_keys(n, &keys);
        let gg = g.permuted(&gamma);

        let opts = DviclOptions::default();
        let t1 = try_build_autotree(&g, &Coloring::unit(n), &opts, &Budget::unlimited()).unwrap();
        let t2 = try_build_autotree(&gg, &Coloring::unit(n), &opts, &Budget::unlimited()).unwrap();

        // Certificates are relabeling-invariant by construction.
        prop_assert_eq!(t1.canonical_form(), t2.canonical_form());

        // γ conjugates Aut(G): same order, same orbit-size multiset.
        prop_assert_eq!(aut::group_order(&t1), aut::group_order(&t2));
        let sizes = |t| {
            let mut s: Vec<usize> = aut::orbits(t).cells().iter().map(Vec::len).collect();
            s.sort_unstable();
            s
        };
        prop_assert_eq!(sizes(&t1), sizes(&t2));
    }

    #[test]
    fn canonical_labeling_produces_the_form(
        n in 1usize..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
    ) {
        // The labeling the tree reports must actually *reproduce* its
        // canonical form when applied to the input graph — guards against
        // a labeling/form mismatch sneaking through the arena carve path.
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        let opts = DviclOptions::default();
        let tree = try_build_autotree(&g, &Coloring::unit(n), &opts, &Budget::unlimited()).unwrap();
        let lambda = tree.canonical_labeling();
        let mut relabeled: Vec<(V, V)> = Vec::with_capacity(g.m());
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                if u < v {
                    let (a, b) = (lambda.apply(u), lambda.apply(v));
                    relabeled.push((a.min(b), a.max(b)));
                }
            }
        }
        relabeled.sort_unstable();
        prop_assert_eq!(&relabeled, &tree.canonical_form().edges);
    }
}
