//! End-to-end isomorphism-decision tests: DviCL certificates against the
//! brute-force oracle and the IR baseline across random and structured
//! graphs.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl::canon::{try_canonical_form, CanonResult, Config};
use dvicl::core::iso::try_find_isomorphism_colored;
use dvicl::core::{try_build_autotree, Budget, DviclOptions};
use dvicl::graph::{named, CanonForm, Coloring, Graph, Perm, V};
use dvicl::group::brute;
use proptest::prelude::*;

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn canonical_form(g: &Graph) -> CanonForm {
    let opts = DviclOptions::default();
    try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
        .expect("unlimited build cannot fail")
        .canonical_form()
        .to_form()
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn are_isomorphic_colored(g1: &Graph, pi1: &Coloring, g2: &Graph, pi2: &Coloring) -> bool {
    let opts = DviclOptions::default();
    try_find_isomorphism_colored(g1, pi1, g2, pi2, &opts, &Budget::unlimited())
        .expect("unlimited builds cannot fail")
        .is_some()
}

fn are_isomorphic(g1: &Graph, g2: &Graph) -> bool {
    are_isomorphic_colored(g1, &Coloring::unit(g1.n()), g2, &Coloring::unit(g2.n()))
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn ir_form(g: &Graph, pi: &Coloring, config: &Config) -> CanonResult {
    try_canonical_form(g, pi, config, &Budget::unlimited()).expect("unlimited search cannot fail")
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(any::<u32>(), 0..=max_edges.min(40)).prop_map(move |raw| {
            let edges: Vec<(V, V)> = raw
                .iter()
                .map(|&x| {
                    let u = (x % n as u32) as V;
                    let v = ((x / 7919) % n as u32) as V;
                    (u, v)
                })
                .collect();
            Graph::from_edges(n, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Certificates are relabeling-invariant: canon(G) == canon(G^γ).
    #[test]
    fn dvicl_certificate_is_invariant(g in arb_graph(12), seed in any::<u64>()) {
        let n = g.n();
        let gamma = {
            let mut image: Vec<V> = (0..n as V).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                image.swap(i, j);
            }
            Perm::from_image(image).unwrap()
        };
        prop_assert_eq!(canonical_form(&g), canonical_form(&g.permuted(&gamma)));
    }

    /// DviCL and the IR baseline agree on iso/non-iso for random pairs.
    #[test]
    fn dvicl_agrees_with_baseline(a in arb_graph(9), b in arb_graph(9)) {
        let dvicl_says = are_isomorphic(&a, &b);
        let baseline_says = a.n() == b.n()
            && ir_form(&a, &Coloring::unit(a.n()), &Config::bliss_like()).form
                == ir_form(&b, &Coloring::unit(b.n()), &Config::bliss_like()).form;
        prop_assert_eq!(dvicl_says, baseline_says);
    }

    /// DviCL's verdict matches the brute-force oracle on small pairs.
    #[test]
    fn dvicl_matches_brute_force(a in arb_graph(7), b in arb_graph(7)) {
        if a.n() != b.n() {
            return Ok(());
        }
        let truth = brute::isomorphic(
            &a, &Coloring::unit(a.n()),
            &b, &Coloring::unit(b.n()),
        );
        prop_assert_eq!(are_isomorphic(&a, &b), truth);
    }
}

#[test]
fn cfi_twins_are_distinguished() {
    // The Cai–Fürer–Immerman pair: 1-WL-equivalent but non-isomorphic.
    // Canonical labeling must separate them (refinement alone cannot).
    let base = dvicl::data::bench_graphs::cubic_circulant(12);
    let plain = dvicl::data::bench_graphs::cfi(&base, false);
    let twisted = dvicl::data::bench_graphs::cfi(&base, true);
    assert_eq!(plain.n(), twisted.n());
    assert_eq!(plain.m(), twisted.m());
    assert!(!are_isomorphic(&plain, &twisted));
    // And each is isomorphic to a shuffled copy of itself.
    let gamma = Perm::from_cycles(plain.n(), &[&[0, 17, 33], &[5, 88]]).unwrap();
    assert!(are_isomorphic(&plain, &plain.permuted(&gamma)));
}

#[test]
fn colored_isomorphism_distinguishes_colorings() {
    let g = named::cycle(8);
    let pin_adjacent = Coloring::from_cells(vec![vec![2, 3, 4, 5, 6, 7], vec![0, 1]]).unwrap();
    let pin_opposite = Coloring::from_cells(vec![vec![1, 2, 3, 5, 6, 7], vec![0, 4]]).unwrap();
    assert!(!are_isomorphic_colored(
        &g,
        &pin_adjacent,
        &g,
        &pin_opposite
    ));
    let pin_adjacent2 = Coloring::from_cells(vec![vec![0, 1, 2, 3, 4, 7], vec![5, 6]]).unwrap();
    assert!(are_isomorphic_colored(
        &g,
        &pin_adjacent,
        &g,
        &pin_adjacent2
    ));
    // P3 + K1: [isolated | rest] and [rest | center] refine to the same
    // coloring [isolated | leaves | center], yet their cell sizes differ.
    let p3k1 = Graph::from_edges(4, &[(0, 1), (0, 2)]);
    let isolated_first = Coloring::from_cells(vec![vec![3], vec![0, 1, 2]]).unwrap();
    let center_last = Coloring::from_cells(vec![vec![1, 2, 3], vec![0]]).unwrap();
    assert!(!are_isomorphic_colored(
        &p3k1,
        &isolated_first,
        &p3k1,
        &center_last
    ));
}

#[test]
fn regular_non_isomorphic_families() {
    // All 3-regular graphs on 8 vertices fall into 5 isomorphism classes;
    // check a few representatives pairwise.
    let cube = named::hypercube(3);
    let k33_plus = named::complete_bipartite(3, 3); // 6 vertices, control
    let moebius = dvicl::data::bench_graphs::cubic_circulant(8); // Wagner graph
    assert!(!are_isomorphic(&cube, &moebius));
    assert_eq!(k33_plus.n(), 6);
    // Certificates of equal-size regular graphs differ.
    assert_ne!(canonical_form(&cube), canonical_form(&moebius));
}

#[test]
fn benchmark_graphs_self_consistency() {
    for d in dvicl::data::benchmark_suite() {
        if !matches!(d.name, "grid-w-3-20" | "mz-aug-50" | "cfi-200") {
            continue; // keep CI time bounded; others covered elsewhere
        }
        let g = (d.build)();
        let gamma = Perm::from_cycles(g.n(), &[&[0, (g.n() - 1) as V, 3]]).unwrap();
        assert!(are_isomorphic(&g, &g.permuted(&gamma)), "{}", d.name);
    }
}
