//! End-to-end automorphism tests: group orders, orbits and generators
//! produced through every path (AutoTree, simplified AutoTree, IR
//! baseline, Schreier–Sims) agree with each other and with brute force.

use dvicl::canon::{try_canonical_form, CanonResult, Config};
use dvicl::core::iso::try_find_isomorphism_outcome;
use dvicl::core::{aut, simplify, try_build_autotree, AutoTree, Budget, DviclOptions};
use dvicl::graph::{named, vertex_range, Coloring, Graph, V};
use dvicl::group::{brute, BigUint, StabChain};
use proptest::prelude::*;

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn build_autotree(g: &Graph, pi: &Coloring, opts: &DviclOptions) -> AutoTree {
    try_build_autotree(g, pi, opts, &Budget::unlimited()).expect("unlimited build cannot fail")
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn ir(g: &Graph, pi: &Coloring, config: &Config) -> CanonResult {
    try_canonical_form(g, pi, config, &Budget::unlimited()).expect("unlimited search cannot fail")
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn group_order(tree: &AutoTree) -> BigUint {
    aut::try_group_order(tree, &Budget::unlimited()).expect("an unlimited order cannot fail")
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u32>(), 0..30).prop_map(move |raw| {
            let m = vertex_range(n).end;
            let edges: Vec<(V, V)> = raw.iter().map(|&x| (x % m, (x / 7919) % m)).collect();
            Graph::from_edges(n, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four group-order computations agree with brute force.
    #[test]
    fn group_orders_agree(g in arb_graph(8)) {
        let pi = Coloring::unit(g.n());
        let truth = BigUint::from_u64(brute::automorphism_count(&g, &pi));

        let tree = build_autotree(&g, &pi, &DviclOptions::default());
        prop_assert_eq!(&group_order(&tree), &truth);

        let opts = DviclOptions::default();
        let s = simplify::try_dvicl_simplified(&g, &pi, &opts, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&s.try_original_group_order(&Budget::unlimited()).unwrap(), &truth);

        let base = ir(&g, &pi, &Config::bliss_like());
        let chain = StabChain::try_new(g.n(), &base.generators, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&chain.order(), &truth);
    }

    /// Orbits from the AutoTree equal orbits of the brute-force group.
    #[test]
    fn orbits_agree(g in arb_graph(8)) {
        let pi = Coloring::unit(g.n());
        let tree = build_autotree(&g, &pi, &DviclOptions::default());
        let mut ours = aut::orbits(&tree);
        let mut truth = dvicl::group::Orbits::identity(g.n());
        for gamma in brute::automorphisms(&g, &pi) {
            truth.absorb(&gamma);
        }
        prop_assert_eq!(ours.cells(), truth.cells());
    }

    /// Every generator the AutoTree emits is a genuine automorphism.
    #[test]
    fn generators_are_automorphisms(g in arb_graph(10)) {
        let tree = build_autotree(&g, &Coloring::unit(g.n()), &DviclOptions::default());
        for gen in aut::generators(&tree) {
            prop_assert_eq!(&g.permuted(&gen), &g);
        }
    }
}

#[test]
fn wreath_product_structures() {
    // Known compound groups through the AutoTree path.
    let cases: Vec<(Graph, u64)> = vec![
        // 4 disjoint edges: S2 ≀ S4 = 2^4 · 4! = 384.
        (Graph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]), 384),
        // two disjoint triangles: (3!)² · 2 = 72.
        (named::cycle(3).disjoint_union(&named::cycle(3)), 72),
        // star of stars: center with 3 copies of K_{1,2}: (2!)³·3! = 48.
        (
            Graph::from_edges(
                10,
                &[
                    (0, 1),
                    (1, 2),
                    (1, 3),
                    (0, 4),
                    (4, 5),
                    (4, 6),
                    (0, 7),
                    (7, 8),
                    (7, 9),
                ],
            ),
            48,
        ),
        // balanced binary tree of depth 3: 2^7 = 128... the group of a
        // depth-3 binary tree is the iterated wreath: 2^7? It is
        // ((2)·(2))-wise: |Aut| = 2^(#internal nodes) = 2^7 = 128.
        (named::rary_tree(2, 3), 128),
    ];
    for (g, expected) in cases {
        let tree = build_autotree(&g, &Coloring::unit(g.n()), &DviclOptions::default());
        assert_eq!(
            group_order(&tree).to_u64(),
            Some(expected),
            "wrong order for {g:?}"
        );
    }
}

#[test]
fn benchmark_groups_are_large() {
    // Vertex-transitive benchmark graphs must have |Aut| >= n.
    let opts = DviclOptions {
        leaf_config: Config::traces_like(),
        ..DviclOptions::default()
    };
    for (name, g) in [
        ("grid", dvicl::data::bench_graphs::wrapped_grid(&[4, 4, 4])),
        ("had-16", dvicl::data::bench_graphs::hadamard(16)),
        ("pg2-5", dvicl::data::bench_graphs::pg2(5)),
    ] {
        let tree = build_autotree(&g, &Coloring::unit(g.n()), &opts);
        let order = group_order(&tree);
        assert!(
            order >= BigUint::from_u64(g.n() as u64),
            "{name}: |Aut| = {order} < n = {}",
            g.n()
        );
    }
}

#[test]
fn grid_group_order_exact() {
    // The 3-torus C4×C4×C4 is secretly the 6-dimensional hypercube
    // (C4 = K2□K2, so C4□C4□C4 = K2^□6 = Q6), whose automorphism group is
    // the hyperoctahedral group of order 2^6 · 6! = 46080 — strictly more
    // than the naive (translations × signed coordinate permutations)
    // count of 3072. The AutoTree/IR path finds the full group.
    let g = dvicl::data::bench_graphs::wrapped_grid(&[4, 4, 4]);
    let opts = DviclOptions {
        leaf_config: Config::traces_like(),
        ..DviclOptions::default()
    };
    let tree = build_autotree(&g, &Coloring::unit(g.n()), &opts);
    assert_eq!(group_order(&tree).to_u64(), Some(46080));
    // A q=5 torus has no such collapse: |Aut(C5□C5□C5)| = (2·5)³·3! = 6000.
    let g5 = dvicl::data::bench_graphs::wrapped_grid(&[5, 5, 5]);
    let tree5 = build_autotree(&g5, &Coloring::unit(g5.n()), &opts);
    assert_eq!(group_order(&tree5).to_u64(), Some(6000));
}

#[test]
fn algebraic_graph_families() {
    let opts = DviclOptions {
        leaf_config: Config::traces_like(),
        ..DviclOptions::default()
    };
    // Paley(13): |Aut| = q(q−1)/2 = 78.
    let p13 = named::paley(13);
    let t = build_autotree(&p13, &Coloring::unit(13), &opts);
    assert_eq!(group_order(&t).to_u64(), Some(78));
    // Kneser K(5,2) = Petersen: |Aut| = 120; Johnson J(5,2): also S_5.
    let kn = named::kneser(5, 2);
    let t = build_autotree(&kn, &Coloring::unit(kn.n()), &opts);
    assert_eq!(group_order(&t).to_u64(), Some(120));
    let j = named::johnson(5, 2);
    let t = build_autotree(&j, &Coloring::unit(j.n()), &opts);
    assert_eq!(group_order(&t).to_u64(), Some(120));
    // Johnson J(4,2) is the octahedron K_{2,2,2}: |Aut| = 2^3·3! = 48.
    let oct = named::johnson(4, 2);
    let t = build_autotree(&oct, &Coloring::unit(6), &opts);
    assert_eq!(group_order(&t).to_u64(), Some(48));
}

#[test]
fn paley_is_self_complementary() {
    let p = named::paley(13);
    let n = p.vertices().end;
    let non_edges: Vec<(V, V)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| !p.has_edge(u, v))
        .collect();
    let complement = Graph::from_edges(p.n(), &non_edges);
    let opts = DviclOptions::default();
    let found = try_find_isomorphism_outcome(&p, &complement, &opts, &Budget::unlimited()).unwrap();
    let gamma = found.mapping.expect("Paley graphs are self-complementary");
    assert_eq!(p.permuted(&gamma), complement);
}

#[test]
fn hypercube_group_orders() {
    // |Aut(Q_d)| = 2^d · d!.
    let opts = DviclOptions {
        leaf_config: Config::traces_like(),
        ..DviclOptions::default()
    };
    for (d, expected) in [(2u32, 8u64), (3, 48), (4, 384), (5, 3840)] {
        let g = named::hypercube(d as usize);
        let t = build_autotree(&g, &Coloring::unit(g.n()), &opts);
        assert_eq!(group_order(&t).to_u64(), Some(expected), "Q_{d}");
    }
}
