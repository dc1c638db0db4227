//! End-to-end symmetric subgraph matching: SSM-AT results, counts and
//! keys against brute force, and the SM-baseline comparison, on random and
//! structured graphs.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl::core::ssm::{
    try_count_images, try_enumerate_images, try_symmetric_key, SsmIndex, SsmMatches,
};
use dvicl::core::{sm, try_build_autotree, AutoTree, Budget, DviclOptions};
use dvicl::graph::{Coloring, Graph, Perm, V};
use dvicl::group::{brute, BigUint};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn setup(g: &Graph) -> (AutoTree, SsmIndex) {
    let opts = DviclOptions::default();
    let t = try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
        .expect("unlimited build cannot fail");
    let i = SsmIndex::new(&t);
    (t, i)
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn count_images(t: &AutoTree, i: &SsmIndex, set: &[V]) -> BigUint {
    try_count_images(t, i, set, &Budget::unlimited()).expect("valid query set")
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn enumerate_images(t: &AutoTree, i: &SsmIndex, set: &[V], limit: usize) -> SsmMatches {
    try_enumerate_images(t, i, set, limit, &Budget::unlimited()).expect("valid query set")
}

fn brute_images(g: &Graph, set: &[V]) -> BTreeSet<Vec<V>> {
    let pi = Coloring::unit(g.n());
    brute::automorphisms(g, &pi)
        .iter()
        .map(|gamma| {
            let mut img: Vec<V> = set.iter().map(|&v| gamma.apply(v)).collect();
            img.sort_unstable();
            img
        })
        .collect()
}

/// A pseudo-random relabeling of `0..n` drawn from `seed`.
#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn relabeling(n: usize, seed: u64) -> Perm {
    let mut image: Vec<V> = (0..n as V).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        image.swap(i, (state >> 33) as usize % (i + 1));
    }
    Perm::from_image(image).expect("a shuffle is a bijection")
}

fn arb_case(max_n: usize) -> impl Strategy<Value = (Graph, Vec<V>)> {
    (3..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u32>(), 0..24),
            proptest::collection::vec(0..n as u32, 1..=3),
        )
            .prop_map(move |(raw, set)| {
                let edges: Vec<(V, V)> = raw
                    .iter()
                    .map(|&x| ((x % n as u32) as V, ((x / 7919) % n as u32) as V))
                    .collect();
                let mut set: Vec<V> = set;
                set.sort_unstable();
                set.dedup();
                (Graph::from_edges(n, &edges), set)
            })
    })
}

/// Graphs whose AutoTrees have non-singleton leaves, often as symmetric
/// siblings: 1-3 copies of one circulant on 4-7 vertices, joined to a
/// hub vertex when `bits` asks for one, with a query set of 1-3 vertices.
fn arb_circulant_case() -> impl Strategy<Value = (Graph, Vec<V>)> {
    (
        4usize..=7,
        1usize..=3,
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), 1..=3),
    )
        .prop_map(|(k, copies, bits, raw)| {
            let hub = bits & 1 == 1;
            let n = k * copies + usize::from(hub);
            let mut edges: Vec<(V, V)> = Vec::new();
            for c in 0..copies {
                for i in 0..k {
                    for jump in (1..=k / 2).filter(|j| bits >> j & 1 == 1) {
                        edges.push(((c * k + i) as V, (c * k + (i + jump) % k) as V));
                    }
                }
            }
            if hub {
                edges.extend((0..n - 1).map(|v| (v as V, (n - 1) as V)));
            }
            let mut set: Vec<V> = raw.iter().map(|&x| x % n as u32).collect();
            set.sort_unstable();
            set.dedup();
            (Graph::from_edges(n, &edges), set)
        })
}

/// Brute-force-sized graphs whose AutoTrees hold symmetric non-singleton
/// sibling leaves: one or two copies of a circulant on 4-6 vertices with
/// at least one jump, all joined to a hub, under a random relabeling (so
/// a leaf's local vertex order differs from its canonical order), with a
/// query set of 2-3 draws from one copy, so that it has the leaf's
/// symmetric images. Two hexagons plus a hub is one such graph.
/// Jumps never make a copy complete: two copies of K6 have 1 036 800
/// automorphisms, too many for `brute` to list in a test.
fn arb_hub_circulant_case() -> impl Strategy<Value = (Graph, Vec<V>)> {
    (4usize..=6).prop_flat_map(|k| {
        (
            1usize..=2,
            1u32..(1 << (k / 2)) - 1,
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 2..=3),
        )
            .prop_map(move |(copies, jumps, seed, raw)| {
                let n = k * copies + 1;
                let hub = (n - 1) as V;
                let mut edges: Vec<(V, V)> = (0..hub).map(|v| (v, hub)).collect();
                for c in 0..copies {
                    for i in 0..k {
                        for jump in (1..=k / 2).filter(|j| jumps >> (j - 1) & 1 == 1) {
                            edges.push(((c * k + i) as V, (c * k + (i + jump) % k) as V));
                        }
                    }
                }
                let gamma = relabeling(n, seed);
                let copy = raw[0] as usize % copies * k;
                let mut set: Vec<V> = raw
                    .iter()
                    .map(|&x| gamma.apply((copy + x as usize % k) as V))
                    .collect();
                set.sort_unstable();
                set.dedup();
                (Graph::from_edges(n, &edges).permuted(&gamma), set)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SSM-AT enumeration equals the brute-force image set.
    #[test]
    fn enumeration_is_exact(random in arb_case(8), symmetric in arb_hub_circulant_case()) {
        for (g, set) in [random, symmetric] {
            let (t, i) = setup(&g);
            let truth = brute_images(&g, &set);
            let res = enumerate_images(&t, &i, &set, 100_000);
            prop_assert!(!res.truncated);
            let got: BTreeSet<Vec<V>> = res.matches.into_iter().collect();
            prop_assert_eq!(got, truth);
        }
    }

    /// The exact count equals the brute-force orbit size.
    #[test]
    fn counting_is_exact(random in arb_case(8), symmetric in arb_hub_circulant_case()) {
        for (g, set) in [random, symmetric] {
            let (t, i) = setup(&g);
            prop_assert_eq!(
                count_images(&t, &i, &set).to_u64(),
                Some(brute_images(&g, &set).len() as u64)
            );
        }
    }

    /// Key equality coincides with brute-force symmetry for pairs of sets.
    /// The second set is random or, for odd `pick`, an image of the first,
    /// so symmetric pairs in different sibling leaves are drawn too.
    #[test]
    fn keys_are_sound_and_complete(
        random in arb_case(7),
        symmetric in arb_hub_circulant_case(),
        raw in proptest::collection::vec(any::<u32>(), 1..=3),
        pick in any::<u32>(),
    ) {
        for (g, s1) in [random, symmetric] {
            let n = g.n() as u32;
            let images = brute_images(&g, &s1);
            let mut s2: Vec<V> = raw.iter().map(|&x| x % n).collect();
            s2.sort_unstable();
            s2.dedup();
            if pick & 1 == 1 {
                s2.clone_from(images.iter().nth(pick as usize / 2 % images.len()).unwrap());
            }
            let (t, i) = setup(&g);
            let truth = images.contains(&s2);
            let key = |s: &[V]| try_symmetric_key(&t, &i, s, &Budget::unlimited()).map_err(|e| e.to_string());
            prop_assert_eq!(key(&s1)? == key(&s2)?, truth);
        }
    }

    /// Keys are canonical: the key of `S` in `G` equals, byte for byte,
    /// the key of `γ(S)` in `G^γ`.
    #[test]
    fn key_is_invariant_under_relabeling((g, set) in arb_circulant_case(), seed in any::<u64>()) {
        let gamma = relabeling(g.n(), seed);
        let h = g.permuted(&gamma);
        let image: Vec<V> = set.iter().map(|&v| gamma.apply(v)).collect();
        let key = |g: &Graph, s: &[V]| {
            let (t, i) = setup(g);
            try_symmetric_key(&t, &i, s, &Budget::unlimited()).map_err(|e| e.to_string())
        };
        prop_assert_eq!(key(&g, &set)?, key(&h, &image)?);
    }
}

#[test]
fn ssm_at_agrees_with_sm_baseline() {
    // SM (VF2) + key filtering must give exactly SSM-AT's answer.
    for (g, query) in [
        (dvicl::graph::named::fig1_example(), vec![0u32, 1]),
        (dvicl::graph::named::fig3_example(), vec![3, 2, 4]),
        (dvicl::graph::named::rary_tree(2, 3), vec![7, 3]),
    ] {
        let (t, i) = setup(&g);
        let mut via_at = enumerate_images(&t, &i, &query, 100_000).matches;
        let mut via_sm =
            sm::try_ssm_via_sm(&g, &t, &i, &query, 100_000, &Budget::unlimited()).unwrap();
        via_at.sort();
        via_sm.sort();
        assert_eq!(via_at, via_sm, "disagreement on query {query:?}");
    }
}

#[test]
fn key_is_relabeling_covariant() {
    // Clustering results must not depend on vertex names: the multiset of
    // key-classes of all edges is invariant under relabeling.
    let g = dvicl::graph::named::fig3_example();
    let gamma =
        dvicl::graph::Perm::from_cycles(g.n(), &[&[0, 9, 4], &[10, 12], &[11, 13]]).unwrap();
    let h = g.permuted(&gamma);
    let class_profile = |g: &Graph| -> Vec<usize> {
        let (t, i) = setup(g);
        let mut by_key: std::collections::HashMap<Vec<u8>, usize> = Default::default();
        for (a, b) in g.edges() {
            let key = try_symmetric_key(&t, &i, &[a, b], &Budget::unlimited()).unwrap();
            *by_key.entry(key).or_default() += 1;
        }
        let mut sizes: Vec<usize> = by_key.into_values().collect();
        sizes.sort_unstable();
        sizes
    };
    assert_eq!(class_profile(&g), class_profile(&h));
}

#[test]
fn seed_set_counting_scales_to_analogs() {
    // A twin-rich analog must admit a large number of symmetric images of
    // a seed set placed on twin fans.
    let g = dvicl::data::social::generate(&dvicl::data::social::SocialConfig {
        core_n: 1000,
        twin_fans: 50,
        fan_size: 6,
        tree_hubs: 0,
        ring_pockets: 0,
        ..Default::default()
    });
    let (t, i) = setup(&g);
    // Pick one pendant twin per fan: each contributes a factor of 6.
    let mut seeds: Vec<V> = Vec::new();
    for v in (0..g.n() as V).rev() {
        if g.degree(v) == 1 && seeds.len() < 10 {
            let hub = g.neighbors(v)[0];
            if !seeds.iter().any(|&s| g.neighbors(s)[0] == hub) {
                seeds.push(v);
            }
        }
    }
    assert_eq!(seeds.len(), 10);
    let count = count_images(&t, &i, &seeds);
    // Each of the 10 seeds sits in a twin class of >= 6 members.
    assert!(
        count >= BigUint::from_u64(6u64.pow(10)),
        "count {count} too small"
    );
}

#[test]
fn colored_graphs_restrict_symmetry() {
    let g = dvicl::graph::named::star(6);
    // Unit colors: all leaves interchangeable → C(6,2) = 15 images.
    let (t, i) = setup(&g);
    assert_eq!(count_images(&t, &i, &[1, 2]).to_u64(), Some(15));
    // Two-color leaves {1,2,3} vs {4,5,6}: only 3×3 = 9 images of a mixed
    // pair, and C(3,2) = 3 of a same-color pair.
    let pi = Coloring::from_cells(vec![vec![0], vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
    let t2 = try_build_autotree(&g, &pi, &DviclOptions::default(), &Budget::unlimited()).unwrap();
    let i2 = SsmIndex::new(&t2);
    assert_eq!(count_images(&t2, &i2, &[1, 4]).to_u64(), Some(9));
    assert_eq!(count_images(&t2, &i2, &[1, 2]).to_u64(), Some(3));
    let res = enumerate_images(&t2, &i2, &[1, 2], 100);
    assert!(!res.truncated);
    assert_eq!(res.matches.len(), 3);
}
