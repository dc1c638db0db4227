//! Differential pin of the refactor-sensitive outputs: canonical forms,
//! canonical labelings and automorphism generator sets for the full
//! named-graph corpus, hashed and compared against values recorded from
//! the pre-arena (nested-vec `Sub`) implementation.
//!
//! The arena-backed storage refactor must be behavior-preserving: every
//! one of these 64-bit digests covers the *entire* byte content of the
//! respective output (color runs, edge lists, permutation images), so any
//! deviation — reordered generators, a flipped edge, a shifted label —
//! flips the digest.
//!
//! Regenerating (only legitimate after an intentional algorithm change):
//! `DVICL_REGEN_GOLDENS=1 cargo test -p dvicl-core --test differential -- --nocapture`

use dvicl_core::{aut, try_build_autotree, Budget, DviclOptions};
use dvicl_graph::{named, Coloring, Graph};

/// splitmix64 finalizer — the same mixer the workspace uses for traces.
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One digest over everything the refactor must preserve for `(g, unit)`:
/// the canonical form (color runs + relabeled edge list), the canonical
/// labeling, and the ordered automorphism generator set extracted from
/// the AutoTree.
#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn digest(g: &Graph) -> u64 {
    let opts = DviclOptions::default();
    let tree = try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
        .expect("unlimited build cannot fail");
    let mut h = 0xd1ff_e7e5_7a11_0000u64;
    let form = tree.canonical_form();
    for &(c, k) in form.colors {
        h = mix(h, (c as u64) << 32 | k as u64);
    }
    h = mix(h, 0x0ed6_0000 ^ form.edges.len() as u64);
    for &(u, v) in form.edges {
        h = mix(h, (u as u64) << 32 | v as u64);
    }
    let lambda = tree.canonical_labeling();
    for &image in lambda.as_slice() {
        h = mix(h, image as u64);
    }
    let gens: Vec<_> = aut::generators(&tree).collect();
    h = mix(h, 0x6e25_0000 ^ gens.len() as u64);
    for gen in &gens {
        for &image in gen.as_slice() {
            h = mix(h, image as u64);
        }
    }
    h
}

fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("fig1_example", named::fig1_example()),
        ("fig3_example", named::fig3_example()),
        ("complete_6", named::complete(6)),
        ("cycle_9", named::cycle(9)),
        ("path_7", named::path(7)),
        ("star_6", named::star(6)),
        ("complete_bipartite_3_4", named::complete_bipartite(3, 4)),
        ("petersen", named::petersen()),
        ("hypercube_3", named::hypercube(3)),
        ("hypercube_4", named::hypercube(4)),
        ("frucht", named::frucht()),
        ("circulant_13_1_5", named::circulant(13, &[1, 5])),
        ("torus2_3_4", named::torus2(3, 4)),
        ("rary_tree_2_3", named::rary_tree(2, 3)),
        ("rary_tree_3_2", named::rary_tree(3, 2)),
        ("johnson_5_2", named::johnson(5, 2)),
        ("paley_13", named::paley(13)),
        (
            "two_triangles",
            named::cycle(3).disjoint_union(&named::cycle(3)),
        ),
        (
            "two_petersens",
            named::petersen().disjoint_union(&named::petersen()),
        ),
        ("kneser_6_2", named::kneser(6, 2)),
    ]
}

/// Digests recorded from the pre-refactor (nested-vec `Sub`)
/// implementation. The arena refactor must reproduce them exactly.
/// Eleven were re-recorded when the IR search stopped recording an
/// automorphism twice: their forms and labelings are unchanged, and
/// each generator list is the old one with its repeats dropped.
const GOLDEN: &[(&str, u64)] = &[
    ("fig1_example", 0xe439a1ab9f53edda),
    ("fig3_example", 0xc89ad7e025408d9a),
    ("complete_6", 0x151b4c62f9f02e7e),
    ("cycle_9", 0x18f03759bf45cadd),
    ("path_7", 0x202961742b529500),
    ("star_6", 0x1f228c3591c96997),
    ("complete_bipartite_3_4", 0x5de3bac0975a17a1),
    ("petersen", 0xe6c3f92a866b0df9),
    ("hypercube_3", 0x88dd48d3688d514a),
    ("hypercube_4", 0xea87fefe189c957b),
    ("frucht", 0xf79f8b97bb85b358),
    ("circulant_13_1_5", 0xf1a0d0bab307b9b6),
    ("torus2_3_4", 0x2942acf4f5a931df),
    ("rary_tree_2_3", 0xa747fe8a941446d7),
    ("rary_tree_3_2", 0x7c792f59b2ffaead),
    ("johnson_5_2", 0x68c8487f69297d01),
    ("paley_13", 0x939745884c0104fb),
    ("two_triangles", 0x33449bc532b877ad),
    ("two_petersens", 0x49db87d37f9f4c66),
    ("kneser_6_2", 0x46710aef3d4ab3b1),
];

#[test]
fn forms_and_generators_match_pre_refactor_pins() {
    if std::env::var_os("DVICL_REGEN_GOLDENS").is_some() {
        for (name, g) in corpus() {
            println!("    (\"{name}\", 0x{:016x}),", digest(&g));
        }
        return;
    }
    let corpus = corpus();
    assert_eq!(
        corpus.len(),
        GOLDEN.len(),
        "corpus and golden table out of sync"
    );
    for ((name, g), &(gname, want)) in corpus.iter().zip(GOLDEN) {
        assert_eq!(*name, gname, "corpus and golden table out of sync");
        assert_eq!(
            digest(g),
            want,
            "{name}: canonical form / labeling / generators deviate from the pre-refactor pin"
        );
    }
}
