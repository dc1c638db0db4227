//! Quickstart: canonical labeling, isomorphism testing, automorphism
//! groups and orbits with DviCL.
//!
//! Run with `cargo run --release --example quickstart`.

use dvicl::core::{aut, try_build_autotree, Budget, DviclOptions, Session};
use dvicl::graph::{named, Coloring, Graph, Perm};

#[expect(
    clippy::unwrap_used,
    reason = "example code: a failure here is a bug in the example itself"
)]
fn main() {
    // Every operation that can run long takes a budget; this one sets no
    // limit.
    let unlimited = Budget::unlimited();
    let mut session = Session::default();
    let mut canonical_form = |g: &Graph| session.try_canonical_form(g, &unlimited).unwrap();

    // --- Isomorphism testing ------------------------------------------
    let g = named::petersen();
    let shuffled = g.permuted(&Perm::from_cycles(10, &[&[0, 4, 8], &[1, 9], &[2, 6]]).unwrap());
    println!("Petersen vs a relabeled copy:");
    println!(
        "  isomorphic: {}",
        canonical_form(&g) == canonical_form(&shuffled)
    );
    let prism = dvicl::graph::Graph::from_edges(
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 3),
            (1, 4),
            (2, 5),
        ],
    );
    let k33 = named::complete_bipartite(3, 3);
    println!("K3,3 vs the 3-prism (both 3-regular on 6 vertices):");
    println!(
        "  isomorphic: {}",
        canonical_form(&k33) == canonical_form(&prism)
    );

    // --- The AutoTree of the paper's running example ------------------
    let g = named::fig1_example();
    let tree = try_build_autotree(
        &g,
        &Coloring::unit(g.n()),
        &DviclOptions::default(),
        &unlimited,
    )
    .unwrap();
    let stats = tree.stats();
    println!("\nAutoTree of the paper's Fig. 1(a) graph:");
    println!(
        "  {} nodes, {} singleton leaves, {} non-singleton leaves, depth {}",
        stats.total_nodes, stats.singleton_leaves, stats.non_singleton_leaves, stats.depth
    );

    // --- Automorphism group and orbits --------------------------------
    println!(
        "  |Aut(G)| = {}",
        aut::try_group_order(&tree, &unlimited).unwrap()
    );
    let mut orbits = aut::orbits(&tree);
    println!("  orbits: {:?}", orbits.cells());
    println!("  generators:");
    for gen in aut::generators(&tree) {
        println!("    {gen}");
    }
}
