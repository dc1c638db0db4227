//! k-symmetry anonymization (the paper's Section 1 application of \[34\]):
//! extend a graph so that every vertex has at least k−1 automorphic
//! counterparts — structural re-identification then cannot narrow a
//! target below k candidates.
//!
//! Run with `cargo run --release --example ksym_demo`.

use dvicl::core::{aut, ksym, try_build_autotree, Budget, DviclOptions};
use dvicl::graph::{named, Coloring};

#[expect(
    clippy::unwrap_used,
    reason = "example code: a failure here is a bug in the example itself"
)]
fn main() {
    let g = named::fig1_example();
    let opts = DviclOptions::default();
    let unlimited = Budget::unlimited();
    let tree = try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited).unwrap();
    let mut before = aut::orbits(&tree);
    println!(
        "original graph: n = {}, m = {}, orbits = {:?}",
        g.n(),
        g.m(),
        before.cells()
    );

    for k in [2usize, 3] {
        let (g2, stats) = ksym::try_k_symmetric_extension(&g, &tree, k, &unlimited).unwrap();
        let t2 = try_build_autotree(&g2, &Coloring::unit(g2.n()), &opts, &unlimited).unwrap();
        let mut orbits = aut::orbits(&t2);
        let min_orbit = orbits.cells().iter().map(|c| c.len()).min().unwrap();
        println!(
            "\nk = {k}: +{} vertices, +{} edges ({} root classes duplicated)",
            stats.added_vertices, stats.added_edges, stats.duplicated_classes
        );
        println!(
            "  extension: n = {}, m = {}, smallest orbit = {} (>= k: {})",
            g2.n(),
            g2.m(),
            min_orbit,
            min_orbit >= k
        );
    }
}
