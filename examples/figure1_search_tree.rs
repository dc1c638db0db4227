//! Reproduces the paper's Fig. 1(b): the backtrack search tree built by
//! the individualization-refinement engine (bliss-like configuration,
//! first non-singleton target cell per \[18\]) for the example graph of
//! Fig. 1(a).
//!
//! Node identifiers are the traversal order, colorings are printed in the
//! paper's `[a,b|c]` notation, and each edge shows the individualized
//! vertex. Pruned subtrees do not appear (that is the point of the
//! figure: the tree has far fewer than 8! leaves).
//!
//! Run with `cargo run --release --example figure1_search_tree`.

use dvicl::canon::{try_canonical_form, Budget, Config};
use dvicl::graph::{named, Coloring};

#[expect(
    clippy::expect_used,
    reason = "example code: a failure here is a bug in the example itself"
)]
fn main() {
    let g = named::fig1_example();
    let mut config = Config::bliss_like();
    config.record_tree = true;
    let result = try_canonical_form(&g, &Coloring::unit(8), &config, &Budget::unlimited())
        .expect("an unlimited search cannot fail");
    let tree = result.tree.expect("recording was requested");

    println!("Search tree T(G, π) for the Fig. 1(a) graph (bliss-like engine)");
    println!(
        "nodes: {}   leaves: {}   automorphism generators: {}",
        result.stats.nodes, result.stats.leaves, result.stats.generators_found
    );
    println!();
    print!("{}", tree.render());
    println!();
    println!("canonical labeling γ* = {}", result.labeling);
    println!("discovered generators:");
    for gen in &result.generators {
        println!("  {gen}");
    }
    let mut orbits = result.orbits;
    println!("orbits: {:?}", orbits.cells());
}
