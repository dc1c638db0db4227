//! Network simplification and measurement (the introduction's applications
//! (c) and (d), refs [35]/[37]): collapse a network to its symmetry
//! quotient and score its structural heterogeneity.
//!
//! Run with `cargo run --release --example network_quotient`.

use dvicl::apps::quotient::{quotient, structure_entropy};
use dvicl::core::{try_build_autotree, Budget, DviclError, DviclOptions};
use dvicl::data::social::{generate, SocialConfig};
use dvicl::graph::{named, Coloring};

fn main() -> Result<(), DviclError> {
    println!(
        "{:<24} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "graph", "n", "m", "quotient n", "quotient m", "entropy"
    );
    let report = |name: &str, g: &dvicl::graph::Graph| {
        let opts = DviclOptions::default();
        let tree = try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())?;
        let q = quotient(g, &tree);
        let e = structure_entropy(g, &tree);
        println!(
            "{:<24} {:>8} {:>8} {:>10} {:>10} {:>9.4}",
            name,
            g.n(),
            g.m(),
            q.graph.n(),
            q.graph.m(),
            e
        );
        Ok::<(), DviclError>(())
    };

    // Fully symmetric → quotient collapses to almost nothing.
    report("petersen", &named::petersen())?;
    report("hypercube-Q5", &named::hypercube(5))?;
    report("balanced-tree-3^4", &named::rary_tree(3, 4))?;
    // Fully rigid → the quotient IS the graph.
    report("frucht", &named::frucht())?;
    // A social analog sits in between: the paper's refs [35, 37] observe
    // real networks are "richly symmetric" yet strongly heterogeneous —
    // entropy close to but below 1, quotient slightly smaller than G.
    let g = generate(&SocialConfig {
        core_n: 4000,
        twin_fans: 400,
        fan_size: 5,
        ..Default::default()
    });
    report("social-analog-4k", &g)
}
