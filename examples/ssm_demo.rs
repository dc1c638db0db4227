//! Symmetric subgraph matching in the style of the paper's Example 6.11
//! and the Table 6 experiment: find all subgraphs symmetric to a query,
//! and count the seed sets equivalent to an influence-maximization result.
//!
//! Run with `cargo run --release --example ssm_demo`.

use dvicl::apps::im::{try_select_seeds, IcConfig};
use dvicl::core::ssm::{try_count_images, try_enumerate_images, SsmIndex};
use dvicl::core::{try_build_autotree, Budget, DviclError, DviclOptions};
use dvicl::data::social;
use dvicl::graph::{named, Coloring};

fn main() -> Result<(), DviclError> {
    // Every query below runs under one budget with no limits.
    let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());

    // --- Example 6.11-style query on the three-winged graph -----------
    let g = named::fig3_example();
    let tree = try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited)?;
    let index = SsmIndex::new(&tree);
    // Query: a pendant-clique path (3 - 2 - 4) crossing one wing into the
    // clique axis.
    let query = vec![3, 2, 4];
    let matches = try_enumerate_images(&tree, &index, &query, 1000, &unlimited)?;
    println!("SSM query {query:?} on the Fig. 3 example graph:");
    println!(
        "  {} symmetric subgraphs (complete: {}):",
        matches.matches.len(),
        !matches.truncated
    );
    for m in &matches.matches {
        println!("    {m:?}");
    }

    // --- Seed-set counting (the Table 6 experiment, one dataset) ------
    let g = social::generate(&social::SocialConfig {
        core_n: 2000,
        twin_fans: 150,
        fan_size: 5,
        ..Default::default()
    });
    println!(
        "\nInfluence maximization on a social analog (n = {}):",
        g.n()
    );
    let ic = IcConfig {
        prob: 0.05,
        rounds: 40,
        seed: 7,
    };
    let seeds = try_select_seeds(&g, 10, &ic, &unlimited)?;
    println!("  selected seeds: {seeds:?}");
    let tree = try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited)?;
    let index = SsmIndex::new(&tree);
    let count = try_count_images(&tree, &index, &seeds, &unlimited)?;
    println!(
        "  seed sets with identical influence (by symmetry): {}",
        count.try_to_scientific(&unlimited)?
    );
    Ok(())
}
