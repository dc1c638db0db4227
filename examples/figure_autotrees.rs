//! Reproduces the paper's AutoTree figures:
//!
//! * Fig. 4 — the AutoTree of the Fig. 1(a) example graph: the hub is the
//!   axis, the triangle divides into three symmetric singletons, and the
//!   4-cycle survives as a non-singleton leaf labeled by the IR engine.
//! * Fig. 3 — the AutoTree of a three-winged example (singleton axis at
//!   the root, a clique axis one level down, symmetric leaf groups).
//! * Fig. 7/8 — structural-equivalence simplification: the twins {0,2} and
//!   {1,3} of Fig. 1(a) collapse, and the simplified graph's AutoTree.
//!
//! Legend: `·` singleton leaf, `▣` non-singleton leaf (IR-labeled),
//! `○` internal node; `γ=` shows each node's canonical labels.
//!
//! Run with `cargo run --release --example figure_autotrees`.

use dvicl::core::{simplify, try_build_autotree, Budget, DviclError, DviclOptions};
use dvicl::graph::{named, Coloring};

fn main() -> Result<(), DviclError> {
    let opts = DviclOptions::default();
    let unlimited = Budget::unlimited();

    println!("=== Fig. 4: AutoTree of the Fig. 1(a) graph ===");
    let g1 = named::fig1_example();
    let t1 = try_build_autotree(&g1, &Coloring::unit(g1.n()), &opts, &unlimited)?;
    print!("{}", t1.render());

    println!("\n=== Fig. 3: AutoTree of the three-winged example ===");
    let g3 = named::fig3_example();
    let t3 = try_build_autotree(&g3, &Coloring::unit(g3.n()), &opts, &unlimited)?;
    print!("{}", t3.render());

    println!("\n=== Fig. 7/8: structural-equivalence simplification ===");
    let s = simplify::try_dvicl_simplified(&g1, &Coloring::unit(g1.n()), &opts, &unlimited)?;
    println!("twin classes of Fig. 1(a): {:?}", s.twins.non_singleton);
    println!(
        "simplified graph G_s keeps representatives {:?} (multiplicities {:?})",
        s.reps, s.class_size
    );
    println!("AutoTree of (G_s, π_s):");
    print!("{}", s.tree.render());
    println!(
        "|Aut(G)| recovered through the simplification: {}",
        s.try_original_group_order(&unlimited)?
    );
    Ok(())
}
