//! Differential oracle for the refinement-kernel dispatcher: over a
//! corpus of suite graphs, every combination of `--kernel
//! general|bitset` × `--threads 1|4` must produce **byte-identical**
//! results — the same canonical form, the same canonical labeling, and
//! the same generator list in the same order.
//!
//! This is the external half of the kernel-parity contract (DESIGN.md
//! §15; the partition-level parity proptests live next to the kernels
//! in `dvicl-refine`): the kernel choice may only change wall-clock
//! time and kernel counters, never a byte of output, because both
//! kernels feed the same fragment stream into the shared
//! `Partition::split_touched`. Crossing kernels with thread widths pins
//! the per-worker kernel state: each pool worker owns a private
//! `Refiner` beside its arena and memo shard, and work stealing must
//! not perturb what any kernel computes.

use dvicl::canon::{Config, KernelKind};
use dvicl::core::{aut, DviclOptions, Session};
use dvicl::graph::{named, Coloring, Graph};

/// Spawn-relevant shapes (components, nested divisions, non-singleton
/// leaves) plus suite graphs that stay test-friendly in debug builds.
fn corpus() -> Vec<(String, Graph)> {
    let mut graphs: Vec<(String, Graph)> = vec![
        ("fig1".into(), named::fig1_example()),
        ("petersen_x2".into(), named::petersen().disjoint_union(&named::petersen())),
        ("rary_3_4".into(), named::rary_tree(3, 4)),
        (
            "cube_plus_k49".into(),
            named::hypercube(3).disjoint_union(&named::complete_bipartite(4, 9)),
        ),
    ];
    for d in dvicl::data::benchmark_suite() {
        if ["mz-aug-50", "fpga11-20-like"].contains(&d.name) {
            graphs.push((d.name.to_string(), (d.build)()));
        }
    }
    graphs
}

fn session(kernel: KernelKind, threads: usize) -> Session {
    let mut leaf_config = Config::bliss_like();
    leaf_config.kernel = kernel;
    Session::new(DviclOptions {
        leaf_config,
        threads,
        ..DviclOptions::default()
    })
}

#[test]
fn kernels_and_thread_widths_are_byte_identical() {
    let mut sessions: Vec<(String, Session)> = Vec::new();
    for kernel in [KernelKind::General, KernelKind::Bitset] {
        for threads in [1usize, 4] {
            sessions.push((format!("{}-t{threads}", kernel.name()), session(kernel, threads)));
        }
    }
    for (name, g) in corpus() {
        let pi = Coloring::unit(g.n());
        let mut baseline = None;
        for (mode, s) in &mut sessions {
            let tree = s.build(&g, &pi);
            let obtained = (
                tree.canonical_form().to_form(),
                tree.canonical_labeling(),
                aut::generators(&tree),
                aut::group_order(&tree),
            );
            match &baseline {
                None => baseline = Some(obtained),
                Some(expected) => assert_eq!(
                    expected, &obtained,
                    "{name}: {mode} diverged from general-t1"
                ),
            }
        }
    }
}

#[test]
fn auto_dispatch_matches_pinned_kernels() {
    // `--kernel auto` (the default) routes every graph to the bitset
    // kernel, whose touched-only splits must still reproduce the
    // general kernel's output on every graph size in the corpus.
    let mut auto = session(KernelKind::Auto, 1);
    let mut general = session(KernelKind::General, 1);
    for (name, g) in corpus() {
        let pi = Coloring::unit(g.n());
        let a = auto.build(&g, &pi);
        let b = general.build(&g, &pi);
        assert_eq!(
            a.canonical_form(),
            b.canonical_form(),
            "{name}: auto dispatch changed the canonical form"
        );
    }
}
