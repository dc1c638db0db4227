//! Self-check: every registered fault-injection site is reachable.
//!
//! `govern::fault::Site` is the checkpoint registry: a checkpoint call
//! names a `Site` variant, so a call site the registry does not know
//! does not compile. What no static check can see is the other
//! direction: a registered site that has become unreachable (dead code,
//! or a refactor that skips it) is a fault plan aimed at nothing. So
//! this test drives the pipeline end to end in probe mode and asserts
//! that the sites actually executed are exactly `Site::ALL`: edge-list
//! parsing, graph6 decoding, a divided AutoTree build (which exercises
//! refinement, individualization, arena carves, leaf IR, DFS search,
//! and the budget), a symmetric-subgraph-matching query, and a
//! fingerprint index insert plus a DVIX1 round trip. The probe plan is
//! installed on the test's own thread, so only this test's hits count.

use dvicl::core::ssm::{try_symmetric_key, SsmIndex};
use dvicl::core::{try_build_autotree, Budget, DviclOptions};
use dvicl::govern::fault::{self, FaultPlan, Site};
use dvicl::graph::{graph6, io, Coloring, Fingerprint};
use dvicl::index::FingerprintIndex;
use std::collections::BTreeSet;

#[test]
fn registry_and_probe_agree() {
    // Declared in name order, so `hit_counts` reports in name order.
    assert!(
        Site::ALL.windows(2).all(|w| w[0].name() < w[1].name()),
        "Site must list its variants in name order"
    );
    let registry: BTreeSet<Site> = Site::ALL.into_iter().collect();
    fault::install(FaultPlan::probe());

    // graph.edge_line + a graph with enough symmetry to exercise
    // refinement, individualization, and non-singleton leaves: K4 plus
    // a pendant path.
    let loaded = io::read_edge_list("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n".as_bytes())
        .expect("parse edge list");
    let g = loaded.graph;

    // graph.graph6 (round-trip through the encoder so the string is
    // authoritative).
    let decoded = graph6::from_graph6(&graph6::to_graph6(&g)).expect("decode graph6");
    assert_eq!(decoded.n(), g.n());

    // The build: refine.refine, core.build_node, core.arena_carve,
    // govern.spend.
    let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());
    let tree = try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited).expect("build");

    // core.ssm: one symmetric-key query over the built tree.
    let index = SsmIndex::new(&tree);
    let _key = try_symmetric_key(&tree, &index, &[0, 1], &unlimited).expect("key");

    // An 8-cycle is vertex-transitive: refinement cannot split the unit
    // coloring, so the build lands in a non-singleton leaf and must run
    // the full canonical search — core.leaf_ir, refine.individualize,
    // and canon.dfs.
    let cycle = io::read_edge_list("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n".as_bytes())
        .expect("parse cycle edge list")
        .graph;
    let _cycle_tree =
        try_build_autotree(&cycle, &Coloring::unit(cycle.n()), &opts, &unlimited).expect("build");

    // index.insert + index.load: ingest a certificate into a
    // fingerprint index and round-trip it through the DVIX1 format.
    let form = tree.canonical_form().to_form();
    let mut fpi = FingerprintIndex::new();
    fpi.insert(Fingerprint::of_form(&form), form, true)
        .expect("insert certificate");
    let mut saved = Vec::new();
    fpi.save_to(&mut saved).expect("serialize index");
    let loaded = FingerprintIndex::load_from(&mut saved.as_slice(), true).expect("reload index");
    assert_eq!(loaded.len(), fpi.len());

    let hits = fault::hit_counts();
    fault::clear();
    let executed: BTreeSet<Site> = hits
        .iter()
        .filter(|&&(_, count)| count > 0)
        .map(|&(site, _)| site)
        .collect();
    assert_eq!(
        executed, registry,
        "probe-executed checkpoint sites diverge from Site::ALL \
         (hit counts: {hits:?})"
    );
}
