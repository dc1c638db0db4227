//! Arena stack discipline under injected faults.
//!
//! Two properties, both driven by the vendored deterministic proptest:
//!
//! 1. `SubArena` mark/release discipline survives *early returns*: when
//!    a carve hits the allocation ceiling (or a deeper frame errors),
//!    every enclosing frame still restores its mark, so the arena ends
//!    each frame exactly where it started — bytes and mark both.
//! 2. An installed fault plan may abort or degrade a build, but never
//!    corrupts process state: the next clean build reproduces the
//!    reference canonical form, and any tree that does come back is
//!    witness-valid.
//!
//! A fault plan is installed on the calling thread only, so the
//! property that installs plans cannot reach the builds of any other
//! test running beside it.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_core::{
    build_autotree_resilient, try_build_autotree, verify, DviclOptions, Sub, SubArena,
};
use dvicl_govern::fault::{self, FaultPlan, Site};
use dvicl_govern::{Budget, DviclError, FaultAction};
use dvicl_graph::{Coloring, Graph, V};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u32>(), 0..80).prop_map(move |raw| {
            let edges: Vec<(V, V)> = raw
                .iter()
                .map(|&x| ((x % n as u32) as V, ((x / 7919) % n as u32) as V))
                .collect();
            Graph::from_edges(n, &edges)
        })
    })
}

/// Recursively carves children like `Builder::build` does, asserting at
/// every frame — on success *and* on early error return — that the
/// frame's mark and byte level are restored before the frame exits.
fn carve(arena: &mut SubArena, sub: &Sub, depth: usize, picks: &[u32]) -> Result<(), DviclError> {
    let n = arena.verts(sub).len();
    if depth == 0 || n <= 2 {
        return Ok(());
    }
    let locals: Vec<u32> = (0..n as u32)
        .filter(|i| !picks[*i as usize % picks.len()].is_multiple_of(3))
        .collect();
    if locals.is_empty() || locals.len() == n {
        return Ok(());
    }
    let mark = arena.mark();
    let bytes = arena.bytes_now();
    let r = SubArena::scoped(
        arena,
        |a| a,
        |a| {
            let child = a.try_induced_child(sub, &locals)?;
            carve(a, &child, depth - 1, picks)
        },
    );
    assert_eq!(arena.mark(), mark, "mark not restored at depth {depth}");
    assert_eq!(
        arena.bytes_now(),
        bytes,
        "bytes not restored at depth {depth}"
    );
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: ceiling-induced early returns restore every frame.
    #[test]
    fn ceiling_early_returns_restore_every_frame(
        g in arb_graph(24),
        picks in proptest::collection::vec(any::<u32>(), 8..32),
        slack in 0usize..4096,
    ) {
        let mut arena = SubArena::new();
        let whole = arena.whole(&g);
        let base = arena.bytes_now();
        // A tight ceiling so deeper carves fail mid-recursion; zero
        // slack fails on the first carve.
        arena.set_ceiling_bytes(Some(base + slack));
        let outer_mark = arena.mark();
        let r = carve(&mut arena, &whole, 6, &picks);
        // The result may be Ok (all carves fit or were skipped) or a
        // typed memory error — and either way the arena is level again.
        if let Err(e) = r {
            prop_assert_eq!(e.exit_code(), 3, "ceiling must map to exhaustion");
        }
        prop_assert_eq!(arena.mark(), outer_mark);
        prop_assert_eq!(arena.bytes_now(), base);
    }

    /// Property 2: injected faults never leak state across builds.
    #[test]
    fn injected_faults_leave_no_residue(
        g in arb_graph(16),
        site_idx in 0usize..5,
        k in 1u64..6,
        cancel in any::<bool>(),
    ) {
        let sites = [
            Site::CoreBuildNode,
            Site::CoreArenaCarve,
            Site::CoreLeafIr,
            Site::RefineRefine,
            Site::GovernSpend,
        ];
        let opts = DviclOptions::default();
        let pi = Coloring::unit(g.n());
        let budget = Budget::unlimited();
        let reference = try_build_autotree(&g, &pi, &opts, &budget)
            .expect("clean build")
            .canonical_labeling();
        let reference = g.permuted(&reference);

        let action = if cancel { FaultAction::Cancel } else { FaultAction::Trip };
        fault::install(FaultPlan::one(action, sites[site_idx], k));
        let injected = build_autotree_resilient(&g, &pi, &opts, &budget);
        fault::clear();
        match injected {
            Ok(o) => {
                // Whatever came back — degraded or not — is witness-valid.
                verify::verify_tree(&g, &o.tree).expect("witness-valid tree");
            }
            Err(e) => prop_assert_eq!(e.exit_code(), 3, "typed exhaustion expected"),
        }

        // No residue: the clean rebuild reproduces the reference form.
        let clean = try_build_autotree(&g, &pi, &opts, &budget).expect("post-fault build");
        prop_assert_eq!(g.permuted(&clean.canonical_labeling()), reference);
    }
}
