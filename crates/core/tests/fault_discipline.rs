//! Arena stack discipline under injected faults.
//!
//! Two properties, both driven by the vendored deterministic proptest:
//!
//! 1. `SubArena` mark/release discipline survives *early returns*: when
//!    a frame errors after its carve (or a deeper frame does), every
//!    enclosing frame still restores its mark, so the arena ends each
//!    frame exactly where it started — bytes and mark both.
//! 2. An injected fault that fires is never swallowed: the build
//!    returns the injected typed error. A plan that does not fire leaves
//!    a witness-valid tree. Either way process state is not corrupted:
//!    the next clean build reproduces the reference canonical form.
//!
//! A fault plan is installed on the calling thread only, so the
//! property that installs plans cannot reach the builds of any other
//! test running beside it.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_core::{try_build_autotree, verify, DviclOptions, Sub, SubArena};
use dvicl_govern::fault::{self, FaultPlan, Site};
use dvicl_govern::{Budget, DviclError, FaultAction, Resource};
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

/// Recursively carves children like `Builder::build` does, failing
/// inside the carve of the frame at depth `fail_at` (as a budget trip
/// deep in a build does), and asserting at every frame — on success
/// *and* on early error return — that the frame's mark and byte level
/// are restored before the frame exits.
fn carve(
    arena: &mut SubArena,
    sub: &Sub,
    depth: usize,
    fail_at: usize,
    picks: &[u32],
) -> Result<(), DviclError> {
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
            let child = a.induced_child(sub, &locals);
            if depth == fail_at {
                return Err(DviclError::Cancelled);
            }
            carve(a, &child, depth - 1, fail_at, picks)
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

    /// Property 1: early returns from any depth restore every frame.
    #[test]
    fn early_returns_restore_every_frame(
        g in arb_graph(24),
        picks in proptest::collection::vec(any::<u32>(), 8..32),
        fail_at in 0usize..=6,
    ) {
        let mut arena = SubArena::new();
        let whole = arena.whole(&g);
        let base = arena.bytes_now();
        let outer_mark = arena.mark();
        // `fail_at` 0 never fails: the recursion stops at depth 1.
        let r = carve(&mut arena, &whole, 6, fail_at, &picks);
        // The result may be Ok (the failing frame was never reached) or
        // the raised error — and either way the arena is level again.
        if let Err(e) = r {
            prop_assert_eq!(e, DviclError::Cancelled);
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

        let site = sites[site_idx];
        let (action, injected_error) = if cancel {
            (FaultAction::Cancel, DviclError::Cancelled)
        } else {
            let trip = DviclError::BudgetExceeded { resource: Resource::WorkUnits, spent: k };
            (FaultAction::Trip, trip)
        };
        fault::install(FaultPlan::one(action, site, k));
        let injected = try_build_autotree(&g, &pi, &opts, &budget);
        let fired = fault::hit_counts().iter().any(|&(s, c)| s == site && c >= k);
        fault::clear();
        match injected {
            Ok(t) => {
                let arm = format!("{}@{site}:{k}", action.name());
                prop_assert!(!fired, "{arm} fired but the build returned a tree");
                verify::verify_tree(&g, &t).expect("witness-valid tree");
            }
            Err(e) => prop_assert_eq!(e, injected_error),
        }

        // No residue: the clean rebuild reproduces the reference form.
        let clean = try_build_autotree(&g, &pi, &opts, &budget).expect("post-fault build");
        prop_assert_eq!(g.permuted(&clean.canonical_labeling()), reference);
    }
}
