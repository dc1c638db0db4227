//! Arena stack discipline and work caps as deterministic faults.
//!
//! Two properties, both driven by the vendored deterministic proptest:
//!
//! 1. `SubArena` mark/release discipline survives *early returns*: when
//!    a frame errors after its carve (or a deeper frame does), every
//!    enclosing frame still restores its mark, so the arena ends each
//!    frame exactly where it started — bytes and mark both.
//! 2. A work cap is a deterministic fault that is never swallowed: a
//!    cap `c` below the clean build's work `W` aborts the build with
//!    exactly `BudgetExceeded { WorkUnits, spent: c + 1 }` through the
//!    production trip path, and `c = W` yields the reference
//!    certificate. Either way the session's state is not corrupted: its
//!    next unlimited build reproduces the reference form and labeling.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_core::{DviclOptions, Session, Sub, SubArena};
use dvicl_govern::{Budget, DviclError, Resource};
use dvicl_graph::{Coloring, Graph, V};
use dvicl_obs::Counter;
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

    /// Property 2: a work cap trips exactly and leaves no residue.
    #[test]
    fn work_caps_trip_exactly_and_leave_no_residue(
        g in arb_graph(16),
        seed in any::<u64>(),
    ) {
        let pi = Coloring::unit(g.n());
        let mut session = Session::new(DviclOptions::default());
        let clean = Budget::unlimited();
        let reference = session.try_build(&g, &pi, &clean).expect("clean build");
        let work = clean.work_spent();
        let cap = seed % (work + 1);

        let trips = dvicl_obs::get(Counter::BudgetTrips);
        let capped = session.try_build(&g, &pi, &Budget::with_max_work(cap));
        if cap < work {
            let trip = DviclError::BudgetExceeded { resource: Resource::WorkUnits, spent: cap + 1 };
            prop_assert_eq!(capped.err(), Some(trip));
            prop_assert_eq!(dvicl_obs::get(Counter::BudgetTrips), trips + 1);
        } else {
            let t = capped.expect("the cap covers the clean build's work");
            prop_assert_eq!(t.canonical_form().to_form(), reference.canonical_form().to_form());
        }

        // No residue: the next unlimited build reproduces the reference.
        let rebuilt = session.try_build(&g, &pi, &Budget::unlimited()).expect("post-cap build");
        prop_assert_eq!(rebuilt.canonical_form().to_form(), reference.canonical_form().to_form());
        prop_assert_eq!(rebuilt.canonical_labeling(), reference.canonical_labeling());
    }
}
