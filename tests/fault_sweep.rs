//! The cap sweep: every work cap is a deterministic fault.
//!
//! Every limit aborts a build in one place, `Budget::spend`, and a build
//! spends deterministically. So a build under `Budget::with_max_work(c)`
//! stops at exactly its `(c + 1)`-th unit, and it stops through the
//! production trip path, which bumps the `budget_trips` counter: a cap
//! needs no injection machinery to reach any point of a build.
//!
//! For a corpus of benchmark graphs the sweep reads a clean build's work
//! `W` from an unlimited budget, then builds on the same reused
//! `Session` under the caps `{0, W} ∪ {2^j, W − 2^j : 2^j < W}` (plus 15
//! evenly spaced caps on the quick graph), and asserts for every cap `c`:
//!
//! 1. the build never panics,
//! 2. every `c < W` returns exactly `BudgetExceeded { WorkUnits, spent:
//!    c + 1 }` and raises `budget_trips` by one,
//! 3. `c = W` returns the reference certificate,
//! 4. after the sweep, the session's next unlimited build reproduces the
//!    reference canonical form and labeling: no abort leaves state in the
//!    session's reused buffers.
//!
//! Sweep size: the default (tier-1, debug builds) covers one graph so the
//! test stays in the seconds range. `DVICL_FAULT_SWEEP=full` — set by the
//! CI fault-sweep job, which runs in release — covers the whole corpus
//! and asserts the ≥100-cap floor.
//!
//! A second test runs every governed entry point on a budget cancelled
//! before it starts, and expects `Cancelled` from each.

use dvicl::apps::{clique, cluster, im, triangles};
use dvicl::canon::{try_canonical_form, Config};
use dvicl::core::ssm::{try_count_images, try_enumerate_images, try_symmetric_key, SsmIndex};
use dvicl::core::{aut, iso, ksym, simplify, sm, try_build_autotree, DviclOptions, Session};
use dvicl::govern::{Budget, DviclError, Resource};
use dvicl::graph::{named, Coloring, Graph, Perm};
use dvicl::refine::Refiner;
use dvicl_obs::Counter;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The cheap half of `benchmark_suite()`: five graphs whose debug-mode
/// divided builds finish in about a second each, so the sweep stays
/// inside tier-1 test time. (ag2/pg2/had need minutes in debug.)
const CORPUS: [&str; 5] = [
    "mz-aug-50",
    "cfi-200",
    "grid-w-3-20",
    "fpga11-20-like",
    "s3-3-3-10-like",
];

/// The one graph of the default (quick) sweep.
const QUICK: &str = "fpga11-20-like";

fn full_sweep() -> bool {
    std::env::var("DVICL_FAULT_SWEEP").as_deref() == Ok("full")
}

fn corpus() -> Vec<(&'static str, Graph)> {
    let names: &[&str] = if full_sweep() { &CORPUS } else { &[QUICK] };
    dvicl::data::benchmark_suite()
        .into_iter()
        .filter(|d| names.contains(&d.name))
        .map(|d| (d.name, (d.build)()))
        .collect()
}

/// The caps swept on a build of `work` units: none, all of them, each
/// power of two below `work` and the same distance short of it, and
/// `spaced` caps evenly spaced in between.
fn caps(work: u64, spaced: u64) -> BTreeSet<u64> {
    let mut caps = BTreeSet::from([0, work]);
    for p in (0..u64::BITS).map(|j| 1u64 << j).take_while(|&p| p < work) {
        caps.insert(p);
        caps.insert(work - p);
    }
    caps.extend((1..=spaced).map(|i| work * i / (spaced + 1)));
    caps
}

#[test]
fn sweep_injects_faults_at_every_checkpoint() {
    let corpus = corpus();
    assert!(!corpus.is_empty(), "corpus datasets must resolve");

    let mut points = 0u32;
    let mut trips = 0u32;

    for (name, g) in &corpus {
        let unit = Coloring::unit(g.n());
        let mut session = Session::new(DviclOptions::default());
        let clean = Budget::unlimited();
        let reference = session
            .try_build(g, &unit, &clean)
            .unwrap_or_else(|e| panic!("{name}: clean build failed: {e}"));
        let work = clean.work_spent();
        let form = reference.canonical_form().to_form();
        let labeling = reference.canonical_labeling();

        let spaced = if *name == QUICK { 15 } else { 0 };
        let caps = caps(work, spaced);
        println!("{name}: W = {work}, {} caps", caps.len());
        for cap in caps {
            let before = dvicl_obs::get(Counter::BudgetTrips);
            let capped = Budget::with_max_work(cap);
            let outcome = catch_unwind(AssertUnwindSafe(|| session.try_build(g, &unit, &capped)))
                .unwrap_or_else(|_| panic!("{name}: cap {cap} made the build panic"));
            points += 1;
            if cap < work {
                let trip = DviclError::BudgetExceeded {
                    resource: Resource::WorkUnits,
                    spent: cap + 1,
                };
                assert_eq!(outcome.err(), Some(trip), "{name}: cap {cap} of {work}");
                assert_eq!(
                    dvicl_obs::get(Counter::BudgetTrips),
                    before + 1,
                    "{name}: cap {cap} must trip through report_trip once"
                );
                trips += 1;
            } else {
                let tree = outcome.unwrap_or_else(|e| panic!("{name}: cap {cap} = W failed: {e}"));
                assert_eq!(
                    tree.canonical_form().to_form(),
                    form,
                    "{name}: cap {cap} = W changed the certificate"
                );
            }
        }

        // State restoration: the session's next unlimited build
        // reproduces the reference exactly.
        let rebuilt = session
            .try_build(g, &unit, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{name}: post-sweep build failed: {e}"));
        assert_eq!(
            rebuilt.canonical_form().to_form(),
            form,
            "{name}: certificate drifted after the sweep"
        );
        assert_eq!(
            rebuilt.canonical_labeling(),
            labeling,
            "{name}: canonical labeling drifted after the sweep"
        );
    }

    if full_sweep() {
        assert!(
            points >= 100,
            "full sweep must cover at least 100 injection points, covered {points}"
        );
        assert!(corpus.len() >= 5, "full sweep must span the whole corpus");
    }
    println!(
        "cap sweep: {points} caps over {} graphs, {trips} typed trips",
        corpus.len()
    );
}

/// Asserts that `r`, the result of the entry point `what` under a
/// cancelled budget, is `Cancelled`.
fn assert_cancelled<T>(what: &str, r: Result<T, DviclError>) {
    assert_eq!(r.err(), Some(DviclError::Cancelled), "{what}");
}

#[test]
fn every_governed_entry_point_honors_a_cancelled_budget() {
    let cancelled = Budget::unlimited();
    cancelled.cancel_token().cancel();
    let unlimited = Budget::unlimited();
    let opts = DviclOptions::default();
    let g = named::petersen();
    let unit = Coloring::unit(g.n());
    let relabeled = g.permuted(&Perm::from_cycles(10, &[&[0, 7, 3]]).unwrap());
    let build =
        |g: &Graph| try_build_autotree(g, &Coloring::unit(g.n()), &opts, &unlimited).unwrap();
    let tree = build(&g);
    let index = SsmIndex::new(&tree);

    assert_cancelled(
        "try_build_autotree",
        try_build_autotree(&g, &unit, &opts, &cancelled),
    );
    let mut session = Session::new(opts.clone());
    assert_cancelled(
        "Session::try_build",
        session.try_build(&g, &unit, &cancelled),
    );
    assert_cancelled(
        "Session::try_canonical_form",
        session.try_canonical_form(&g, &cancelled),
    );
    assert_cancelled(
        "try_canonical_form",
        try_canonical_form(&g, &unit, &Config::default(), &cancelled),
    );
    assert_cancelled(
        "Refiner::try_refine",
        Refiner::new().try_refine(&g, &unit, &cancelled),
    );
    assert_cancelled(
        "iso::try_find_isomorphism",
        iso::try_find_isomorphism(&g, &relabeled, &opts, &cancelled),
    );
    assert_cancelled(
        "iso::try_are_isomorphic_joint",
        iso::try_are_isomorphic_joint(&g, &relabeled, &cancelled),
    );
    // Frucht is rigid and a star is one sibling class: neither order
    // reaches Schreier–Sims.
    for (what, h) in [
        ("Petersen", named::petersen()),
        ("Frucht", named::frucht()),
        ("star(5)", named::star(5)),
    ] {
        let order = aut::try_group_order(&build(&h), &cancelled);
        assert_cancelled(&format!("aut::try_group_order on {what}"), order);
    }
    assert_cancelled(
        "ssm::try_count_images",
        try_count_images(&tree, &index, &[0, 1], &cancelled),
    );
    assert_cancelled(
        "ssm::try_enumerate_images",
        try_enumerate_images(&tree, &index, &[0, 1], 10, &cancelled),
    );
    assert_cancelled(
        "ssm::try_symmetric_key",
        try_symmetric_key(&tree, &index, &[0, 1], &cancelled),
    );
    assert_cancelled(
        "ksym::try_k_symmetric_extension",
        ksym::try_k_symmetric_extension(&g, &tree, 2, &cancelled),
    );
    assert_cancelled(
        "simplify::try_dvicl_simplified",
        simplify::try_dvicl_simplified(&g, &unit, &opts, &cancelled),
    );
    let star = named::star(5);
    let simplified =
        simplify::try_dvicl_simplified(&star, &Coloring::unit(star.n()), &opts, &unlimited)
            .unwrap();
    assert_cancelled(
        "SimplifiedDvicl::try_original_group_order",
        simplified.try_original_group_order(&cancelled),
    );
    let path = named::path(3);
    assert_cancelled(
        "sm::try_enumerate_induced",
        sm::try_enumerate_induced(&g, &path, 10, &cancelled),
    );
    assert_cancelled(
        "sm::try_ssm_via_sm",
        sm::try_ssm_via_sm(&g, &tree, &index, &[0, 1], 10, &cancelled),
    );

    let ic = im::IcConfig::default();
    assert_cancelled("im::try_spread", im::try_spread(&g, &[0], &ic, &cancelled));
    assert_cancelled(
        "im::try_select_seeds",
        im::try_select_seeds(&g, 2, &ic, &cancelled),
    );
    assert_cancelled(
        "cluster::try_cluster_by_symmetry",
        cluster::try_cluster_by_symmetry(&tree, &index, [[0, 1]], &cancelled),
    );
    assert_cancelled(
        "triangles::try_list_triangles",
        triangles::try_list_triangles(&g, 10, &cancelled),
    );
    assert_cancelled(
        "triangles::try_for_each_triangle",
        triangles::try_for_each_triangle(&g, &cancelled, |_, _, _| true),
    );
    assert_cancelled(
        "clique::try_max_clique",
        clique::try_max_clique(&g, &cancelled),
    );
    assert_cancelled(
        "clique::try_all_max_cliques",
        clique::try_all_max_cliques(&g, 2, 10, &cancelled),
    );
}
