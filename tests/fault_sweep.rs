//! Deterministic fault-injection sweep across the whole pipeline.
//!
//! For a corpus of benchmark graphs, a clean *probe* run first counts how
//! often every fault checkpoint fires. The sweep then enumerates
//! injection points `(site, k, action)` drawn from those counts — the
//! pipeline is deterministic, so the k-th hit of a site on the injected
//! run replays the exact program state of the clean run — and asserts,
//! for every point:
//!
//! 1. the build never panics,
//! 2. it returns either `Ok` or a *typed* error whose exit code is the
//!    documented 2 or 3 — never an abort, never exit-code 4 (healthy
//!    pipelines have no witness failures),
//! 3. every `Ok` tree passes the full witness check (`verify_tree`:
//!    root form reproduction + generator soundness),
//! 4. after the sweep, a clean run still produces the probe's canonical
//!    form: no injected failure leaks state into later runs.
//!
//! A fault plan is installed on the calling thread only, so the plans
//! this test installs never reach a build another test runs beside it.
//!
//! Every site that fires gets a `trip` (work-cap exhaustion) and a
//! `cancel` at its first, middle and last hit. Sweep size: the default
//! (tier-1, debug builds) covers one graph so the test stays in the
//! seconds range. `DVICL_FAULT_SWEEP=full` — set by the CI fault-sweep
//! job, which runs in release — covers the whole corpus and asserts the
//! ≥100-injection-point floor.

use dvicl::core::{try_build_autotree, verify, AutoTree, DviclOptions};
use dvicl::govern::fault::{self, FaultPlan, Site};
use dvicl::govern::{Budget, FaultAction};
use dvicl::graph::{Coloring, Graph};
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

fn full_sweep() -> bool {
    std::env::var("DVICL_FAULT_SWEEP").as_deref() == Ok("full")
}

fn corpus() -> Vec<(&'static str, Graph)> {
    let quick = ["fpga11-20-like"];
    let names: &[&str] = if full_sweep() { &CORPUS } else { &quick };
    dvicl::data::benchmark_suite()
        .into_iter()
        .filter(|d| names.contains(&d.name))
        .map(|d| (d.name, (d.build)()))
        .collect()
}

fn build(g: &Graph) -> Result<AutoTree, dvicl::govern::DviclError> {
    let opts = DviclOptions::default();
    try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
}

#[test]
fn sweep_injects_faults_at_every_checkpoint() {
    let corpus = corpus();
    assert!(!corpus.is_empty(), "corpus datasets must resolve");

    let mut points = 0u32;
    let mut ok = 0u32;
    let mut typed_errors = 0u32;

    for (name, g) in &corpus {
        // Probe: clean run under an empty plan counts checkpoint hits.
        fault::install(FaultPlan::probe());
        let probe = build(g).unwrap_or_else(|e| panic!("{name}: clean probe failed: {e}"));
        let hits = fault::hit_counts();
        fault::clear();
        let reference = g.permuted(&probe.canonical_labeling());

        let mut plan_points: Vec<(Site, u64, FaultAction)> = Vec::new();
        for &(site, count) in &hits {
            if count == 0 {
                continue;
            }
            // The start, middle and end of the site's life.
            let mut ks = vec![1, count / 2 + 1, count];
            ks.dedup();
            for k in ks {
                plan_points.push((site, k, FaultAction::Trip));
                plan_points.push((site, k, FaultAction::Cancel));
            }
        }
        assert!(
            plan_points.len() >= 10,
            "{name}: expected a rich checkpoint profile, got {hits:?}"
        );

        for (site, k, action) in plan_points {
            fault::install(FaultPlan::one(action, site, k));
            let outcome = catch_unwind(AssertUnwindSafe(|| build(g)));
            let fired = fault::hit_counts()
                .iter()
                .any(|&(s, c)| s == site && c >= k);
            fault::clear();
            let outcome = outcome.unwrap_or_else(|_| {
                panic!("{name}: {}@{site}:{k} made the build panic", action.name())
            });
            assert!(
                fired,
                "{name}: {}@{site}:{k} never fired (probe said it would)",
                action.name()
            );
            points += 1;
            match outcome {
                Ok(t) => {
                    // An injected fault that still yields a tree must
                    // yield a *witness-valid* tree.
                    verify::verify_tree(g, &t).unwrap_or_else(|e| {
                        panic!("{name}: {}@{site}:{k} witness failure: {e}", action.name())
                    });
                    ok += 1;
                }
                Err(e) => {
                    let code = e.exit_code();
                    assert!(
                        code == 2 || code == 3,
                        "{name}: {}@{site}:{k} gave undocumented exit {code}: {e}",
                        action.name()
                    );
                    typed_errors += 1;
                }
            }
        }

        // State restoration: with the plan gone, the pipeline reproduces
        // the probe's canonical form exactly.
        let clean = build(g).unwrap_or_else(|e| panic!("{name}: post-sweep build failed: {e}"));
        assert_eq!(
            g.permuted(&clean.canonical_labeling()),
            reference,
            "{name}: canonical form drifted after the sweep"
        );
    }

    if full_sweep() {
        assert!(
            points >= 100,
            "full sweep must cover at least 100 injection points, covered {points}"
        );
        assert!(corpus.len() >= 5, "full sweep must span the whole corpus");
    }
    assert!(typed_errors > 0, "no injection surfaced a typed error");
    println!("fault sweep: {points} injection points, {ok} ok, {typed_errors} typed errors");
}
