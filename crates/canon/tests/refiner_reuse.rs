//! A `Refiner` survives an aborted search.
//!
//! The search individualizes and backtracks on the refiner's one
//! partition, so a search that stops early — a work budget tripping
//! inside a refinement or at a child's node — leaves that partition
//! mid-refinement with undo levels open. The next search must not see
//! any of it: each abort is followed by searches on a warm refiner
//! whose results, and the non-singleton cell set its partition keeps,
//! must equal a fresh refiner's.

use dvicl_canon::{try_canonical_form_with, Budget, CanonResult, Config, DviclError};
use dvicl_data::bench_graphs;
use dvicl_graph::{named, Coloring, Graph, Perm, V};
use dvicl_refine::Refiner;

/// Everything a search returns, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    form: dvicl_graph::CanonForm,
    labeling: Perm,
    generators: Vec<Perm>,
    orbits: Vec<Vec<V>>,
    stats: String,
}

fn outcome(mut r: CanonResult) -> Outcome {
    Outcome {
        orbits: r.orbits.cells(),
        stats: format!("{:?}", r.stats),
        form: r.form,
        labeling: r.labeling,
        generators: r.generators,
    }
}

fn search(
    g: &Graph,
    config: &Config,
    budget: &Budget,
    refiner: &mut Refiner,
) -> Result<Outcome, DviclError> {
    try_canonical_form_with(g, &Coloring::unit(g.n()), config, budget, refiner).map(outcome)
}

/// After an aborted search on `warm`, searches of both graphs on `warm`
/// equal searches on a fresh refiner, and leave the same non-singleton
/// set (the root's: a finished search undoes every level).
fn assert_clean(warm: &mut Refiner, graphs: &[&Graph], config: &Config) {
    for g in graphs {
        let mut fresh_refiner = Refiner::new();
        let fresh = search(g, config, &Budget::unlimited(), &mut fresh_refiner);
        let reused = search(g, config, &Budget::unlimited(), warm);
        assert_eq!(reused, fresh);
        assert_eq!(non_singleton(warm), non_singleton(&fresh_refiner));
    }
}

/// The non-singleton cell starts of `r`'s partition, ascending.
fn non_singleton(r: &Refiner) -> Vec<V> {
    let mut starts = r.partition().non_singleton().to_vec();
    starts.sort_unstable();
    starts
}

#[test]
fn refiner_reused_after_an_aborted_search_matches_a_fresh_one() {
    let cfi = bench_graphs::cfi(&bench_graphs::cubic_circulant(12), false);
    let torus = named::torus2(4, 4);
    let graphs = [&cfi, &torus];
    let config = Config::traces_like();

    // The unbudgeted search spends one unit per node and per splitter;
    // caps below its total stop it at every point of its first part,
    // most of them inside a child's refinement.
    let mut warm = Refiner::new();
    let mut trips = 0;
    for cap in 1..120 {
        match search(&cfi, &config, &Budget::with_max_work(cap), &mut warm) {
            Err(DviclError::BudgetExceeded { .. }) => trips += 1,
            other => assert!(other.is_ok(), "cap {cap}: unexpected {other:?}"),
        }
        assert_clean(&mut warm, &graphs, &config);
    }
    assert!(trips > 100, "only {trips} caps tripped the search");
}
