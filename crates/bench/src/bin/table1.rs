//! Table 1: summarization of the real-graph analogs — |V|, |E|, dmax,
//! davg, and the orbit coloring's cell/singleton counts.
//!
//! Paper claim reproduced: the overwhelming majority of orbit cells are
//! singletons, which is what makes DivideI/DivideS effective.
//!
//! With `--threads N` (N > 1) every graph is built a second time over
//! the work-stealing pool and a `dvicl-tN` record lands next to the
//! sequential one in `BENCH_table1.json`: same graph, same certificate
//! (asserted byte-identical here, witness-checked under `--paranoid`
//! with the *same* check count as the sequential build), different wall
//! clock. The `speedup` column then compares the two.

use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_core::{aut, DviclOptions, Session};
use dvicl_obs::Counter;

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table1");
    let leaf_config = suite::configured(&opts, dvicl_canon::Config::bliss_like());
    // One session per mode for the whole suite: arena pools and the
    // CombineCL memo are reused across every graph below.
    let mut session = Session::new(DviclOptions {
        leaf_config: leaf_config.clone(),
        ..DviclOptions::default()
    });
    // A suite-long session for the parallel pass, so both modes
    // amortize their working memory the same way.
    let mut par_session = (opts.threads != 1).then(|| {
        Session::new(DviclOptions {
            leaf_config,
            threads: opts.threads,
            ..DviclOptions::default()
        })
    });
    let par_algo = format!("dvicl-t{}", opts.threads);
    let widths = [16, 9, 10, 7, 7, 9, 10, 9];
    println!("Table 1: summarization of real-graph analogs");
    let mut header = vec!["Graph", "|V|", "|E|", "dmax", "davg", "cells", "singleton"];
    if par_session.is_some() {
        header.push("speedup");
    }
    print_header(&header, &widths);
    for d in dvicl_data::social_suite() {
        let g = (d.build)();
        let (run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl", &run);
        let speedup = match &mut par_session {
            None => None,
            Some(ps) => {
                let (par_run, par_tree) = suite::build_tree(&opts, ps, &g);
                rec.record(d.name, &par_algo, &par_run);
                // The deterministic-merge contract (DESIGN.md §14): the
                // parallel build is a wall-clock optimization only.
                match (&tree, &par_tree) {
                    (Some(seq), Some(par)) => {
                        assert_eq!(
                            seq.canonical_form(),
                            par.canonical_form(),
                            "{}: parallel certificate differs from sequential",
                            d.name
                        );
                        if opts.paranoid {
                            assert_eq!(
                                run.counters.get(Counter::VerifyChecks),
                                par_run.counters.get(Counter::VerifyChecks),
                                "{}: parallel witness-check count differs",
                                d.name
                            );
                        }
                    }
                    _ => {
                        assert_eq!(
                            tree.is_some(),
                            par_tree.is_some(),
                            "{}: one mode finished and the other did not",
                            d.name
                        );
                    }
                }
                Some(match (run.secs, par_run.secs) {
                    (Some(s), Some(p)) if p > 0.0 => format!("{:.2}x", s / p),
                    _ => "-".to_string(),
                })
            }
        };
        let (cells, singletons) = match tree {
            Some(tree) => {
                let mut orbits = aut::orbits(&tree);
                (
                    orbits.count().to_string(),
                    orbits.count_singletons().to_string(),
                )
            }
            None => ("-".to_string(), "-".to_string()),
        };
        let mut cols = vec![
            d.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            g.max_degree().to_string(),
            format!("{:.2}", g.avg_degree()),
            cells,
            singletons,
        ];
        if let Some(s) = speedup {
            cols.push(s);
        }
        print_row(&cols, &widths);
    }
    rec.write();
}
