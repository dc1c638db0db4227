//! Table 1: summarization of the real-graph analogs — |V|, |E|, dmax,
//! davg, and the orbit coloring's cell/singleton counts.
//!
//! Paper claim reproduced: the overwhelming majority of orbit cells are
//! singletons, which is what makes DivideI/DivideS effective.

use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_core::aut;

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table1");
    // One session for the whole suite: arena pools and refiner are
    // reused across every graph below.
    let mut session = suite::dvicl_session(&dvicl_canon::Config::bliss_like());
    let widths = [16, 9, 10, 7, 7, 9, 10];
    println!("Table 1: summarization of real-graph analogs");
    print_header(
        &["Graph", "|V|", "|E|", "dmax", "davg", "cells", "singleton"],
        &widths,
    );
    for d in dvicl_data::social_suite() {
        let g = (d.build)();
        let (run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl", &run);
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
        let cols = [
            d.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            g.max_degree().to_string(),
            format!("{:.2}", g.avg_degree()),
            cells,
            singletons,
        ];
        print_row(&cols, &widths);
    }
    rec.write();
}
