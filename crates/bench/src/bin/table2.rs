//! Table 2: summarization of the benchmark graphs.
//!
//! Paper claim reproduced: benchmark graphs are highly regular — most have
//! very few orbit cells and no singletons at all, the opposite profile of
//! the real graphs.

use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_canon::Config;
use dvicl_core::aut;

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table2");
    // The traces-like engine is the robust one on the regular
    // benchmark families (cf. Table 8); one session reuses its
    // arena pools and refiner across the whole suite.
    let mut session = suite::dvicl_session(&Config::traces_like());
    let widths = [16, 9, 10, 7, 7, 9, 10];
    println!("Table 2: summarization of benchmark graphs");
    print_header(
        &["Graph", "|V|", "|E|", "dmax", "davg", "cells", "singleton"],
        &widths,
    );
    for d in dvicl_data::benchmark_suite() {
        let g = (d.build)();
        let (run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl+traces", &run);
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
        print_row(
            &[
                d.name.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                g.max_degree().to_string(),
                format!("{:.2}", g.avg_degree()),
                cells,
                singletons,
            ],
            &widths,
        );
    }
    rec.write();
}
