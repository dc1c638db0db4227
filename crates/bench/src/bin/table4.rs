//! Table 4: the structure of the AutoTrees of the benchmark graphs.
//!
//! Paper claim reproduced: most benchmark AutoTrees are a single root node
//! (the whole graph is one non-singleton leaf), so DviCL cannot help there
//! — the exceptions being the SAT-circuit graphs.

use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_canon::Config;

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table4");
    // The traces-like engine is the robust one on the regular
    // benchmark families (cf. Table 8); one session reuses its
    // arena pools and refiner across the whole suite.
    let mut session = suite::dvicl_session(&Config::traces_like());
    let widths = [16, 10, 11, 14, 9, 6];
    println!("Table 4: AutoTree structure on benchmark graphs");
    print_header(
        &[
            "Graph",
            "|V(AT)|",
            "singleton",
            "non-singleton",
            "avg size",
            "depth",
        ],
        &widths,
    );
    for d in dvicl_data::benchmark_suite() {
        let g = (d.build)();
        let (run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl+traces", &run);
        let cols = match tree {
            Some(tree) => {
                let s = tree.stats();
                vec![
                    d.name.to_string(),
                    s.total_nodes.to_string(),
                    s.singleton_leaves.to_string(),
                    s.non_singleton_leaves.to_string(),
                    format!("{:.2}", s.avg_non_singleton_size),
                    s.depth.to_string(),
                ]
            }
            None => {
                let mut cols = vec![d.name.to_string()];
                cols.extend(std::iter::repeat_n("-".to_string(), 5));
                cols
            }
        };
        print_row(&cols, &widths);
    }
    rec.write();
}
