//! Table 3: the structure of the AutoTrees of the real-graph analogs —
//! |V(AT)|, singleton / non-singleton leaf counts, average non-singleton
//! leaf size and depth.
//!
//! Paper claims reproduced: (1) most analogs have only singleton leaves;
//! (2) the web-graph analogs have a few, small non-singleton leaves;
//! (3) AutoTrees are shallow.

use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_core::{DviclOptions, Session};

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table3");
    // One session for the whole suite: arena pools and refiner are
    // reused across every graph below.
    let mut session = Session::new(DviclOptions::default());
    let widths = [16, 10, 11, 14, 9, 6];
    println!("Table 3: AutoTree structure on real-graph analogs");
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
    for d in dvicl_data::social_suite() {
        let g = (d.build)();
        let (run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl", &run);
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
