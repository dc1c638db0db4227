//! Table 8: time (s) of the baseline engines X and DviCL+X on the
//! benchmark graphs.
//!
//! Paper claims reproduced: the traces-like engine is the most robust on
//! benchmarks; DviCL+X ≈ X on these graphs (their AutoTrees are mostly a
//! single leaf, Table 4, so DviCL adds only a vanishing preprocessing
//! cost).

use dvicl_bench::suite::{self, engines, print_header, print_row, run_baseline, Recorder};

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table8");
    // One DviCL+X session per engine, reused across the suite.
    let mut sessions: Vec<_> = engines()
        .into_iter()
        .map(|(name, config)| (name, suite::dvicl_session(&config), config))
        .collect();
    let widths = [16, 9, 10, 9, 10, 9, 10];
    println!(
        "Table 8: performance on benchmark graphs (budget per baseline run: {:?})",
        suite::budget()
    );
    print_header(
        &[
            "Graph", "nauty", "DviCL+n", "traces", "DviCL+t", "bliss", "DviCL+b",
        ],
        &widths,
    );
    for d in dvicl_data::benchmark_suite() {
        let g = (d.build)();
        let mut cols = vec![d.name.to_string()];
        for (name, session, config) in &mut sessions {
            let base = run_baseline(&g, config);
            rec.record(d.name, name, &base);
            cols.push(base.fmt_time());
            let (dv, _) = suite::build_tree(&opts, session, &g);
            rec.record(d.name, &format!("dvicl+{name}"), &dv);
            cols.push(dv.fmt_time());
        }
        print_row(&cols, &widths);
    }
    rec.write(opts.report);
}
