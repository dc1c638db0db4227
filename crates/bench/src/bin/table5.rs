//! Table 5: time (s) and peak memory (MB) of the three baseline engines X
//! and of DviCL+X on the real-graph analogs. `-` = wall-clock budget
//! exceeded (the paper's 2-hour limit, scaled; override with
//! DVICL_BUDGET_SECS).
//!
//! Paper claims reproduced: DviCL+X finishes fast on every dataset; plain
//! X is slow or fails on most; the three DviCL+X variants take essentially
//! the same time and memory (the AutoTree dominates, the leaf labeler is
//! marginal).

use dvicl_bench::suite::{self, engines, print_header, print_row, run_baseline, Recorder};

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table5");
    // One DviCL+X session per engine, reused across the suite.
    let mut sessions: Vec<_> = engines()
        .into_iter()
        .map(|(name, config)| (name, suite::dvicl_session(&config), config))
        .collect();
    let widths = [16, 8, 9, 9, 10, 8, 9, 9, 10, 8, 9, 9, 10];
    println!(
        "Table 5: performance on real-graph analogs (budget per baseline run: {:?})",
        suite::budget()
    );
    print_header(
        &[
            "Graph", "nauty", "mem", "DviCL+n", "mem", "traces", "mem", "DviCL+t", "mem", "bliss",
            "mem", "DviCL+b", "mem",
        ],
        &widths,
    );
    for d in dvicl_data::social_suite() {
        let g = (d.build)();
        let mut cols = vec![d.name.to_string()];
        for (name, session, config) in &mut sessions {
            let base = run_baseline(&g, config);
            rec.record(d.name, name, &base);
            cols.push(base.fmt_time());
            cols.push(base.fmt_mem());
            let (dv, _) = suite::build_tree(&opts, session, &g);
            rec.record(d.name, &format!("dvicl+{name}"), &dv);
            cols.push(dv.fmt_time());
            cols.push(dv.fmt_mem());
        }
        print_row(&cols, &widths);
    }
    rec.write(opts.report);
}
