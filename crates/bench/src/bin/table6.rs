//! Table 6: symmetric subgraph matching on influence-maximization seed
//! sets — the number of candidate seed sets with the same influence as the
//! selected set S (|S| = 10 and |S| = 100), and the counting time.
//!
//! Paper claims reproduced: many graphs admit astronomically many
//! symmetric seed sets (up to 10^88 in the paper; the analogs reach
//! similar magnitudes on twin-rich graphs), and counting them via the
//! AutoTree is fast.

use dvicl_apps::im::{try_select_seeds, IcConfig};
use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_core::ssm::{try_count_images, SsmIndex};
use dvicl_core::{DviclOptions, Session};
use dvicl_govern::Budget;

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table6");
    // One session for the whole suite: arena pools and refiner are
    // reused across every graph below.
    let mut session = Session::new(DviclOptions::default());
    let widths = [16, 14, 9, 14, 9];
    println!("Table 6: SSM on seed sets S selected by influence maximization");
    print_header(
        &["Graph", "#sets |S|=10", "time", "#sets |S|=100", "time"],
        &widths,
    );
    // Sub-critical constant activation probability: the cascade stays
    // local so CELF's Monte-Carlo evaluations are cheap, matching the
    // paper's constant-probability setup of [1].
    let ic = IcConfig {
        prob: 0.005,
        rounds: 30,
        seed: 0x1C,
    };
    for d in dvicl_data::social_suite() {
        let g = (d.build)();
        let (build_run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl", &build_run);
        let Some(tree) = tree else {
            print_row(
                &[
                    d.name.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ],
                &widths,
            );
            continue;
        };
        let index = SsmIndex::new(&tree);
        let mut cols = vec![d.name.to_string()];
        // Greedy seeds are prefix-nested: one k=100 run serves both rows.
        let seeds100 = try_select_seeds(&g, 100, &ic, &Budget::unlimited()).ok();
        for k in [10usize, 100] {
            // Counting honors the same wall-clock budget as the builds.
            let limits = Budget::with_deadline(suite::budget());
            let (run, count) = suite::measure(|| {
                let seeds = &seeds100.as_ref()?[..k];
                try_count_images(&tree, &index, seeds, &limits).ok()
            });
            rec.record(d.name, &format!("ssm_count_k{k}"), &run);
            cols.push(count.map_or_else(|| "-".to_string(), |c| c.to_scientific()));
            cols.push(run.fmt_time());
        }
        print_row(&cols, &widths);
    }
    rec.write();
}
