//! Table 7: subgraph clustering by SSM — all maximum cliques and all
//! triangles of each analog, clustered into symmetry classes via AutoTree
//! keys: total count, number of clusters, size of the largest cluster.
//!
//! Paper claims reproduced: cliques/triangles are diverse (clusters ≈
//! total) yet some have symmetric copies (max cluster > 1 on many
//! graphs).

use dvicl_apps::clique::{try_all_max_cliques, try_max_clique};
use dvicl_apps::cluster::try_cluster_by_symmetry;
use dvicl_apps::triangles::try_list_triangles;
use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_core::ssm::SsmIndex;
use dvicl_core::{Budget, DviclOptions, Session};

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

const CLIQUE_LIMIT: usize = 20_000;
const TRIANGLE_LIMIT: usize = 200_000;

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("table7");
    // One session for the whole suite: arena pools and refiner are
    // reused across every graph below.
    let mut session = Session::new(DviclOptions::default());
    let widths = [16, 9, 9, 6, 10, 10, 8];
    println!("Table 7: subgraph clustering by SSM (maximum cliques | triangles)");
    print_header(
        &[
            "Graph", "mc#", "mc-clst", "mc-max", "tri#", "tri-clst", "tri-max",
        ],
        &widths,
    );
    for d in dvicl_data::social_suite() {
        let g = (d.build)();
        let (build_run, tree) = suite::build_tree(&opts, &mut session, &g);
        rec.record(d.name, "dvicl", &build_run);
        let Some(tree) = tree else {
            let mut cols = vec![d.name.to_string()];
            cols.extend(std::iter::repeat_n("-".to_string(), 6));
            print_row(&cols, &widths);
            continue;
        };
        let index = SsmIndex::new(&tree);
        let unlimited = Budget::unlimited();
        let (clique_run, cc) = suite::measure(|| {
            let mc = try_max_clique(&g, &unlimited).ok()?;
            let cliques = try_all_max_cliques(&g, mc.len(), CLIQUE_LIMIT, &unlimited).ok()?;
            let sets = cliques.iter().map(|c| c.as_slice());
            try_cluster_by_symmetry(&tree, &index, sets, &unlimited).ok()
        });
        rec.record(d.name, "ssm_cliques", &clique_run);
        let (tri_run, tc) = suite::measure(|| {
            let tris = try_list_triangles(&g, TRIANGLE_LIMIT, &unlimited).ok()?;
            let sets = tris.iter().map(|t| t.as_slice());
            try_cluster_by_symmetry(&tree, &index, sets, &unlimited).ok()
        });
        rec.record(d.name, "ssm_triangles", &tri_run);
        let (cc, tc) = match (cc, tc) {
            (Some(cc), Some(tc)) => (cc, tc),
            // Under an unlimited budget the closures above cannot fail on
            // these non-empty sets; a failure skips the row, not a panic.
            _ => continue,
        };
        print_row(
            &[
                d.name.to_string(),
                cc.total.to_string(),
                cc.clusters.to_string(),
                cc.max_cluster.to_string(),
                tc.total.to_string(),
                tc.clusters.to_string(),
                tc.max_cluster.to_string(),
            ],
            &widths,
        );
    }
    rec.write();
}
