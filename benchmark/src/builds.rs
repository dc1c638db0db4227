//! The build workloads — `social`, `large` and `search`: AutoTree builds
//! of a fixed item set, each repetition under a fresh relabeling.

use crate::gen::{relabel, Rng};
use crate::pass::{Passes, SetUps};
use crate::report::Report;
use crate::stats;
use crate::trace::{LayerAcc, Tracer};
use crate::{Opts, OP_DEADLINE};
use dvicl_canon::Config;
use dvicl_core::{simplify, verify, Budget, DviclOptions, Session};
use dvicl_data::social::{self, SocialConfig};
use dvicl_data::{benchmark_suite, social_suite};
use dvicl_graph::{Coloring, Fingerprint, FormRef, Graph};
use dvicl_refine::Refiner;

/// Which build workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The 22 Table-1 social analogs, bliss-like leaves.
    Social,
    /// One social analog scaled to about 2.2×10⁵ vertices, bliss-like.
    Large,
    /// Six Table-2 families whose AutoTree is a bare root, traces-like.
    Search,
}

/// The Table-2 families whose AutoTree is a bare root, so all their time
/// is IR search.
const SEARCH_FAMILIES: [&str; 6] = [
    "ag2-47",
    "cfi-200",
    "grid-w-3-20",
    "had-256",
    "mz-aug-50",
    "pg2-47",
];

/// `--smoke` keeps the three smallest social analogs.
const SMOKE_SOCIAL: [&str; 3] = ["Gnutella", "wikivote", "BuzzNet"];

/// `--smoke` keeps the two quickest root-only families.
const SMOKE_SEARCH: [&str; 2] = ["had-256", "mz-aug-50"];

/// One input of a build workload.
pub struct Item {
    /// Dataset name.
    pub name: &'static str,
    /// The unrelabeled graph.
    pub graph: Graph,
}

/// The `large` input: the Pokec analog (`social_suite`) with its core
/// scaled to `core_n` vertices at average degree 12 and its planted
/// fans, trees and mirror classes scaled `×scale`.
fn large_config(core_n: usize, scale: usize) -> SocialConfig {
    SocialConfig {
        core_n,
        avg_degree: 12.0,
        exponent: 2.5,
        twin_fans: 200 * scale,
        fan_size: 3,
        tree_hubs: 50 * scale,
        tree_copies: 2,
        tree_size: 4,
        ring_pockets: 0,
        ring_size: 8,
        ring_growth: 0,
        mirror_classes: 20 * scale,
        mirror_class_size: 5,
        mirror_degree: 160,
        seed: 0x90CE01,
    }
}

impl Family {
    /// Generates the workload's items.
    pub fn items(self, smoke: bool) -> Vec<Item> {
        let keep = |name: &str, smoke_set: &[&str]| !smoke || smoke_set.contains(&name);
        match self {
            Family::Social => social_suite()
                .into_iter()
                .filter(|d| keep(d.name, &SMOKE_SOCIAL))
                .map(|d| Item {
                    name: d.name,
                    graph: (d.build)(),
                })
                .collect(),
            Family::Large => vec![Item {
                name: "pokec-scaled",
                graph: social::generate(&if smoke {
                    large_config(20_000, 2)
                } else {
                    large_config(200_000, 22)
                }),
            }],
            Family::Search => benchmark_suite()
                .into_iter()
                .filter(|d| SEARCH_FAMILIES.contains(&d.name) && keep(d.name, &SMOKE_SEARCH))
                .map(|d| Item {
                    name: d.name,
                    graph: (d.build)(),
                })
                .collect(),
        }
    }

    /// The IR engine configuration for the AutoTree's leaves.
    fn leaf_config(self) -> Config {
        match self {
            Family::Social | Family::Large => Config::bliss_like(),
            Family::Search => Config::traces_like(),
        }
    }
}

/// Compares an item's certificate with the one its first relabeling
/// produced, by 128-bit fingerprint so no form is held while the heap is
/// metered. The first certificate seen is recorded.
pub fn check_certificate(
    report: &mut Report,
    first: &mut [Option<Fingerprint>],
    item: usize,
    name: &str,
    form: FormRef<'_>,
) {
    let fp = Fingerprint::of_form_ref(form);
    match first[item] {
        None => first[item] = Some(fp),
        Some(f) if f == fp => {}
        Some(f) => report.fail(format!(
            "{name}: certificate {fp} differs from the first relabeling's {f}"
        )),
    }
}

/// Runs one build workload.
pub fn run(workload: &'static str, family: Family, opts: &Opts) -> Report {
    let mut report = Report::new(workload);
    let mut tracer = Tracer::new();
    tracer.set(opts.trace);
    let make = |tracer: &mut Tracer| {
        let span = tracer.open("data.generate", None);
        let items = family.items(opts.smoke);
        tracer.close(span);
        items
    };
    let (mut setups, items) = SetUps::first(|| make(&mut tracer));

    let units: Vec<Coloring> = items
        .iter()
        .map(|it| Coloring::unit(it.graph.n()))
        .collect();
    let options = DviclOptions {
        leaf_config: family.leaf_config(),
        ..DviclOptions::default()
    };
    let mut rng = Rng::stream(opts.seed, workload);
    let mut passes = Passes::new(items.len());
    let mut first = vec![None; items.len()];
    let mut layers = LayerAcc::new();
    let mut twin_vertices = 0usize;
    loop {
        let mut session = Session::new(options.clone());
        let tracing = passes.begin(opts, &mut tracer);
        for (i, item) in items.iter().enumerate() {
            let g = relabel(&item.graph, &mut rng);
            let op = report.attempted;
            report.attempted += 1;
            let budget = Budget::with_deadline(OP_DEADLINE);
            let probe = tracing.then(LayerAcc::begin);
            let span = tracer.open("core.build", Some(op));
            let built = passes.time(tracing, i, || session.try_build(&g, &units[i], &budget));
            tracer.close(span);
            if let Some(p) = probe {
                layers.end(p);
            }
            let tree = match built {
                Ok(tree) => tree,
                Err(e) => {
                    report.fail(format!("{}: build failed: {e}", item.name));
                    continue;
                }
            };
            if first[i].is_none() {
                // The first relabeling of each item is witness-checked,
                // and a traced run probes the layers the build skips.
                let span = tracer.open("core.verify", Some(op));
                let verified = verify::verify_tree(&g, &tree);
                tracer.close(span);
                if let Err(e) = verified {
                    report.fail(format!("{}: verify_tree failed: {e}", item.name));
                }
                if tracing {
                    let span = tracer.open("refine.root", Some(op));
                    std::hint::black_box(Refiner::new().refine(&g, &units[i]));
                    tracer.close(span);
                    let span = tracer.open("simplify.twin_classes", Some(op));
                    let twins = simplify::twin_classes(&g, &units[i]);
                    tracer.close(span);
                    twin_vertices += twins.non_singleton.iter().map(Vec::len).sum::<usize>();
                }
            }
            check_certificate(&mut report, &mut first, i, item.name, tree.canonical_form());
        }
        drop(session);
        let more = passes.end(tracing, opts, &mut tracer);
        setups.after_pass(opts, passes.elapsed(), !more, || make(&mut tracer));
        if !more {
            break;
        }
    }
    report.set("setup_s", setups.median());
    report.set(
        "data.generate_ms",
        stats::median(&tracer.durations("data.generate")) / 1e6,
    );

    report.info("items", items.len() as f64, "count");
    let largest = |size: fn(&Graph) -> usize| items.iter().map(|it| size(&it.graph)).max();
    report.info(
        "max_vertices",
        largest(Graph::n).unwrap_or(0) as f64,
        "count",
    );
    report.info("max_edges", largest(Graph::m).unwrap_or(0) as f64, "count");
    if opts.trace {
        let traced = passes.traced_passes() as f64;
        layers.report_into(&mut report, passes.traced_passes());
        report.set(
            "core.build_ms",
            tracer.total_ns("core.build") / traced / 1e6,
        );
        report.set("refine.root_ms", tracer.total_ns("refine.root") / 1e6);
        report.set("core.verify_ms", tracer.total_ns("core.verify") / 1e6);
        report.set(
            "simplify.twin_classes_ms",
            tracer.total_ns("simplify.twin_classes") / 1e6,
        );
        report.set("simplify.twin_vertices", twin_vertices as f64);
    }
    passes.report(&mut report, &tracer, opts);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_certificate_fails_the_run() {
        let g = dvicl_graph::named::petersen();
        let mut session = Session::new(DviclOptions::default());
        let unit = Coloring::unit(g.n());
        let mut rng = Rng::stream(1, "test");
        let mut report = Report::new("search");
        let mut first = vec![None];
        for _ in 0..2 {
            let tree = session.build(&relabel(&g, &mut rng), &unit);
            check_certificate(
                &mut report,
                &mut first,
                0,
                "petersen",
                tree.canonical_form(),
            );
        }
        assert!(report.correct(), "{:?}", report.problems());
        let tree = session.build(&relabel(&g, &mut rng), &unit);
        let mut corrupted = tree.canonical_form().to_form();
        corrupted.edges.pop();
        check_certificate(&mut report, &mut first, 0, "petersen", corrupted.view());
        assert_eq!(report.failed, 1);
        assert!(!report.correct());
    }

    #[test]
    fn item_sets_are_fixed_and_smoke_shrinks_them() {
        assert_eq!(Family::Search.items(true).len(), SMOKE_SEARCH.len());
        let social = Family::Social.items(true);
        assert_eq!(social.len(), SMOKE_SOCIAL.len());
        let again = Family::Social.items(true);
        assert!(social.iter().zip(&again).all(|(a, b)| a.graph == b.graph));
        let large = Family::Large.items(true);
        assert!(large[0].graph.n() > 20_000);
    }
}
