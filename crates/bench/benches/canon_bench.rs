//! The headline comparison (Tables 5/8 in micro form): baseline engine X
//! versus DviCL+X on representative datasets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvicl_canon::{try_canonical_form, Config};
use dvicl_core::{try_build_autotree, DviclOptions};
use dvicl_govern::Budget;
use dvicl_graph::{Coloring, Graph};
use std::time::Duration;

#[expect(
    clippy::expect_used,
    reason = "bench setup: the named graph is part of the built-in social suite"
)]
fn datasets() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "wikivote-analog",
            (dvicl_data::social_suite()
                .into_iter()
                .find(|d| d.name == "wikivote")
                .expect("registered")
                .build)(),
        ),
        ("grid-w-3-12", dvicl_data::bench_graphs::wrapped_grid(&[12, 12, 12])),
        ("mz-aug-20", dvicl_data::bench_graphs::mz_aug(20)),
    ]
}

fn bench_canon(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonical-labeling");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for (name, g) in datasets() {
        let pi = Coloring::unit(g.n());
        // Run the baseline only where it terminates at bench-friendly
        // speed (Table 5 shows it exceeding any budget on the social
        // analogs — benchmarking a timeout is meaningless).
        let baseline_feasible = matches!(name, "grid-w-3-12" | "mz-aug-20");
        if baseline_feasible {
            group.bench_with_input(BenchmarkId::new("baseline-bliss", name), &g, |b, g| {
                b.iter(|| {
                    try_canonical_form(
                        g,
                        &pi,
                        &Config::bliss_like(),
                        &Budget::with_deadline(Duration::from_secs(30)),
                    )
                    .map(|r| r.form)
                    .ok()
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("dvicl+b", name), &g, |b, g| {
            let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());
            b.iter(|| {
                try_build_autotree(g, &pi, &opts, &unlimited).map(|t| t.canonical_form().to_form())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_canon);
criterion_main!(benches);
