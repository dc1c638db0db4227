//! Microbenchmarks for the refinement function `R` — the inner loop of
//! both the IR baseline and DviCL.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvicl_govern::Budget;
use dvicl_graph::Coloring;
use dvicl_refine::{try_refine, Refiner};

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine");
    group.sample_size(20);
    let cases = vec![
        ("social-5k", dvicl_data::social::generate(&dvicl_data::social::SocialConfig::default())),
        ("grid-12", dvicl_data::bench_graphs::wrapped_grid(&[12, 12, 12])),
        ("pg2-23", dvicl_data::bench_graphs::pg2(23)),
        ("cfi-100", dvicl_data::bench_graphs::cfi(&dvicl_data::bench_graphs::cubic_circulant(100), false)),
    ];
    for (name, g) in &cases {
        group.bench_with_input(BenchmarkId::new("unit", name), g, |b, g| {
            let pi = Coloring::unit(g.n());
            let budget = Budget::unlimited();
            b.iter(|| try_refine(g, &pi, &budget));
        });
        group.bench_with_input(BenchmarkId::new("individualize", name), g, |b, g| {
            // One search-tree child on the refined root, in place:
            // individualize the first vertex of the first non-singleton
            // cell, then undo (nothing to do on a discrete root).
            let budget = Budget::unlimited();
            let mut refiner = Refiner::new();
            let _ = refiner.try_refine_in_place(g, &Coloring::unit(g.n()), &budget);
            let v = refiner
                .partition()
                .cells()
                .find(|c| c.len() > 1)
                .map(|c| c[0]);
            b.iter(|| {
                if let Some(v) = v {
                    let _ = refiner.try_individualize(g, v, &budget);
                    refiner.undo();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_refine);
criterion_main!(benches);
