//! Ablations of the design choices DESIGN.md calls out:
//! with/without `DivideS`, with/without structural-equivalence
//! simplification (§6.1), and the baseline's node invariant on/off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvicl_canon::{try_canonical_form, Config, TargetCell};
use dvicl_core::{simplify, try_build_autotree, Budget, DviclOptions};
use dvicl_graph::{Coloring, Graph};

fn twin_heavy() -> Graph {
    dvicl_data::social::generate(&dvicl_data::social::SocialConfig {
        core_n: 3000,
        twin_fans: 400,
        fan_size: 6,
        ..Default::default()
    })
}

#[expect(
    clippy::expect_used,
    reason = "bench setup: the named graph is part of the built-in social suite"
)]
fn bench_divide_s(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-divide-s");
    group.sample_size(10);
    // A graph full of clique cells: DivideS matters; without it the IR
    // engine labels every clique leaf.
    let g = (dvicl_data::social_suite()
        .into_iter()
        .find(|d| d.name == "NotreDame")
        .expect("registered")
        .build)();
    let pi = Coloring::unit(g.n());
    for (label, use_divide_s) in [("with-divide-s", true), ("without-divide-s", false)] {
        group.bench_with_input(BenchmarkId::new(label, "NotreDame"), &g, |b, g| {
            let opts = DviclOptions {
                use_divide_s,
                ..DviclOptions::default()
            };
            let unlimited = Budget::unlimited();
            b.iter(|| {
                try_build_autotree(g, &pi, &opts, &unlimited).map(|t| t.canonical_form().to_form())
            });
        });
    }
    group.finish();
}

fn bench_simplification(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-twin-simplification");
    group.sample_size(10);
    let g = twin_heavy();
    let pi = Coloring::unit(g.n());
    let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());
    group.bench_function("plain-dvicl", |b| {
        b.iter(|| {
            try_build_autotree(&g, &pi, &opts, &unlimited).map(|t| t.canonical_form().to_form())
        });
    });
    group.bench_function("simplified-dvicl", |b| {
        b.iter(|| {
            simplify::try_dvicl_simplified(&g, &pi, &opts, &unlimited).map(|s| s.certificate)
        });
    });
    group.finish();
}

fn bench_invariant(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-node-invariant");
    group.sample_size(10);
    let g = dvicl_data::bench_graphs::mz_aug(12);
    let pi = Coloring::unit(g.n());
    for (label, use_invariant) in [("with-invariant", true), ("without-invariant", false)] {
        group.bench_with_input(BenchmarkId::new(label, "mz-aug-12"), &g, |b, g| {
            let config = Config {
                target_cell: TargetCell::FirstNonSingleton,
                use_invariant,
                record_tree: false,
            };
            let unlimited = Budget::unlimited();
            b.iter(|| try_canonical_form(g, &pi, &config, &unlimited).map(|r| r.form));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_divide_s, bench_simplification, bench_invariant);
criterion_main!(benches);
