//! SSM microbenchmarks (the Table 6/7 workloads): key computation, exact
//! counting and enumeration via the AutoTree, against the SM (VF2)
//! baseline of Section 6.4.

use criterion::{criterion_group, criterion_main, Criterion};
use dvicl_apps::triangles::try_list_triangles;
use dvicl_core::ssm::{try_count_images, try_enumerate_images, try_symmetric_key, SsmIndex};
use dvicl_core::{sm, try_build_autotree, Budget, DviclOptions};
use dvicl_graph::Coloring;

#[expect(
    clippy::expect_used,
    reason = "bench setup: the named graph is part of the built-in social suite, and unlimited builds and listings cannot fail"
)]
fn bench_ssm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssm");
    group.sample_size(10);
    let g = (dvicl_data::social_suite()
        .into_iter()
        .find(|d| d.name == "wikivote")
        .expect("registered")
        .build)();
    let unlimited = Budget::unlimited();
    let opts = DviclOptions::default();
    let tree =
        try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited).expect("unlimited build");
    let index = SsmIndex::new(&tree);
    let tris = try_list_triangles(&g, 500, &unlimited).expect("unlimited listing");
    let query = tris[0].to_vec();

    group.bench_function("symmetric-key-per-triangle", |b| {
        b.iter(|| {
            tris.iter()
                .map(|t| try_symmetric_key(&tree, &index, t, &unlimited).map_or(0, |k| k.len()))
                .sum::<usize>()
        });
    });
    group.bench_function("count-images", |b| {
        b.iter(|| try_count_images(&tree, &index, &query, &unlimited));
    });
    group.bench_function("enumerate-ssm-at", |b| {
        b.iter(|| {
            try_enumerate_images(&tree, &index, &query, 1000, &unlimited).map(|m| m.matches.len())
        });
    });
    group.bench_function("enumerate-sm-baseline", |b| {
        b.iter(|| sm::try_ssm_via_sm(&g, &tree, &index, &query, 1000, &unlimited).map(|m| m.len()));
    });
    group.finish();
}

criterion_group!(benches, bench_ssm);
criterion_main!(benches);
