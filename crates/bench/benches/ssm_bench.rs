//! SSM microbenchmarks (the Table 6/7 workloads): key computation, exact
//! counting and enumeration via the AutoTree, against the SM (VF2)
//! baseline of Section 6.4.

use criterion::{criterion_group, criterion_main, Criterion};
use dvicl_apps::triangles::list_triangles;
use dvicl_core::ssm::{count_images, enumerate_images, symmetric_key, SsmIndex};
use dvicl_core::{build_autotree, sm, DviclOptions};
use dvicl_graph::Coloring;

#[expect(
    clippy::expect_used,
    reason = "bench setup: the named graph is part of the built-in social suite"
)]
fn bench_ssm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssm");
    group.sample_size(10);
    let g = (dvicl_data::social_suite()
        .into_iter()
        .find(|d| d.name == "wikivote")
        .expect("registered")
        .build)();
    let tree = build_autotree(&g, &Coloring::unit(g.n()), &DviclOptions::default());
    let index = SsmIndex::new(&tree);
    let tris = list_triangles(&g, 500);
    let query = tris[0].to_vec();

    group.bench_function("symmetric-key-per-triangle", |b| {
        b.iter(|| {
            tris.iter()
                .map(|t| symmetric_key(&tree, &index, t).len())
                .sum::<usize>()
        });
    });
    group.bench_function("count-images", |b| {
        b.iter(|| count_images(&tree, &index, &query));
    });
    group.bench_function("enumerate-ssm-at", |b| {
        b.iter(|| enumerate_images(&tree, &index, &query, 1000).matches.len());
    });
    group.bench_function("enumerate-sm-baseline", |b| {
        b.iter(|| sm::ssm_via_sm(&g, &tree, &index, &query, 1000).len());
    });
    group.finish();
}

criterion_group!(benches, bench_ssm);
criterion_main!(benches);
