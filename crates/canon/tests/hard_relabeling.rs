//! Relabeling differential on the hard root-only families.
//!
//! `search_golden.rs` pins the search on one labeling of each full-size
//! benchmark family. This test runs the families where the search does
//! the most per-node work — `cfi-200`, `mz-aug-50` and `had-256` — under
//! three seeded relabelings each, with every target-cell selector (node
//! invariant on) and the nauty-like preset (smallest cell, invariant
//! off), and checks:
//!
//! * the certificate is the same for the graph and all its relabelings;
//! * every generator is an automorphism, and the labeling reproduces the
//!   certificate;
//! * twisted and untwisted `cfi(cubic_circulant(200))` get different
//!   certificates under every configuration.
//!
//! One case is left out: the nauty-like preset has no node invariant to
//! prune with, and on each relabeling of `cfi-200` it ran for over 240 s
//! (against 65 ms on the generator's labeling), so on that family it
//! checks the generator's labeling and the CFI pair only.
//!
//! Run it in release: `cargo test --release -p dvicl-canon --test
//! hard_relabeling -- --ignored`.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_canon::{try_canonical_form, Budget, CanonResult, Config, TargetCell};
use dvicl_data::bench_graphs;
use dvicl_graph::{CanonForm, Coloring, Graph, Perm, V};

/// The relabeling seeds.
const SEEDS: [u64; 3] = [0x5eed_0001, 0x5eed_0002, 0x5eed_0003];

/// Every selector with the node invariant on, then the nauty-like preset.
fn configs() -> Vec<Config> {
    let mut configs: Vec<Config> = [
        TargetCell::FirstNonSingleton,
        TargetCell::SmallestFirst,
        TargetCell::LargestFirst,
        TargetCell::MostConstrained,
    ]
    .into_iter()
    .map(|target_cell| Config {
        target_cell,
        use_invariant: true,
        record_tree: false,
    })
    .collect();
    configs.push(Config::nauty_like());
    configs
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn shuffle(n: usize, seed: u64) -> Perm {
    let mut image: Vec<V> = (0..n as V).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        image.swap(i, (state >> 33) as usize % (i + 1));
    }
    Perm::from_image(image).expect("bijection")
}

/// Labels `g` under `config` and checks the result's witnesses: each
/// generator maps every edge to an edge, and the labeling reproduces the
/// certificate.
#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn checked_form(name: &str, g: &Graph, config: &Config) -> CanonForm {
    let pi = Coloring::unit(g.n());
    let r: CanonResult = try_canonical_form(g, &pi, config, &Budget::unlimited())
        .expect("unlimited search cannot fail");
    for (i, gen) in r.generators.iter().enumerate() {
        assert!(
            g.edges()
                .all(|(u, w)| g.has_edge(gen.apply(u), gen.apply(w))),
            "{name} {config:?}: generator {i} is not an automorphism"
        );
    }
    assert_eq!(
        CanonForm::new(g, pi.colors(), r.labeling.as_slice()),
        r.form,
        "{name} {config:?}: the labeling does not reproduce the certificate"
    );
    r.form
}

#[test]
#[ignore = "full-size benchmark families; run in release"]
fn hard_families_are_relabeling_invariant_under_every_selector() {
    let cfi = bench_graphs::cfi(&bench_graphs::cubic_circulant(200), false);
    let twisted = bench_graphs::cfi(&bench_graphs::cubic_circulant(200), true);
    let families = [
        ("cfi-200", cfi.clone()),
        ("mz-aug-50", bench_graphs::mz_aug(50)),
        ("had-256", bench_graphs::hadamard(256)),
    ];
    for config in configs() {
        for (name, g) in &families {
            let form = checked_form(name, g, &config);
            if *name == "cfi-200" && !config.use_invariant {
                continue;
            }
            for seed in SEEDS {
                let relabeled = g.permuted(&shuffle(g.n(), seed));
                assert!(
                    checked_form(name, &relabeled, &config) == form,
                    "{name} {config:?}: relabeling {seed:#x} changed the certificate"
                );
            }
        }
        assert!(
            checked_form("cfi-200", &cfi, &config)
                != checked_form("cfi-200-twisted", &twisted, &config),
            "{config:?}: the CFI pair got one certificate"
        );
    }
}
