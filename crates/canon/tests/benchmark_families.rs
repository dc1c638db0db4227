//! The IR engines against the benchmark graph families at test scale:
//! every configuration must produce relabeling-invariant certificates and
//! find the full automorphism group, including on the refinement-defeating
//! CFI instances.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_canon::{try_canonical_form, Budget, CanonResult, Config, TargetCell};
use dvicl_data::bench_graphs;
use dvicl_graph::{Coloring, Graph, Perm, V};
use dvicl_group::StabChain;

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

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn canonical_form(g: &Graph, pi: &Coloring, config: &Config) -> CanonResult {
    try_canonical_form(g, pi, config, &Budget::unlimited()).expect("unlimited search cannot fail")
}

fn check_invariance(name: &str, g: &Graph, config: &Config) {
    let pi = Coloring::unit(g.n());
    let r1 = canonical_form(g, &pi, config);
    for round in 0..2 {
        let gamma = shuffle(g.n(), 0xfeed + round);
        let r2 = canonical_form(&g.permuted(&gamma), &pi, config);
        assert_eq!(r1.form, r2.form, "{name}: certificate not invariant");
        // Group order must be invariant too.
        assert_eq!(
            StabChain::new(g.n(), &r1.generators).order(),
            StabChain::new(g.n(), &r2.generators).order(),
            "{name}: group order not invariant"
        );
    }
}

#[test]
fn small_geometric_graphs_all_configs() {
    for (name, g) in [
        ("ag2-5", bench_graphs::ag2(5)),
        ("pg2-3", bench_graphs::pg2(3)),
        ("had-8", bench_graphs::hadamard(8)),
    ] {
        for config in [
            Config::bliss_like(),
            Config::nauty_like(),
            Config::traces_like(),
        ] {
            check_invariance(name, &g, &config);
        }
    }
}

#[test]
fn medium_geometric_graphs_traces() {
    // The traces-like engine must stay fast at these scales (Table 8).
    for (name, g) in [
        ("ag2-13", bench_graphs::ag2(13)),
        ("pg2-13", bench_graphs::pg2(13)),
        ("had-32", bench_graphs::hadamard(32)),
        ("grid-3x6", bench_graphs::wrapped_grid(&[6, 6, 6])),
    ] {
        check_invariance(name, &g, &Config::traces_like());
    }
}

#[test]
fn cfi_pairs_are_separated_by_all_configs() {
    let base = bench_graphs::cubic_circulant(8);
    let a = bench_graphs::cfi(&base, false);
    let b = bench_graphs::cfi(&base, true);
    let pi = Coloring::unit(a.n());
    for config in [
        Config::bliss_like(),
        Config::nauty_like(),
        Config::traces_like(),
    ] {
        let fa = canonical_form(&a, &pi, &config).form;
        let fb = canonical_form(&b, &pi, &config).form;
        assert_ne!(fa, fb, "{config:?} failed to separate the CFI pair");
    }
}

#[test]
fn cfi_selector_portfolio_changes_nodes_not_certificates() {
    // The target-cell selector steers *which* subtree the IR search
    // explores first. On this refinement-defeating CFI instance the
    // paper's first-non-singleton selector and the DSATUR-style
    // most-constrained selector land on the same canonical leaf — the
    // certificates are byte-identical — but reach it through different
    // trees: the node counts differ. Every selector still separates the
    // twisted pair.
    let base = bench_graphs::cubic_circulant(12);
    let a = bench_graphs::cfi(&base, false);
    let b = bench_graphs::cfi(&base, true);
    let pi = Coloring::unit(a.n());
    let mut results = Vec::new();
    for tc in [TargetCell::FirstNonSingleton, TargetCell::MostConstrained] {
        let mut config = Config::bliss_like();
        config.target_cell = tc;
        let ra = canonical_form(&a, &pi, &config);
        let rb = canonical_form(&b, &pi, &config);
        assert_ne!(ra.form, rb.form, "{tc:?} failed to separate the CFI pair");
        results.push(ra);
    }
    assert_eq!(
        results[0].form, results[1].form,
        "both selectors must reach the same canonical leaf here"
    );
    assert_ne!(
        results[0].stats.nodes, results[1].stats.nodes,
        "the selectors must explore differently-shaped trees"
    );
}

#[test]
fn ag2_group_order_is_the_affine_group() {
    // |Aut(AG(2,q) incidence graph)| = |AGL(2,q)| = q²(q²−1)(q²−q)
    // for prime q > 2 (the plane's automorphisms; no duality for AG).
    let q = 5u64;
    let g = bench_graphs::ag2(q as usize);
    let r = canonical_form(&g, &Coloring::unit(g.n()), &Config::traces_like());
    let expected = q * q * (q * q - 1) * (q * q - q);
    assert_eq!(
        StabChain::new(g.n(), &r.generators).order().to_u64(),
        Some(expected)
    );
}

#[test]
fn pg2_group_order_is_pgl_with_duality() {
    // |Aut(PG(2,q) incidence graph)| = 2·|PGL(3,q)| (the factor 2 is
    // point–line duality). |PGL(3,q)| = q³(q³−1)(q²−1).
    let q = 3u64;
    let g = bench_graphs::pg2(q as usize);
    let r = canonical_form(&g, &Coloring::unit(g.n()), &Config::traces_like());
    let pgl = q.pow(3) * (q.pow(3) - 1) * (q.pow(2) - 1);
    assert_eq!(
        StabChain::new(g.n(), &r.generators).order().to_u64(),
        Some(2 * pgl)
    );
}

#[test]
fn budget_is_respected_quickly() {
    let g = bench_graphs::ag2(23);
    let t0 = std::time::Instant::now();
    let r = try_canonical_form(
        &g,
        &Coloring::unit(g.n()),
        &Config::nauty_like(),
        &Budget::with_deadline(std::time::Duration::from_millis(300)),
    );
    // Either it finished fast or it aborted close to the deadline.
    if r.is_err() {
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }
}

#[test]
fn node_invariant_shrinks_the_search_tree() {
    // The invariant ablation on `mz_aug(12)` (n 240). The saving is not
    // P_A/P_B pruning: `pruned_invariant` is 0 both ways. The invariant
    // decides which leaf is best, and so which automorphisms the search
    // finds for P_C (20 generators against 18). A change that moves
    // these counts must restate them here.
    let g = bench_graphs::mz_aug(12);
    let pi = Coloring::unit(g.n());
    let stats = |use_invariant| {
        let config = Config {
            target_cell: TargetCell::FirstNonSingleton,
            use_invariant,
            record_tree: false,
        };
        let s = canonical_form(&g, &pi, &config).stats;
        (s.nodes, s.leaves, s.pruned_invariant)
    };
    let (on, off) = (stats(true), stats(false));
    assert_eq!(g.n(), 240);
    assert_eq!(on, (208, 24, 0));
    assert_eq!(off, (245, 28, 0));
    assert!(on.0 < off.0 && on.1 < off.1);
}
