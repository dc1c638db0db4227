//! The structural-equivalence path (§6.1) must classify isomorphism
//! exactly like the plain path, on random graphs, and must shrink a
//! twin-dense graph by the counted amount.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_core::{simplify, try_build_autotree, Budget, DviclOptions};
use dvicl_graph::{Coloring, Graph, V};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u32>(), 0..28).prop_map(move |raw| {
            let edges: Vec<(V, V)> = raw
                .iter()
                .map(|&x| ((x % n as u32) as V, ((x / 7919) % n as u32) as V))
                .collect();
            Graph::from_edges(n, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equal simplified certificates ⇔ equal plain certificates.
    #[test]
    fn classification_agrees(a in arb_graph(10), b in arb_graph(10)) {
        let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());
        let plain = |g: &Graph| {
            try_build_autotree(g, &Coloring::unit(g.n()), &opts, &unlimited)
                .unwrap()
                .canonical_form()
                .to_form()
        };
        let simplified = |g: &Graph| {
            simplify::try_dvicl_simplified(g, &Coloring::unit(g.n()), &opts, &unlimited)
                .unwrap()
                .certificate
        };
        prop_assert_eq!(plain(&a) == plain(&b), simplified(&a) == simplified(&b));
    }

    /// The simplified certificate is relabeling-invariant on twin-rich
    /// graphs (pendants doubled to force real collapsing).
    #[test]
    fn twin_rich_invariance(g in arb_graph(8), seed in any::<u64>()) {
        // Double every vertex as a pendant twin pair to force classes.
        let n = g.n();
        let mut edges: Vec<(V, V)> = g.edges().collect();
        for v in 0..n as V {
            edges.push((v, n as V + 2 * v));
            edges.push((v, n as V + 2 * v + 1));
        }
        let gg = Graph::from_edges(3 * n, &edges);
        let mut image: Vec<V> = (0..3 * n as u32).collect();
        let mut state = seed | 1;
        for i in (1..3 * n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            image.swap(i, (state >> 33) as usize % (i + 1));
        }
        let gamma = dvicl_graph::Perm::from_image(image).unwrap();
        let (opts, unit) = (DviclOptions::default(), Coloring::unit(3 * n));
        let simplified = |g: &Graph| {
            simplify::try_dvicl_simplified(g, &unit, &opts, &Budget::unlimited()).unwrap()
        };
        let c1 = simplified(&gg);
        let c2 = simplified(&gg.permuted(&gamma));
        prop_assert!(!c1.twins.non_singleton.is_empty(), "twins were planted");
        prop_assert_eq!(c1.certificate, c2.certificate);
    }
}

#[test]
fn twin_collapse_shrinks_the_social_generator() {
    // The §6.1 ablation on the social generator with 400 twin fans:
    // collapsing the twin classes takes n from 5 800 to 3 631 simplified
    // vertices (1.6x smaller). A change that moves these counts must
    // restate them here.
    let g = dvicl_data::social::generate(&dvicl_data::social::SocialConfig {
        core_n: 3000,
        twin_fans: 400,
        fan_size: 6,
        ..Default::default()
    });
    let before = dvicl_obs::snapshot();
    let s = simplify::try_dvicl_simplified(
        &g,
        &Coloring::unit(g.n()),
        &DviclOptions::default(),
        &Budget::unlimited(),
    )
    .unwrap();
    let collapsed = dvicl_obs::snapshot()
        .diff(&before)
        .get(dvicl_obs::Counter::TwinClassesCollapsed);
    assert_eq!((g.n(), s.reps.len(), collapsed), (5800, 3631, 393));
    assert!(s.reps.len() < g.n());
}
