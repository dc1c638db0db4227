//! Property-based tests for the graph substrate: algebraic laws of
//! permutations, coloring invariants, builder normalization, and the
//! graph6 roundtrip.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_graph::{graph6, Coloring, Graph, Perm, V};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..120)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
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

/// The nested reference model of a coloring: its cells in color order,
/// members ascending.
type Cells = Vec<Vec<V>>;

/// The model cells of `0..n` grouped by `key`, in ascending key order.
fn cells_by_key(n: usize, key: impl Fn(V) -> V) -> Cells {
    let mut by_key: BTreeMap<V, Vec<V>> = BTreeMap::new();
    for v in 0..n as V {
        by_key.entry(key(v)).or_default().push(v);
    }
    by_key.into_values().collect()
}

/// `pi` against the model `cells`: the same cells in the same order, each
/// vertex colored with the start of its cell's span, and the paper
/// notation `Display` printed from nested cells.
fn matches_model(pi: &Coloring, cells: &Cells) -> Result<(), String> {
    prop_assert_eq!(pi.n(), cells.iter().map(Vec::len).sum::<usize>());
    let flat: Vec<&[V]> = pi.cells().collect();
    prop_assert_eq!(&flat, &cells.iter().map(Vec::as_slice).collect::<Vec<_>>());
    prop_assert_eq!(pi.vertices().to_vec(), cells.concat());
    let mut start = 0;
    for cell in cells {
        for &v in cell {
            prop_assert_eq!(pi.color_of(v), start);
        }
        start += cell.len() as V;
    }
    let text: Vec<String> = cells
        .iter()
        .map(|c| c.iter().map(V::to_string).collect::<Vec<_>>().join(","))
        .collect();
    prop_assert_eq!(pi.to_string(), format!("[{}]", text.join("|")));
    Ok(())
}

proptest! {
    #[test]
    fn builder_normalizes(n in 1usize..30, edges in proptest::collection::vec((0u32..30, 0u32..30), 0..80)) {
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        // No self-loops, sorted unique neighbor rows, symmetric adjacency.
        for v in 0..n as V {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nb.contains(&v));
            for &w in nb {
                prop_assert!(g.has_edge(w, v));
            }
        }
        // Handshake lemma.
        let degsum: usize = (0..n as V).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.m());
    }

    #[test]
    fn permutation_group_laws(g in arb_graph(), seed in any::<u64>()) {
        let n = g.n();
        let mut image: Vec<V> = (0..n as V).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            image.swap(i, (state >> 33) as usize % (i + 1));
        }
        let p = Perm::from_image(image).unwrap();
        // Inverse laws.
        prop_assert!(p.then(&p.inverse()).is_identity());
        prop_assert!(p.inverse().then(&p).is_identity());
        // Action laws: (G^p)^(p⁻¹) = G, and composition associates with
        // the action: (G^p)^q = G^(p·q).
        prop_assert_eq!(g.permuted(&p).permuted(&p.inverse()), g.clone());
        let q = p.inverse().then(&p).then(&p); // = p
        prop_assert_eq!(g.permuted(&p).permuted(&q.inverse()), g.clone());
        // Cycle notation roundtrip.
        let cycles = p.cycles();
        let rebuilt = Perm::from_cycles(
            n,
            &cycles.iter().map(|c| c.as_slice()).collect::<Vec<_>>(),
        )
        .unwrap();
        prop_assert_eq!(rebuilt, p);
    }

    #[test]
    fn coloring_laws(n in 1usize..25, labels in proptest::collection::vec(0u32..6, 1..25)) {
        let labels: Vec<V> = (0..n).map(|i| labels[i % labels.len()]).collect();
        let pi = Coloring::from_labels(&labels);
        prop_assert_eq!(pi.n(), n);
        // Colors are cell-start offsets: strictly increasing over cells,
        // consistent with membership.
        let mut offset = 0 as V;
        for cell in pi.cells() {
            for &v in cell {
                prop_assert_eq!(pi.color_of(v), offset);
            }
            offset += cell.len() as V;
        }
        // Same input label ⇔ same cell.
        for u in 0..n as V {
            for v in 0..n as V {
                prop_assert_eq!(
                    labels[u as usize] == labels[v as usize],
                    pi.color_of(u) == pi.color_of(v)
                );
            }
        }
    }

    #[test]
    fn coloring_perm_action_is_a_right_action(n in 2usize..15, seed in any::<u64>()) {
        let labels: Vec<V> = (0..n as V).map(|v| v % 3).collect();
        let pi = Coloring::from_labels(&labels);
        let mk = |s: u64| {
            let mut image: Vec<V> = (0..n as V).collect();
            let mut state = s | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                image.swap(i, (state >> 33) as usize % (i + 1));
            }
            Perm::from_image(image).unwrap()
        };
        let p = mk(seed);
        let q = mk(seed.rotate_left(17) ^ 0xabcdef);
        // (π^p)^q = π^(p·q) — note the paper's convention π^γ(v) = π(v^γ).
        let lhs = pi.apply_perm(&p).apply_perm(&q);
        let rhs = pi.apply_perm(&q.then(&p));
        prop_assert_eq!(lhs, rhs);
    }

    /// The flat layout against the nested model: `from_labels`,
    /// `from_cells` (members given in any order), `project` (onto a
    /// shuffled subset) and `apply_perm` build the model's cells, colors
    /// and `Display` text.
    #[test]
    fn flat_layout_matches_a_nested_model(
        labels in proptest::collection::vec(0u32..6, 0..25),
        mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = labels.len();
        let label = |v: V| labels[v as usize];
        let cells = cells_by_key(n, label);
        let pi = Coloring::from_labels(&labels);
        matches_model(&pi, &cells)?;
        let descending: Cells = cells.iter().map(|c| c.iter().rev().copied().collect()).collect();
        prop_assert_eq!(Coloring::from_cells(descending), Some(pi.clone()));
        // Labels order the cells as their colors do, so grouping the
        // locals by label is the model of the projection.
        let gamma = shuffle(n, seed);
        let verts: Vec<V> = gamma
            .as_slice()
            .iter()
            .copied()
            .filter(|&v| mask >> (v % 64) & 1 == 1)
            .collect();
        let projected = cells_by_key(verts.len(), |i| label(verts[i as usize]));
        matches_model(&pi.project(&verts), &projected)?;
        // π^γ: each cell Vi becomes Vi^(γ⁻¹), in the same order.
        let inverse = gamma.inverse();
        let permuted: Cells = cells
            .iter()
            .map(|c| {
                let mut image: Vec<V> = c.iter().map(|&v| inverse.apply(v)).collect();
                image.sort_unstable();
                image
            })
            .collect();
        matches_model(&pi.apply_perm(&gamma), &permuted)?;
    }

    #[test]
    fn graph6_roundtrip(g in arb_graph()) {
        let enc = graph6::to_graph6(&g);
        prop_assert!(enc.bytes().all(|b| (63..=126).contains(&b)));
        let dec = graph6::from_graph6(&enc).unwrap();
        prop_assert_eq!(dec, g);
    }

    #[test]
    fn induced_subgraph_respects_membership(g in arb_graph(), mask in any::<u64>()) {
        let verts: Vec<V> = (0..g.n() as V).filter(|&v| mask >> (v % 64) & 1 == 1).collect();
        if verts.is_empty() {
            return Ok(());
        }
        let sub = g.induced(&verts);
        prop_assert_eq!(sub.n(), verts.len());
        for (i, &u) in verts.iter().enumerate() {
            for (j, &v) in verts.iter().enumerate() {
                if i < j {
                    prop_assert_eq!(sub.has_edge(i as V, j as V), g.has_edge(u, v));
                }
            }
        }
    }
}
