//! Node-level oracle for `CombineST` (DESIGN.md §10.3).
//!
//! `verify_root_form` checks the root certificate only. Here every
//! `Internal` node of the tree is checked against the sort-based oracle:
//! its stored form must equal `CanonForm::new` on the node's induced
//! subgraph under the node's stored labels. Every child's labels must
//! differ from its parent's by one constant per cell of `π` — the shift
//! identity `γ_g(v) = γ_c(v) + seen[π(v)]` the combine relies on. Every
//! non-singleton leaf's members in global cell `c` must carry exactly
//! the labels `c..c+k` — `CombineCL`'s rank `π(v_i) + λ(i) − π_g(i)`.
//!
//! The inputs are random graphs under random relabelings: sparse random
//! graphs, disconnected unions with repeated components, twin fans
//! around the hubs of a random core, clique/biclique shapes that fire
//! `DivideS`, and cycles with pendant paths, whose one leaf has several
//! cells.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_core::{try_build_autotree, AutoTree, Budget, DviclOptions, NodeKind};
use dvicl_graph::{CanonForm, Coloring, Graph, Perm, V};
use dvicl_obs::{self as obs, Counter};
use proptest::prelude::*;

/// A splitmix64 stream: the shapes below draw all their choices from it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Sparse random graph on `n` vertices with about `n * deg / 2` edges.
fn random(rng: &mut Rng, n: usize, deg: usize) -> Graph {
    let edges: Vec<(V, V)> = (0..n * deg / 2)
        .map(|_| (rng.below(n) as V, rng.below(n) as V))
        .collect();
    Graph::from_edges(n, &edges)
}

/// A random core whose first few vertices are hubs, each with a fan of
/// pendant twins; two hubs get equal fans so their subtrees are
/// symmetric siblings.
fn twin_fans(rng: &mut Rng) -> Graph {
    let core = 6 + rng.below(20);
    let mut edges: Vec<(V, V)> = (1..core).map(|v| (rng.below(v) as V, v as V)).collect();
    for _ in 0..rng.below(core) {
        edges.push((rng.below(core) as V, rng.below(core) as V));
    }
    let mut n = core;
    let hubs = 1 + rng.below(4);
    let equal = 2 + rng.below(4);
    for h in 0..hubs {
        let fan = if h < 2 { equal } else { 1 + rng.below(6) };
        for _ in 0..fan {
            edges.push((h as V, n as V));
            n += 1;
        }
    }
    Graph::from_edges(n, &edges)
}

/// Clique and biclique cells joined to pendants: equitable refinement
/// leaves a clique cell or a complete bipartite pair of cells, and
/// `DivideS` removes their edges to split the graph.
fn cliques(rng: &mut Rng) -> Graph {
    let k = 3 + rng.below(5);
    let mut edges: Vec<(V, V)> = Vec::new();
    let mut n;
    if rng.below(2) == 0 {
        // K_k with one pendant path of length `len` on every vertex.
        let len = 1 + rng.below(3);
        for u in 0..k {
            for v in u + 1..k {
                edges.push((u as V, v as V));
            }
        }
        n = k;
        for u in 0..k {
            let mut prev = u;
            for _ in 0..len {
                edges.push((prev as V, n as V));
                prev = n;
                n += 1;
            }
        }
    } else {
        // K_{a,b} with a pendant on each left vertex.
        let (a, b) = (2 + rng.below(4), 2 + rng.below(4));
        for u in 0..a {
            for v in 0..b {
                edges.push((u as V, (a + v) as V));
            }
        }
        n = a + b;
        for u in 0..a {
            edges.push((u as V, n as V));
            n += 1;
        }
    }
    // Sometimes a second, identical copy: a component split above DivideS.
    let g = Graph::from_edges(n, &edges);
    if rng.below(2) == 0 {
        g.disjoint_union(&g)
    } else {
        g
    }
}

/// A cycle `C_k` with a pendant path of `len` vertices on every cycle
/// vertex: refinement stops at one cell per distance from the cycle, no
/// cell is a clique or fully joined to another, and the graph is
/// connected, so it is one non-singleton leaf whose `π_g` has `len + 1`
/// cells.
fn corona(rng: &mut Rng) -> Graph {
    let (k, len) = (4 + rng.below(8), 1 + rng.below(3));
    let mut edges: Vec<(V, V)> = (0..k).map(|i| (i as V, ((i + 1) % k) as V)).collect();
    let mut n = k;
    for u in 0..k {
        let mut prev = u;
        for _ in 0..len {
            edges.push((prev as V, n as V));
            prev = n;
            n += 1;
        }
    }
    Graph::from_edges(n, &edges)
}

/// A disjoint union of random pieces, some of them repeated; pieces of
/// 32 or more vertices become pool jobs in a 4-thread build.
fn disconnected(rng: &mut Rng) -> Graph {
    let mut g = Graph::from_edges(0, &[]);
    for _ in 0..2 + rng.below(3) {
        let piece = match rng.below(3) {
            0 => {
                let n = 2 + rng.below(10);
                random(rng, n, 2)
            }
            1 => twin_fans(rng),
            _ => {
                let n = 32 + rng.below(16);
                random(rng, n, 3)
            }
        };
        g = g.disjoint_union(&piece);
        if rng.below(2) == 0 {
            g = g.disjoint_union(&piece);
        }
    }
    g
}

fn shape(seed: u64) -> Graph {
    let mut rng = Rng(seed);
    match rng.below(5) {
        0 => {
            let (n, deg) = (1 + rng.below(40), 1 + rng.below(4));
            random(&mut rng, n, deg)
        }
        1 => twin_fans(&mut rng),
        2 => cliques(&mut rng),
        3 => corona(&mut rng),
        _ => disconnected(&mut rng),
    }
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn shuffled(n: usize, seed: u64) -> Perm {
    let mut rng = Rng(seed);
    let mut image: Vec<V> = (0..n as V).collect();
    for i in (1..n).rev() {
        image.swap(i, rng.below(i + 1));
    }
    Perm::from_image(image).expect("a shuffle of 0..n is a permutation")
}

/// Checks every internal node of `t` (built from `g`) against the
/// oracle, and every non-singleton leaf's labels against its cells.
fn check_nodes(g: &Graph, t: &AutoTree) -> Result<(), String> {
    for node in t.nodes() {
        let verts = node.verts();
        if node.kind() == NodeKind::NonSingletonLeaf {
            // Sorted by (cell, label), the labels of each cell's members
            // must count up from the cell's start.
            let mut by_cell: Vec<(V, V)> = verts
                .iter()
                .zip(node.labels())
                .map(|(&v, &l)| (t.pi.color_of(v), l))
                .collect();
            by_cell.sort_unstable();
            for run in by_cell.chunk_by(|a, b| a.0 == b.0) {
                if run.iter().zip(run[0].0..).any(|(&(_, l), want)| l != want) {
                    return Err(format!(
                        "leaf {} over {verts:?}: cell {} labeled {run:?}",
                        node.id(),
                        run[0].0
                    ));
                }
            }
        }
        if node.kind() != NodeKind::Internal {
            continue;
        }
        let colors: Vec<V> = verts.iter().map(|&v| t.pi.color_of(v)).collect();
        let oracle = CanonForm::new(&g.induced(verts), &colors, node.labels());
        if oracle.view() != node.form() {
            return Err(format!(
                "node {} over {verts:?}: stored form {:?}, oracle {oracle:?}",
                node.id(),
                node.form()
            ));
        }
        for &c in node.children() {
            let child = t.node(c);
            let mut shifts: Vec<(V, i64)> = child
                .verts()
                .iter()
                .zip(child.labels())
                .map(|(&v, &l)| {
                    let parent = verts
                        .binary_search(&v)
                        .map_or(i64::MIN, |i| i64::from(node.labels()[i]));
                    (t.pi.color_of(v), parent - i64::from(l))
                })
                .collect();
            shifts.sort_unstable();
            shifts.dedup();
            if shifts.windows(2).any(|w| w[0].0 == w[1].0) {
                return Err(format!(
                    "child {c} of node {}: shift not constant per cell: {shifts:?}",
                    node.id()
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_internal_node_matches_the_oracle(seed in any::<u64>(), relabel in any::<u64>()) {
        let g = shape(seed);
        let g = g.permuted(&shuffled(g.n(), relabel));
        let (opts, unit) = (DviclOptions::default(), Coloring::unit(g.n()));
        let t = try_build_autotree(&g, &unit, &opts, &Budget::unlimited()).unwrap();
        if let Err(e) = check_nodes(&g, &t) {
            prop_assert!(false, "seed {seed} relabel {relabel}: {e}");
        }
    }
}

#[test]
fn the_shapes_reach_every_divide_rule() {
    // The oracle above only means something if the inputs exercise cut
    // edges of every kind: DivideS deletions, DivideI axes and component
    // splits; and leaves whose projection `π_g` has several cells, where
    // a leaf's labels are not simply its cell's start plus `λ`.
    let before = obs::snapshot();
    let mut multi_cell_leaves = 0;
    for seed in 0..64 {
        let g = shape(seed);
        let (opts, unit) = (DviclOptions::default(), Coloring::unit(g.n()));
        let t = try_build_autotree(&g, &unit, &opts, &Budget::unlimited()).unwrap();
        assert_eq!(check_nodes(&g, &t), Ok(()));
        multi_cell_leaves += t
            .nodes()
            .filter(|node| node.kind() == NodeKind::NonSingletonLeaf)
            .filter(|node| {
                let first = t.pi.color_of(node.verts()[0]);
                node.verts().iter().any(|&v| t.pi.color_of(v) != first)
            })
            .count();
    }
    let d = obs::snapshot().diff(&before);
    for c in [
        Counter::DivideSApplied,
        Counter::DivideIApplied,
        Counter::DivideComponents,
    ] {
        assert!(d.get(c) > 0, "no {} in the sampled shapes", c.name());
    }
    assert!(
        multi_cell_leaves > 0,
        "no leaf with a multi-cell projection in the sampled shapes"
    );
}
