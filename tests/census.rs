//! Exhaustive census of small graphs: every labeled graph on `n`
//! vertices is labeled by each IR configuration and by the DviCL build,
//! and the resulting isomorphism classes are checked against three
//! oracles that share no code with the labelers:
//!
//! * the number of classes is the number of unlabeled graphs (OEIS
//!   A000088: 1, 2, 4, 11, 34, 156, 1044 for n = 1..7);
//! * orbit–stabilizer: summed over classes, `n!/|Aut|` counts every
//!   labeled graph exactly once, so the sum is `2^C(n,2)`; `|Aut|` comes
//!   from a Schreier–Sims chain over the generators each labeler returns;
//! * every labeler induces the same partition of the labeled graphs into
//!   classes. Certificates differ between configurations, so the
//!   partitions are compared as first-occurrence class ids.
//!
//! The same holds for vertex-2-colored graphs `(G, [S | V∖S])` over every
//! nonempty proper `S`: A000666(n) − 2·A000088(n) classes (2, 12, 68,
//! 476 for n = 2..5) and `2^C(n,2)·(2^n − 2)` labeled pairs.
//!
//! The default tests run n ≤ 5 (2-colored: n ≤ 4) under all nine
//! labelers. The ignored test runs n = 6, n = 7 and 2-colored n = 5; run
//! it in release (`cargo test --release --test census -- --ignored`).

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl::canon::{try_canonical_form, Budget, Config, TargetCell};
use dvicl::core::{aut, DviclOptions, Session};
use dvicl::graph::{CanonForm, Coloring, Graph, Perm, V};
use dvicl::group::StabChain;
use std::collections::HashMap;

/// A canonical labeler under test.
enum Labeler {
    /// The IR search alone.
    Ir(Config),
    /// The DviCL build (bliss-like leaves).
    Dvicl(Box<Session>),
}

impl Labeler {
    /// Certificate and automorphism generators of `(g, pi)`.
    #[expect(
        clippy::expect_used,
        reason = "test helper: a panic here fails the calling test, which is the intent"
    )]
    fn label(&mut self, g: &Graph, pi: &Coloring) -> (CanonForm, Vec<Perm>) {
        match self {
            Labeler::Ir(config) => {
                let r = try_canonical_form(g, pi, config, &Budget::unlimited())
                    .expect("unlimited search cannot fail");
                (r.form, r.generators)
            }
            Labeler::Dvicl(session) => {
                let tree = session.build(g, pi);
                (tree.canonical_form().to_form(), aut::generators(&tree))
            }
        }
    }
}

/// The eight IR configurations: every target-cell selector with the node
/// invariant on and off.
fn ir_configs() -> Vec<Config> {
    let mut out = Vec::new();
    for target_cell in [
        TargetCell::FirstNonSingleton,
        TargetCell::SmallestFirst,
        TargetCell::LargestFirst,
        TargetCell::MostConstrained,
    ] {
        for use_invariant in [true, false] {
            out.push(Config {
                target_cell,
                use_invariant,
                record_tree: false,
            });
        }
    }
    out
}

fn dvicl() -> Labeler {
    Labeler::Dvicl(Box::new(Session::new(DviclOptions::default())))
}

/// All nine labelers: the eight IR configurations and DviCL.
fn all_labelers() -> Vec<Labeler> {
    let mut out: Vec<Labeler> = ir_configs().into_iter().map(Labeler::Ir).collect();
    out.push(dvicl());
    out
}

/// The labeled graph on `n` vertices whose edge set is the bitmask
/// `mask` over the pairs `(u, v)`, `u < v`, in lexicographic order.
fn graph_of(n: usize, mask: u64) -> Graph {
    let mut edges: Vec<(V, V)> = Vec::new();
    let mut bit = 0;
    for u in 0..n as V {
        for v in u + 1..n as V {
            if mask >> bit & 1 == 1 {
                edges.push((u, v));
            }
            bit += 1;
        }
    }
    Graph::from_edges(n, &edges)
}

/// The coloring `[S | V∖S]` of the vertex subset `S` given as a bitmask.
#[expect(
    clippy::expect_used,
    reason = "test helper: S and its complement partition 0..n whenever S is nonempty and proper"
)]
fn two_coloring(n: usize, s: u64) -> Coloring {
    let (inside, outside): (Vec<V>, Vec<V>) = (0..n as V).partition(|&v| s >> v & 1 == 1);
    Coloring::from_cells(vec![inside, outside]).expect("S is nonempty and proper")
}

/// The classes one labeler found over an input sequence.
struct Census {
    /// First-occurrence class id of every input, in input order.
    ids: Vec<u32>,
    /// Number of classes.
    classes: usize,
    /// Σ over classes of `n!/|Aut|`.
    labeled: u64,
}

#[expect(
    clippy::expect_used,
    reason = "test helper: an |Aut| beyond u64 or not dividing n! fails the calling test"
)]
fn census(labeler: &mut Labeler, n: usize, inputs: &[(u64, Option<u64>)]) -> Census {
    let n_fact: u64 = (1..=n as u64).product();
    // A class key pairs the certificate with the input's cell sizes: an
    // AutoTree certificate describes the refined coloring, which can be
    // the same for colorings of different cell sizes (`AutoTree::
    // canonical_form`). IR certificates carry the sizes already.
    let mut classes: HashMap<(Vec<usize>, CanonForm), u32> = HashMap::new();
    let mut ids = Vec::with_capacity(inputs.len());
    let mut labeled = 0u64;
    for &(mask, s) in inputs {
        let g = graph_of(n, mask);
        let pi = match s {
            Some(s) => two_coloring(n, s),
            None => Coloring::unit(n),
        };
        let (form, gens) = labeler.label(&g, &pi);
        let next = classes.len() as u32;
        let sizes = pi.cells().map(<[V]>::len).collect();
        let id = *classes.entry((sizes, form)).or_insert(next);
        if id == next {
            let order = StabChain::try_new(n, &gens, &Budget::unlimited())
                .expect("an unlimited budget never trips")
                .order()
                .to_u64()
                .expect("|Aut| of a graph on at most 7 vertices fits in u64");
            assert_eq!(n_fact % order, 0, "|Aut| = {order} does not divide {n}!");
            labeled += n_fact / order;
        }
        ids.push(id);
    }
    Census {
        ids,
        classes: classes.len(),
        labeled,
    }
}

/// Every labeled graph on `n` vertices, uncolored.
fn plain_inputs(n: usize) -> Vec<(u64, Option<u64>)> {
    let pairs = n * n.saturating_sub(1) / 2;
    (0..1u64 << pairs).map(|mask| (mask, None)).collect()
}

/// Every labeled graph on `n` vertices under every coloring `[S | V∖S]`.
fn two_colored_inputs(n: usize) -> Vec<(u64, Option<u64>)> {
    let pairs = n * (n - 1) / 2;
    let mut out = Vec::new();
    for mask in 0..1u64 << pairs {
        for s in 1..(1u64 << n) - 1 {
            out.push((mask, Some(s)));
        }
    }
    out
}

/// Runs every labeler over `inputs` and checks the class count, the
/// orbit–stabilizer sum and that all labelers agree on the classes.
fn check(labelers: &mut [Labeler], n: usize, inputs: &[(u64, Option<u64>)], classes: usize) {
    let mut reference: Option<Vec<u32>> = None;
    for (i, labeler) in labelers.iter_mut().enumerate() {
        let c = census(labeler, n, inputs);
        assert_eq!(c.classes, classes, "n = {n}, labeler {i}: class count");
        assert_eq!(
            c.labeled,
            inputs.len() as u64,
            "n = {n}, labeler {i}: Σ n!/|Aut| is not the number of labeled inputs"
        );
        match &reference {
            None => reference = Some(c.ids),
            Some(ids) => assert!(
                *ids == c.ids,
                "n = {n}, labeler {i}: partition differs from labeler 0"
            ),
        }
    }
}

#[test]
fn uncolored_graphs_up_to_five_vertices() {
    let mut labelers = all_labelers();
    for (n, classes) in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)] {
        check(&mut labelers, n, &plain_inputs(n), classes);
    }
}

#[test]
fn two_colored_graphs_up_to_four_vertices() {
    let mut labelers = all_labelers();
    for (n, classes) in [(2, 2), (3, 12), (4, 68)] {
        let inputs = two_colored_inputs(n);
        assert_eq!(
            inputs.len() as u64,
            (1u64 << (n * (n - 1) / 2)) * ((1 << n) - 2)
        );
        check(&mut labelers, n, &inputs, classes);
    }
}

#[test]
#[ignore = "about a minute in release; run with --release -- --ignored"]
fn larger_census_in_release() {
    check(&mut all_labelers(), 6, &plain_inputs(6), 156);
    check(&mut all_labelers(), 5, &two_colored_inputs(5), 476);
    let mut three = vec![
        Labeler::Ir(Config::bliss_like()),
        Labeler::Ir(Config::traces_like()),
        dvicl(),
    ];
    check(&mut three, 7, &plain_inputs(7), 1044);
}
