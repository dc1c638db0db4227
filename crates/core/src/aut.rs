//! The automorphism group `Aut(G, π)` from an AutoTree.
//!
//! The paper (Section 5) shows the tree preserves a *generating set* of the
//! automorphism group: (a) the automorphisms inside every non-singleton
//! leaf, and (b) one isomorphism between each pair of adjacent symmetric
//! siblings. Because every automorphism of a node must permute the node's
//! children within their sibling classes (the divide rules delete only
//! cell-complete edge sets, so the component structure is
//! automorphism-invariant), the group of a node is exactly the direct
//! product over sibling classes of the wreath products
//! `Aut(child) ≀ S_k` — giving the closed-form order
//! `∏_classes |Aut(child)|^k · k!` used by [`try_group_order`].

use crate::tree::{AutoTree, NodeId, NodeKind};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{as_vertex, vertex_range, Perm, V};
use dvicl_group::{BigUint, Orbits, StabChain};

/// A generating set of `Aut(G, π)`: the automorphisms of non-singleton
/// leaves, then the swaps of adjacent symmetric siblings, node by node.
/// Each is built as a dense permutation of the full vertex set only when
/// the iterator reaches it, so taking a prefix costs O(n) per generator
/// taken; [`generator_count`] counts them all without building any.
#[expect(
    clippy::expect_used,
    reason = "a stored automorphism patched into the identity, and a sibling swap over a perfect matching, are both bijections"
)]
// dvicl-lint: allow(budget-reachability) -- unmetered: one O(n) permutation per leaf generator and sibling swap of a finished tree, built only as the caller takes it
pub fn generators(tree: &AutoTree) -> impl Iterator<Item = Perm> + '_ {
    let n = tree.pi.n();
    tree.nodes().flat_map(move |node| {
        // (a) automorphisms of non-singleton leaves, extended by identity.
        let leaf = node.leaf_generators().map(move |sparse| {
            let mut image: Vec<V> = vertex_range(n).collect();
            for &(v, w) in sparse {
                image[v as usize] = w;
            }
            Perm::from_image(image).expect("leaf generator is a bijection")
        });
        // (b) swaps of adjacent symmetric siblings.
        let swaps = node
            .sibling_classes()
            .iter()
            .flat_map(move |&(start, end)| {
                node.children()[start as usize..end as usize]
                    .windows(2)
                    .map(move |pair| {
                        let mut image: Vec<V> = vertex_range(n).collect();
                        for (va, vb) in tree.sibling_isomorphism(pair[0], pair[1]) {
                            image[va as usize] = vb;
                            image[vb as usize] = va;
                        }
                        Perm::from_image(image).expect("sibling swap is an involution")
                    })
            });
        leaf.chain(swaps)
    })
}

/// How many permutations [`generators`] yields, counted from the tree
/// without building any: every leaf generator, plus one swap fewer than
/// its size per sibling class.
pub fn generator_count(tree: &AutoTree) -> usize {
    tree.nodes()
        .map(|node| {
            let classes = node.sibling_classes().iter();
            let swaps: usize = classes
                .map(|&(start, end)| (end - start).saturating_sub(1) as usize)
                .sum();
            node.leaf_generators().len() + swaps
        })
        .sum()
}

/// The vertex orbits of `Aut(G, π)`, computed by union-find closure over
/// the tree (no dense permutations are materialized, so this scales to the
/// large-graph statistics of Table 1).
// dvicl-lint: allow(budget-reachability) -- one pass over a finished tree, linear in the nodes and generators the metered try_build_autotree produced
pub fn orbits(tree: &AutoTree) -> Orbits {
    let n = tree.pi.n();
    let mut o = Orbits::identity(n);
    for node in tree.nodes() {
        for sparse in node.leaf_generators() {
            for &(v, w) in sparse {
                o.union(v, w);
            }
        }
        for &(start, end) in node.sibling_classes() {
            for k in start as usize..(end as usize).saturating_sub(1) {
                for (va, vb) in tree.sibling_isomorphism(node.children()[k], node.children()[k + 1])
                {
                    o.union(va, vb);
                }
            }
        }
    }
    o
}

/// The exact order `|Aut(G, π)|`, computed structurally:
/// singleton leaves contribute 1; a non-singleton leaf contributes the
/// order of its IR-discovered group (via Schreier–Sims); an internal
/// node contributes `∏_classes |Aut(child)|^k · k!`. Spends one unit of
/// `budget` per node visited, per factor multiplied in (`k` child
/// orders and the `k − 1` factors of `k!` per class) and per Schreier
/// generator sifted, and aborts with
/// [`DviclError::BudgetExceeded`] or [`DviclError::Cancelled`].
pub fn try_group_order(tree: &AutoTree, budget: &Budget) -> Result<BigUint, DviclError> {
    order_of(tree, tree.root(), budget)
}

fn order_of(tree: &AutoTree, id: NodeId, budget: &Budget) -> Result<BigUint, DviclError> {
    budget.spend(1)?;
    let node = tree.node(id);
    Ok(match node.kind() {
        NodeKind::SingletonLeaf => BigUint::one(),
        NodeKind::NonSingletonLeaf => leaf_order(tree, id, budget)?,
        NodeKind::Internal => {
            let mut acc = BigUint::one();
            for &(start, end) in node.sibling_classes() {
                let k = u64::from(end - start);
                let child_order = order_of(tree, node.children()[start as usize], budget)?;
                for _ in 0..k {
                    budget.spend(1)?;
                    acc *= &child_order;
                }
                // k!, one factor per sibling, so a large class is metered too.
                for i in 2..=k {
                    budget.spend(1)?;
                    acc.mul_u64_assign(i);
                }
            }
            acc
        }
    })
}

/// Order of a non-singleton leaf's group: rebuild its generators over
/// local indices and run Schreier–Sims.
fn leaf_order(tree: &AutoTree, id: NodeId, budget: &Budget) -> Result<BigUint, DviclError> {
    let node = tree.node(id);
    let nl = node.n();
    #[expect(
        clippy::expect_used,
        reason = "leaf generators only move the leaf's own vertices"
    )]
    let local_of = |v: V| -> u32 {
        as_vertex(
            node.verts()
                .binary_search(&v)
                .expect("leaf generator stays inside the leaf"),
        )
    };
    #[expect(
        clippy::expect_used,
        reason = "relabeling a stored automorphism through the bijective local_of keeps it a bijection"
    )]
    let gens: Vec<Perm> = node
        .leaf_generators()
        .map(|sparse| {
            let mut image: Vec<V> = vertex_range(nl).collect();
            for &(v, w) in sparse {
                image[local_of(v) as usize] = local_of(w);
            }
            Perm::from_image(image).expect("local leaf generator is a bijection")
        })
        .collect();
    Ok(StabChain::try_new(nl, &gens, budget)?.order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::tree_of;
    use crate::{try_build_autotree, DviclOptions};
    use dvicl_govern::Resource;
    use dvicl_graph::{named, Coloring};
    use dvicl_group::brute;

    fn order(tree: &AutoTree) -> BigUint {
        try_group_order(tree, &Budget::unlimited()).expect("an unlimited budget never trips")
    }

    #[test]
    fn group_orders_match_brute_force() {
        for g in [
            named::fig1_example(), // 48
            named::complete(5),    // 120
            named::cycle(6),       // 12
            named::path(5),        // 2
            named::star(5),        // 120
            named::complete_bipartite(3, 3),
            named::petersen(),   // 120
            named::hypercube(3), // 48
            named::frucht(),     // 1
            named::rary_tree(2, 2),
            named::cycle(3).disjoint_union(&named::cycle(3)),
        ] {
            let pi = Coloring::unit(g.n());
            let expected = brute::automorphism_count(&g, &pi);
            let t = tree_of(&g);
            assert_eq!(
                order(&t).to_u64(),
                Some(expected),
                "order mismatch for {g:?}"
            );
        }
    }

    #[test]
    fn generators_generate_the_full_group() {
        for g in [
            named::fig1_example(),
            named::rary_tree(2, 2),
            named::star(4),
            named::hypercube(3),
        ] {
            let t = tree_of(&g);
            let gens: Vec<Perm> = generators(&t).collect();
            assert_eq!(gens.len(), generator_count(&t));
            // Every generator is a genuine automorphism...
            for gen in &gens {
                assert_eq!(g.permuted(gen), g);
            }
            // ...and they generate a group of the structural order.
            let chain = StabChain::try_new(g.n(), &gens, &Budget::unlimited()).unwrap();
            assert_eq!(chain.order(), order(&t));
        }
    }

    #[test]
    fn orbits_match_brute_force() {
        for g in [
            named::fig1_example(),
            named::rary_tree(2, 3),
            named::petersen(),
            named::frucht(),
            named::path(6),
        ] {
            let pi = Coloring::unit(g.n());
            let t = tree_of(&g);
            let mut ours = orbits(&t);
            let mut truth = Orbits::identity(g.n());
            for gamma in brute::automorphisms(&g, &pi) {
                truth.absorb(&gamma);
            }
            assert_eq!(ours.cells(), truth.cells(), "orbits differ for {g:?}");
        }
    }

    #[test]
    fn fig1_orbit_structure() {
        let g = named::fig1_example();
        let t = tree_of(&g);
        let mut o = orbits(&t);
        assert_eq!(o.cells(), vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]);
        assert_eq!(o.count(), 3);
        assert_eq!(o.count_singletons(), 1);
    }

    #[test]
    fn wreath_product_order_for_forest_of_stars() {
        // 3 disjoint copies of K_{1,2}: |Aut| = (2!)³ · 3! = 48.
        let star = named::star(2);
        let g = star.disjoint_union(&star).disjoint_union(&star);
        let t = tree_of(&g);
        assert_eq!(order(&t).to_u64(), Some(48));
    }

    #[test]
    fn work_cap_trips_inside_schreier_sims() {
        // Petersen is one non-singleton leaf with |Aut| = 120; the build
        // ran unmetered, so every unit the order spends is a Schreier
        // generator sifted.
        let t = tree_of(&named::petersen());
        let unlimited = Budget::unlimited();
        assert_eq!(try_group_order(&t, &unlimited).unwrap().to_u64(), Some(120));
        let needed = unlimited.work_spent();
        assert!(needed > 1, "Schreier-Sims sifted {needed} generators");
        assert!(matches!(
            try_group_order(&t, &Budget::with_max_work(needed - 1)),
            Err(DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            })
        ));
        assert_eq!(
            try_group_order(&t, &Budget::with_max_work(needed))
                .unwrap()
                .to_u64(),
            Some(120)
        );
    }

    #[test]
    fn colored_restriction() {
        let g = named::fig1_example();
        let pi = Coloring::from_cells(vec![vec![1, 2, 3, 4, 5, 6, 7], vec![0]]).unwrap();
        let opts = DviclOptions::default();
        let t = try_build_autotree(&g, &pi, &opts, &Budget::unlimited()).unwrap();
        assert_eq!(order(&t).to_u64(), Some(brute::automorphism_count(&g, &pi)));
    }
}

/// An explicit automorphism `γ ∈ Aut(G, π)` with `u^γ = v`, or `None` if
/// `u` and `v` are not automorphic.
///
/// The witness is composed structurally, the way Section 5 describes
/// symmetry detection on the AutoTree: walk up from the two leaves to the
/// lowest common ancestor; there the carriers are symmetric siblings, so
/// the label-matching sibling swap maps `u` into `v`'s subtree; recurse
/// until both sides meet inside one leaf, where a BFS over the leaf's
/// generators (tracking group elements) finishes the job.
// dvicl-lint: allow(budget-reachability) -- unmetered: one O(n) sibling swap per level of a finished tree, recursing at most its depth, then leaf_witness
pub fn automorphism_witness(tree: &AutoTree, u: V, v: V) -> Option<Perm> {
    let n = tree.pi.n();
    if u == v {
        return Some(Perm::identity(n));
    }
    // Leaf path of a vertex, root-first.
    let path_of = |x: V| -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = tree.root();
        path.push(cur);
        'descend: loop {
            for &c in tree.node(cur).children() {
                if tree.node(c).contains(x) {
                    cur = c;
                    path.push(cur);
                    continue 'descend;
                }
            }
            return path;
        }
    };
    let (pu, pv) = (path_of(u), path_of(v));
    // Lowest common ancestor depth.
    let mut d = 0;
    while d + 1 < pu.len() && d + 1 < pv.len() && pu[d + 1] == pv[d + 1] {
        d += 1;
    }
    if pu[d] != pv[d] {
        return None;
    }
    let lca = pu[d];
    if pu.len() == d + 1 || pv.len() == d + 1 {
        // One vertex's leaf IS the lca: both must be in that leaf.
        debug_assert_eq!(pu.last(), pv.last());
        #[expect(
            clippy::expect_used,
            reason = "pu has at least d + 1 elements (indexed as pu[d] above), so last() is Some"
        )]
        return leaf_witness(tree, *pu.last().expect("non-empty path"), u, v);
    }
    let (a, b) = (pu[d + 1], pv[d + 1]);
    // The carriers must be symmetric siblings of one class.
    let (_, start, end) = tree.class_of(a)?;
    let parent = tree.node(lca);
    let pos_b = parent.children().iter().position(|&c| c == b)?;
    if !(start <= pos_b && pos_b < end) || tree.node(a).form() != tree.node(b).form() {
        return None;
    }
    // Swap a↔b by label matching, identity elsewhere.
    let mut image: Vec<V> = vertex_range(n).collect();
    for (x, y) in tree.sibling_isomorphism(a, b) {
        image[x as usize] = y;
        image[y as usize] = x;
    }
    #[expect(
        clippy::expect_used,
        reason = "sibling_isomorphism returns a perfect matching, so the pairwise swap is a bijection"
    )]
    let swap = Perm::from_image(image).expect("sibling swap is a bijection");
    let u_in_b = swap.apply(u);
    // Continue inside b.
    let rest = automorphism_witness(tree, u_in_b, v)?;
    Some(swap.then(&rest))
}

/// Witness inside a single leaf: BFS over the leaf's generator group,
/// tracking the composed element.
// dvicl-lint: allow(budget-reachability) -- unmetered: BFS over the orbit of u under one finished leaf's generators, O(n) per orbit element and generator
fn leaf_witness(tree: &AutoTree, leaf: NodeId, u: V, v: V) -> Option<Perm> {
    let n = tree.pi.n();
    let node = tree.node(leaf);
    #[expect(
        clippy::expect_used,
        reason = "sparse entries come from a stored automorphism, so the patched identity stays a bijection"
    )]
    let gens: Vec<Perm> = node
        .leaf_generators()
        .map(|sparse| {
            let mut image: Vec<V> = vertex_range(n).collect();
            for &(a, b) in sparse {
                image[a as usize] = b;
            }
            Perm::from_image(image).expect("leaf generator is a bijection")
        })
        .collect();
    let mut frontier = vec![(u, Perm::identity(n))];
    let mut seen = rustc_hash::FxHashSet::default();
    seen.insert(u);
    let mut head = 0;
    while head < frontier.len() {
        let (x, elem) = frontier[head].clone();
        head += 1;
        if x == v {
            return Some(elem);
        }
        for g in &gens {
            let y = g.apply(x);
            if seen.insert(y) {
                frontier.push((y, elem.then(g)));
            }
        }
    }
    None
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::build::tree_of;
    use dvicl_graph::{named, Coloring};
    use dvicl_group::brute;

    #[test]
    fn witnesses_for_all_orbit_pairs() {
        for g in [
            named::fig1_example(),
            named::fig3_example(),
            named::rary_tree(2, 3),
            named::petersen(),
            named::star(5),
            named::frucht(),
        ] {
            let tree = tree_of(&g);
            let pi = Coloring::unit(g.n());
            let autos = brute::automorphisms(&g, &pi);
            for u in g.vertices() {
                for v in g.vertices() {
                    let truly = autos.iter().any(|a| a.apply(u) == v);
                    match automorphism_witness(&tree, u, v) {
                        Some(w) => {
                            assert!(truly, "spurious witness {u}→{v} in {g:?}");
                            assert_eq!(w.apply(u), v, "witness maps wrong");
                            assert_eq!(g.permuted(&w), g, "witness not an automorphism");
                        }
                        None => assert!(!truly, "missing witness {u}→{v} in {g:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn identity_witness() {
        let g = named::petersen();
        let tree = tree_of(&g);
        assert!(automorphism_witness(&tree, 3, 3).unwrap().is_identity());
    }
}
