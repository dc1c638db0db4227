//! k-symmetry anonymization via the AutoTree (the application sketched in
//! Section 1 after \[34\]): duplicate subtrees of the root until every
//! sibling class has at least `k` members, so that *every vertex* of the
//! resulting graph has at least `k-1` automorphic counterparts and is
//! protected against structural re-identification.
//!
//! Cross-child edges in an AutoTree node are always *cell-complete* (that
//! is what the divide rules remove), so the extension reconstructs them
//! from the cell-pair "joined" relation: a cloned vertex attaches to every
//! vertex — original or clone — of a joined cell in another child. This is
//! what keeps the clones genuinely symmetric to their templates.

use crate::tree::AutoTree;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{as_vertex, Graph, GraphBuilder, V};
use rustc_hash::{FxHashMap, FxHashSet};

/// Statistics of a k-symmetry extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KSymStats {
    /// Vertices added to the original graph.
    pub added_vertices: usize,
    /// Edges added to the original graph.
    pub added_edges: usize,
    /// Root sibling classes that needed duplication.
    pub duplicated_classes: usize,
}

/// Builds the k-symmetric extension of `g`. Rejects `k == 0` as
/// [`DviclError::InvalidInput`] and spends one work unit per cloned vertex
/// (clone volume is the quantity that blows up when a class of size 1
/// must reach a large `k`).
pub fn try_k_symmetric_extension(
    g: &Graph,
    tree: &AutoTree,
    k: usize,
    budget: &Budget,
) -> Result<(Graph, KSymStats), DviclError> {
    if k == 0 {
        return Err(DviclError::invalid(
            "k-symmetry requires k >= 1 (every vertex needs k-1 counterparts)",
        ));
    }
    budget.check()?;
    let root = tree.node(tree.root());
    let n0 = g.n();

    // Special case: the root is itself a leaf (e.g. a rigid regular
    // graph). The only duplicable unit is the whole graph; clones are
    // disjoint copies.
    if root.children().is_empty() {
        if k == 1 || n0 == 0 {
            return Ok((
                g.clone(),
                KSymStats {
                    added_vertices: 0,
                    added_edges: 0,
                    duplicated_classes: 0,
                },
            ));
        }
        let mut out = g.clone();
        for _ in 1..k {
            budget.spend(n0 as u64)?;
            out = out.disjoint_union(g);
        }
        return Ok((
            out,
            KSymStats {
                added_vertices: (k - 1) * n0,
                added_edges: (k - 1) * g.m(),
                duplicated_classes: 1,
            },
        ));
    }

    // Which root child each original vertex belongs to.
    let mut child_of = vec![u32::MAX; n0];
    for (idx, &c) in (0..).zip(root.children()) {
        for &v in tree.node(c).verts() {
            child_of[v as usize] = idx;
        }
    }
    // The joined relation over cell colors: a cross-child edge certifies
    // its cell pair is completely joined (divide-rule invariant).
    let mut joined: FxHashSet<(V, V)> = FxHashSet::default();
    for (u, v) in g.edges() {
        if child_of[u as usize] != child_of[v as usize] {
            let (a, b) = (tree.pi.color_of(u), tree.pi.color_of(v));
            joined.insert((a.min(b), a.max(b)));
        }
    }

    // Clone jobs: (template child node, fresh child index).
    let mut jobs: Vec<crate::tree::NodeId> = Vec::new();
    let mut duplicated_classes = 0;
    for &(start, end) in root.sibling_classes() {
        let c = (end - start) as usize;
        if c < k {
            duplicated_classes += 1;
            for _ in 0..(k - c) {
                jobs.push(root.children()[start as usize]);
            }
        }
    }
    if jobs.is_empty() {
        return Ok((
            g.clone(),
            KSymStats {
                added_vertices: 0,
                added_edges: 0,
                duplicated_classes,
            },
        ));
    }

    // Allocate clone vertex ids and record every vertex's (cell, child).
    let mut clone_ids: Vec<Vec<V>> = Vec::new(); // per job, parallel to template verts
    let mut next = g.vertices().end;
    let mut cell_members: FxHashMap<V, Vec<(V, u32)>> = FxHashMap::default();
    for v in g.vertices() {
        cell_members
            .entry(tree.pi.color_of(v))
            .or_default()
            .push((v, child_of[v as usize]));
    }
    // Clone `j` becomes root child `num_children + j`.
    let num_children = as_vertex(root.children().len());
    for (child_idx, &template) in (num_children..).zip(&jobs) {
        let t = tree.node(template);
        budget.spend(t.n() as u64)?;
        let end = as_vertex(next as usize + t.n());
        let ids: Vec<V> = (next..end).collect();
        next = end;
        for (i, &orig) in t.verts().iter().enumerate() {
            cell_members
                .entry(tree.pi.color_of(orig))
                .or_default()
                .push((ids[i], child_idx));
        }
        clone_ids.push(ids);
    }
    let total = next as usize;
    // Cell color of every vertex (originals + clones).
    let mut color_of = vec![0 as V; total];
    for v in g.vertices() {
        color_of[v as usize] = tree.pi.color_of(v);
    }
    let mut child_of_all = vec![u32::MAX; total];
    child_of_all[..n0].copy_from_slice(&child_of[..n0]);
    for ((child_idx, &template), ids) in (num_children..).zip(&jobs).zip(&clone_ids) {
        let t = tree.node(template);
        for (&orig, &cv) in t.verts().iter().zip(ids) {
            color_of[cv as usize] = tree.pi.color_of(orig);
            child_of_all[cv as usize] = child_idx;
        }
    }

    let mut b = GraphBuilder::with_capacity(total, g.m() * (1 + jobs.len()));
    // Original edges.
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    // Internal clone edges: mirror the template's internal edges.
    for (j, &template) in jobs.iter().enumerate() {
        let t = tree.node(template);
        let local: FxHashMap<V, usize> =
            t.verts().iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (i, &orig) in t.verts().iter().enumerate() {
            for &w in g.neighbors(orig) {
                if let Some(&lw) = local.get(&w) {
                    if lw > i {
                        b.add_edge(clone_ids[j][i], clone_ids[j][lw]);
                    }
                }
            }
        }
    }
    // Cross-child edges involving clones: cell-complete per the joined
    // relation.
    for (j, _) in jobs.iter().enumerate() {
        for &cv in &clone_ids[j] {
            let cx = color_of[cv as usize];
            let my_child = child_of_all[cv as usize];
            for &(ca, cb) in joined.iter() {
                let other = if ca == cx {
                    cb
                } else if cb == cx {
                    ca
                } else {
                    continue;
                };
                if let Some(members) = cell_members.get(&other) {
                    for &(y, ychild) in members {
                        if ychild != my_child {
                            b.add_edge(cv, y);
                        }
                    }
                }
                // Same-cell joins (clique cells spanning children).
                if ca == cb && ca == cx {
                    if let Some(members) = cell_members.get(&cx) {
                        for &(y, ychild) in members {
                            if ychild != my_child {
                                b.add_edge(cv, y);
                            }
                        }
                    }
                }
            }
        }
    }
    let out = b.build();
    let added_edges = out.m() - g.m();
    Ok((
        out,
        KSymStats {
            added_vertices: total - n0,
            added_edges,
            duplicated_classes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aut;
    use crate::build::tree_of;
    use dvicl_graph::named;

    fn k_symmetric_extension(g: &Graph, t: &AutoTree, k: usize) -> (Graph, KSymStats) {
        try_k_symmetric_extension(g, t, k, &Budget::unlimited()).expect("k >= 1")
    }

    /// Every vertex of `g` must have at least `k-1` automorphic
    /// counterparts: no orbit of size < k.
    fn assert_k_symmetric(g: &Graph, k: usize) {
        let t = tree_of(g);
        let mut orbits = aut::orbits(&t);
        for cell in orbits.cells() {
            assert!(
                cell.len() >= k,
                "orbit {cell:?} smaller than k={k} in extension"
            );
        }
    }

    #[test]
    fn fig1_becomes_2_symmetric() {
        let g = named::fig1_example();
        let t = tree_of(&g);
        let (g2, stats) = k_symmetric_extension(&g, &t, 2);
        assert!(stats.added_vertices > 0);
        assert!(stats.duplicated_classes >= 1);
        assert_k_symmetric(&g2, 2);
    }

    #[test]
    fn fig1_becomes_3_symmetric() {
        let g = named::fig1_example();
        let t = tree_of(&g);
        let (g2, _) = k_symmetric_extension(&g, &t, 3);
        assert_k_symmetric(&g2, 3);
    }

    #[test]
    fn path_becomes_3_symmetric() {
        let g = named::path(5);
        let t = tree_of(&g);
        let (g2, _) = k_symmetric_extension(&g, &t, 3);
        assert_k_symmetric(&g2, 3);
    }

    #[test]
    fn already_symmetric_classes_untouched() {
        let tri = named::cycle(3);
        let g = tri.disjoint_union(&tri).disjoint_union(&tri);
        let t = tree_of(&g);
        let (g2, stats) = k_symmetric_extension(&g, &t, 3);
        assert_eq!(stats.added_vertices, 0);
        assert_eq!(g2.n(), g.n());
        assert_k_symmetric(&g2, 3);
    }

    #[test]
    fn k1_is_identity() {
        let g = named::frucht();
        let t = tree_of(&g);
        let (g2, stats) = k_symmetric_extension(&g, &t, 1);
        assert_eq!(g2, g);
        assert_eq!(stats.added_vertices, 0);
    }

    #[test]
    fn rigid_regular_graph_gets_disjoint_copies() {
        let g = named::frucht(); // root is a single leaf
        let t = tree_of(&g);
        let (g2, stats) = k_symmetric_extension(&g, &t, 2);
        assert_eq!(stats.added_vertices, 12);
        assert_eq!(g2.n(), 24);
        assert_k_symmetric(&g2, 2);
    }

    #[test]
    fn k0_is_a_typed_error() {
        let g = named::path(3);
        let t = tree_of(&g);
        assert!(matches!(
            try_k_symmetric_extension(&g, &t, 0, &Budget::unlimited()),
            Err(DviclError::InvalidInput(_))
        ));
    }

    #[test]
    fn clone_volume_is_budgeted() {
        use dvicl_govern::Resource;
        let g = named::path(5);
        let t = tree_of(&g);
        let err = try_k_symmetric_extension(&g, &t, 50, &Budget::with_max_work(3)).unwrap_err();
        assert!(matches!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            }
        ));
    }

    #[test]
    fn star_becomes_heavily_symmetric() {
        let g = named::star(4);
        let t = tree_of(&g);
        let (g2, _) = k_symmetric_extension(&g, &t, 4);
        assert_k_symmetric(&g2, 4);
    }
}
