//! AutoTree navigation API: leaf lookup, deepest containing node, sibling
//! classes and sibling isomorphisms.

use dvicl_core::{try_build_autotree, AutoTree, Budget, DviclOptions, NodeKind};
use dvicl_graph::{named, Coloring, Graph};

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn tree_of(g: &Graph) -> AutoTree {
    let opts = DviclOptions::default();
    try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
        .expect("unlimited build cannot fail")
}

#[test]
fn leaf_of_every_vertex() {
    let g = named::fig1_example();
    let t = tree_of(&g);
    for v in 0..8 {
        let leaf = t.leaf_of(v);
        assert!(t.node(leaf).contains(v));
        assert!(t.node(leaf).children().is_empty());
    }
    // 4, 5, 6 are in distinct singleton leaves; 0..3 share the cycle leaf.
    assert_ne!(t.leaf_of(4), t.leaf_of(5));
    assert_eq!(t.leaf_of(0), t.leaf_of(2));
    assert_eq!(t.node(t.leaf_of(0)).kind(), NodeKind::NonSingletonLeaf);
}

#[test]
fn deepest_containing_grows_with_spread() {
    let g = named::fig1_example();
    let t = tree_of(&g);
    // {4,5} lives in the triangle's internal node, {4,0} only at the root.
    let tri = t.deepest_containing(&[4, 5]);
    assert_eq!(t.node(tri).verts(), vec![4, 5, 6]);
    assert_eq!(t.deepest_containing(&[4, 0]), t.root());
    // A single vertex descends to its leaf.
    assert_eq!(t.deepest_containing(&[5]), t.leaf_of(5));
}

#[test]
fn class_of_and_sibling_isomorphism() {
    let g = named::fig1_example();
    let t = tree_of(&g);
    let (parent, start, end) = t.class_of(t.leaf_of(4)).expect("not the root");
    assert_eq!(end - start, 3); // the three triangle singletons
    let kids = &t.node(parent).children()[start..end];
    let iso = t.sibling_isomorphism(kids[0], kids[1]);
    assert_eq!(iso.len(), 1);
    // The mapped pair must both be triangle vertices.
    let (a, b) = iso[0];
    assert!((4..=6).contains(&a) && (4..=6).contains(&b) && a != b);
    // The root has no class.
    assert!(t.class_of(t.root()).is_none());
}

#[test]
fn label_of_membership() {
    let g = named::fig3_example();
    let t = tree_of(&g);
    let root = t.node(t.root());
    for v in 0..g.n() as u32 {
        assert!(root.label_of(v).is_some());
    }
    let leaf = t.leaf_of(0);
    assert!(t.node(leaf).label_of(1).is_none() || t.node(leaf).contains(1));
}

#[test]
fn render_mentions_every_vertex_set() {
    let g = named::fig1_example();
    let t = tree_of(&g);
    let r = t.render();
    assert!(r.contains("[4, 5, 6]"));
    assert!(r.contains("[0, 1, 2, 3]"));
    assert!(r.lines().count() == t.len());
}

#[test]
fn parents_precede_children_in_storage() {
    let g = named::rary_tree(3, 2);
    let t = tree_of(&g);
    for node in t.nodes() {
        let id = node.id();
        if let Some(p) = node.parent() {
            assert!(p < id, "parent stored after child");
            assert!(t.node(p).children().contains(&id));
            assert_eq!(t.node(p).depth() + 1, node.depth());
        }
    }
}

#[test]
fn sibling_classes_partition_children() {
    let g = named::rary_tree(2, 3);
    let t = tree_of(&g);
    for node in t.nodes() {
        let covered: usize = node
            .sibling_classes()
            .iter()
            .map(|&(s, e)| (e - s) as usize)
            .sum();
        assert_eq!(covered, node.children().len());
        for w in node.sibling_classes().windows(2) {
            assert_eq!(w[0].1, w[1].0, "classes must be contiguous");
        }
    }
}
