//! AutoTree navigation API: sibling classes, sibling isomorphisms,
//! rendering and the storage order of nodes.

use dvicl_core::{try_build_autotree, AutoTree, Budget, DviclOptions};
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
fn class_of_and_sibling_isomorphism() {
    let g = named::fig1_example();
    let t = tree_of(&g);
    let leaf = t.nodes().find(|n| n.verts() == [4]).expect("4 is a leaf");
    let (parent, start, end) = t.class_of(leaf.id()).expect("not the root");
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
