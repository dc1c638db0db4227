//! The AutoTree `𝒜𝒯(G, π)`: the paper's tree index over a colored graph.
//!
//! Every node represents an induced colored subgraph `(g, π_g)` of `G` and
//! carries its canonical labeling `γ_g` (as per-vertex labels) and its
//! certificate `C(g, π_g)`. Children of an internal node are sorted by
//! certificate, and runs of equal certificates form *sibling classes*:
//! subgraphs that are symmetric in `G` (Lemmas 6.7/6.8).
//!
//! # Storage (DESIGN.md §10)
//!
//! The tree is column-oriented: a [`Node`] is a fixed-size record of
//! `(start, len)` ranges into pools owned by the [`AutoTree`] — vertex
//! ids, canonical labels, certificate color runs and edges, child ids,
//! sibling-class runs, and leaf generators all live in eight shared
//! flat arrays. A tree over a social-scale graph has tens of thousands
//! of nodes, most of them singleton leaves; per-node `Vec`s spent more
//! bytes on headers and allocator churn than on payload. Access goes
//! through [`NodeRef`], a copyable `(tree, id)` handle.

use dvicl_graph::{Coloring, FormRef, Perm, V};
use std::fmt;

/// Index of a node in an [`AutoTree`].
pub type NodeId = usize;

/// A `(start, len)` range into one of the tree's pools.
pub(crate) type PoolRange = (u32, u32);

/// Sentinel for "no parent" (the root).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The empty pool range.
pub(crate) const EMPTY: PoolRange = (0, 0);

fn slice<T>(pool: &[T], r: PoolRange) -> &[T] {
    &pool[r.0 as usize..(r.0 + r.1) as usize]
}

/// What kind of node: the paper's three cases of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A one-vertex subgraph (`g = {v}`).
    SingletonLeaf,
    /// A subgraph neither `DivideI` nor `DivideS` could disconnect; its
    /// labeling came from the IR engine via `CombineCL`.
    NonSingletonLeaf,
    /// A divided node; its labeling came from `CombineST`.
    Internal,
}

/// One node of the AutoTree: a compact record of ranges into the tree's
/// pools (see the module docs). Read it through [`NodeRef`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// `V(g)` and `γ_g`, as one shared range into the parallel
    /// `verts`/`labels` pools.
    pub(crate) verts: PoolRange,
    /// Certificate color runs, into `form_colors`.
    pub(crate) fcolors: PoolRange,
    /// Certificate edges, into `form_edges`.
    pub(crate) fedges: PoolRange,
    /// Children (certificate-sorted), into `children`.
    pub(crate) children: PoolRange,
    /// Sibling-class runs, into `classes`.
    pub(crate) classes: PoolRange,
    /// Leaf generators, into `gen_ranges` (which points into `gen_pairs`).
    pub(crate) gens: PoolRange,
    /// Node kind.
    pub(crate) kind: NodeKind,
    /// Depth (root = 0).
    pub(crate) depth: u32,
    /// Parent id, or [`NO_PARENT`] for the root.
    pub(crate) parent: u32,
}

/// Structural statistics of an AutoTree — the rows of Tables 3 and 4.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TreeStats {
    /// Total tree nodes `|V(𝒜𝒯)|`.
    pub total_nodes: usize,
    /// Singleton leaf count.
    pub singleton_leaves: usize,
    /// Non-singleton leaf count.
    pub non_singleton_leaves: usize,
    /// Average vertex count of non-singleton leaves (0 when none).
    pub avg_non_singleton_size: f64,
    /// Largest non-singleton leaf.
    pub max_non_singleton_size: usize,
    /// Tree depth (root-only tree has depth 0).
    pub depth: u32,
}

/// The AutoTree `𝒜𝒯(G, π)` produced by `DviCL`.
pub struct AutoTree {
    /// The equitable root coloring `π` (after the refinement in
    /// Algorithm 1 line 1), over global vertices.
    pub pi: Coloring,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Global vertex ids of every node, ascending within each node.
    pub(crate) verts: Vec<V>,
    /// Canonical labels, parallel to `verts`.
    pub(crate) labels: Vec<V>,
    /// Certificate color runs of every node.
    pub(crate) form_colors: Vec<(V, V)>,
    /// Certificate edges of every node.
    pub(crate) form_edges: Vec<(V, V)>,
    /// Child ids of every internal node, certificate-sorted.
    pub(crate) children: Vec<NodeId>,
    /// Sibling-class `[start, end)` runs into each node's child range.
    pub(crate) classes: Vec<(u32, u32)>,
    /// Per-generator ranges into `gen_pairs`.
    pub(crate) gen_ranges: Vec<PoolRange>,
    /// Sparse `(v, v^γ)` mappings of the non-singleton leaf generators.
    pub(crate) gen_pairs: Vec<(V, V)>,
}

/// A borrowed node: `Copy`, so it can be held across further tree reads.
/// All accessors return data with the *tree's* lifetime, not the
/// handle's.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    tree: &'a AutoTree,
    id: NodeId,
}

impl<'a> NodeRef<'a> {
    fn rec(self) -> &'a Node {
        &self.tree.nodes[self.id]
    }

    /// This node's id.
    pub fn id(self) -> NodeId {
        self.id
    }

    /// Global vertex ids of `V(g)`, ascending.
    pub fn verts(self) -> &'a [V] {
        slice(&self.tree.verts, self.rec().verts)
    }

    /// Canonical labels `γ_g(v)`, parallel to [`NodeRef::verts`].
    pub fn labels(self) -> &'a [V] {
        slice(&self.tree.labels, self.rec().verts)
    }

    /// The certificate `C(g, π_g) = (g, π_g)^{γ_g}`.
    pub fn form(self) -> FormRef<'a> {
        let n = self.rec();
        FormRef {
            colors: slice(&self.tree.form_colors, n.fcolors),
            edges: slice(&self.tree.form_edges, n.fedges),
        }
    }

    /// Children, sorted by certificate (empty for leaves).
    pub fn children(self) -> &'a [NodeId] {
        slice(&self.tree.children, self.rec().children)
    }

    /// Runs of equal-certificate children, as `[start, end)` ranges into
    /// [`NodeRef::children`]: each run is one class of mutually symmetric
    /// siblings.
    pub fn sibling_classes(self) -> &'a [(u32, u32)] {
        slice(&self.tree.classes, self.rec().classes)
    }

    /// For non-singleton leaves: automorphism generators of the leaf's
    /// colored subgraph, as sparse global `(v, v^γ)` mappings.
    pub fn leaf_generators(self) -> impl ExactSizeIterator<Item = &'a [(V, V)]> {
        let tree = self.tree;
        slice(&tree.gen_ranges, self.rec().gens)
            .iter()
            .map(move |&r| slice(&tree.gen_pairs, r))
    }

    /// Node kind.
    pub fn kind(self) -> NodeKind {
        self.rec().kind
    }

    /// Depth (root = 0).
    pub fn depth(self) -> u32 {
        self.rec().depth
    }

    /// Parent (`None` for the root).
    pub fn parent(self) -> Option<NodeId> {
        let p = self.rec().parent;
        (p != NO_PARENT).then_some(p as usize)
    }

    /// True iff `v ∈ V(g)`.
    pub fn contains(self, v: V) -> bool {
        self.verts().binary_search(&v).is_ok()
    }

    /// Number of vertices.
    pub fn n(self) -> usize {
        self.rec().verts.1 as usize
    }
}

impl AutoTree {
    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        debug_assert!(id < self.nodes.len());
        NodeRef { tree: self, id }
    }

    /// All nodes (tree order is construction order: parents precede their
    /// children).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeRef<'_>> {
        (0..self.nodes.len()).map(move |id| NodeRef { tree: self, id })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tree is empty (zero-vertex graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The certificate of the whole graph: `C(G, π)` at the root, where
    /// `π` is the refined input coloring. Refinement can map colorings
    /// with different cell sizes onto one refined coloring, so colored
    /// inputs are isomorphic iff these certificates are equal and the
    /// input colorings' cell sizes agree
    /// ([`crate::iso::try_find_isomorphism_colored`]).
    pub fn canonical_form(&self) -> FormRef<'_> {
        self.node(self.root).form()
    }

    /// The canonical labeling of the whole graph as a permutation
    /// (vertex → canonical position).
    #[expect(
        clippy::expect_used,
        reason = "CombineST assigns the root a bijective labeling by construction"
    )]
    // dvicl-lint: allow(budget-reachability) -- O(n) readout of the root labels the metered try_build_autotree produced
    pub fn canonical_labeling(&self) -> Perm {
        let node = self.node(self.root);
        let mut image = vec![0 as V; node.n()];
        for (i, &v) in node.verts().iter().enumerate() {
            image[v as usize] = node.labels()[i];
        }
        Perm::from_image(image).expect("root labels form a permutation")
    }

    /// Structural statistics (Tables 3/4).
    // dvicl-lint: allow(budget-reachability) -- unmetered: one pass over the nodes of a finished tree
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats {
            total_nodes: self.nodes.len(),
            ..TreeStats::default()
        };
        let mut ns_size_sum = 0usize;
        for node in &self.nodes {
            s.depth = s.depth.max(node.depth);
            let n = node.verts.1 as usize;
            match node.kind {
                NodeKind::SingletonLeaf => s.singleton_leaves += 1,
                NodeKind::NonSingletonLeaf => {
                    s.non_singleton_leaves += 1;
                    ns_size_sum += n;
                    s.max_non_singleton_size = s.max_non_singleton_size.max(n);
                }
                NodeKind::Internal => {}
            }
        }
        if s.non_singleton_leaves > 0 {
            s.avg_non_singleton_size = ns_size_sum as f64 / s.non_singleton_leaves as f64;
        }
        s
    }

    /// The sibling class (parent id, class range) containing child `id`;
    /// `None` for the root.
    pub fn class_of(&self, id: NodeId) -> Option<(NodeId, usize, usize)> {
        let parent = self.node(id).parent()?;
        let p = self.node(parent);
        #[expect(
            clippy::expect_used,
            reason = "id's parent pointer and the parent's child list are kept consistent by the builder"
        )]
        let pos = p
            .children()
            .iter()
            .position(|&c| c == id)
            .expect("child listed in parent");
        #[expect(
            clippy::expect_used,
            reason = "sibling_classes is a partition of 0..children.len(), so every position is covered"
        )]
        let &(s, e) = p
            .sibling_classes()
            .iter()
            .find(|&&(s, e)| s as usize <= pos && pos < e as usize)
            .expect("classes cover children");
        Some((parent, s as usize, e as usize))
    }

    /// The isomorphism between two *symmetric sibling* nodes `a → b`
    /// (equal certificates under the same parent), as the sparse map
    /// matching equal canonical labels (`γ_{ij}` in SSM-AT).
    pub fn sibling_isomorphism(&self, a: NodeId, b: NodeId) -> Vec<(V, V)> {
        let (na, nb) = (self.node(a), self.node(b));
        assert_eq!(na.form(), nb.form(), "siblings are not symmetric");
        let mut pa: Vec<(V, V)> = na
            .labels()
            .iter()
            .zip(na.verts())
            .map(|(&l, &v)| (l, v))
            .collect();
        let mut pb: Vec<(V, V)> = nb
            .labels()
            .iter()
            .zip(nb.verts())
            .map(|(&l, &v)| (l, v))
            .collect();
        pa.sort_unstable();
        pb.sort_unstable();
        pa.iter()
            .zip(&pb)
            .map(|(&(la, va), &(lb, vb))| {
                debug_assert_eq!(la, lb, "label multisets of symmetric siblings agree");
                (va, vb)
            })
            .collect()
    }

    /// Renders the tree as indented ASCII (for the figure examples).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_rec(self.root, 0, &mut out);
        out
    }

    // dvicl-lint: allow(budget-reachability) -- one line per node of a finished tree the metered try_build_autotree produced, for the figure examples
    fn render_rec(&self, id: NodeId, indent: usize, out: &mut String) {
        use fmt::Write;
        let n = self.node(id);
        let kind = match n.kind() {
            NodeKind::SingletonLeaf => "·",
            NodeKind::NonSingletonLeaf => "▣",
            NodeKind::Internal => "○",
        };
        #[expect(
            clippy::expect_used,
            reason = "fmt::Write for String is infallible; the Err arm cannot occur"
        )]
        writeln!(
            out,
            "{:indent$}{kind} {:?} γ={:?}",
            "",
            n.verts(),
            n.labels(),
            indent = indent
        )
        .expect("writing to String cannot fail");
        for &c in n.children() {
            self.render_rec(c, indent + 2, out);
        }
    }
}
