//! Recorded IR search trees, for the worked examples (paper Fig. 1(b)).

use dvicl_graph::V;
use std::fmt;

/// One recorded node of the backtrack search tree `T(G, π)`.
#[derive(Clone, Debug)]
pub struct NodeRecord {
    /// The node's (refined) coloring, rendered in the paper's notation.
    pub coloring: String,
    /// Depth in the tree (root = 0).
    pub depth: u32,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// The edge label: the vertex individualized to reach this node.
    pub individualized: Option<V>,
}

/// A recorded search tree in visit (preorder) order; node identifiers are
/// exactly the traversal order, matching the paper's Fig. 1(b) labels.
#[derive(Clone, Debug, Default)]
pub struct SearchTree {
    nodes: Vec<NodeRecord>,
}

impl SearchTree {
    /// Appends a node; returns its identifier.
    pub fn push(&mut self, node: NodeRecord) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with identifier `id` (visit order).
    pub fn node(&self, id: usize) -> &NodeRecord {
        &self.nodes[id]
    }

    /// All recorded nodes in visit order.
    pub fn nodes(&self) -> &[NodeRecord] {
        &self.nodes
    }

    /// Children of `id`, in visit order.
    pub fn children(&self, id: usize) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == Some(id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the tree as indented ASCII, one node per line:
    /// `node-id [individualized-vertex] coloring`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_rec(0, 0, &mut out);
        out
    }

    fn render_rec(&self, id: usize, indent: usize, out: &mut String) {
        use fmt::Write;
        let n = &self.nodes[id];
        let edge = match n.individualized {
            Some(v) => format!("--{v}--> "),
            None => String::new(),
        };
        #[expect(
            clippy::expect_used,
            reason = "fmt::Write for String is infallible; the Err arm cannot occur"
        )]
        writeln!(
            out,
            "{:indent$}{edge}({id}) {}",
            "",
            n.coloring,
            indent = indent
        )
        .expect("writing to String cannot fail");
        for c in self.children(id) {
            self.render_rec(c, indent + 2, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut t = SearchTree::default();
        let root = t.push(NodeRecord {
            coloring: "[0,1|2]".into(),
            depth: 0,
            parent: None,
            individualized: None,
        });
        let c1 = t.push(NodeRecord {
            coloring: "[0|1|2]".into(),
            depth: 1,
            parent: Some(root),
            individualized: Some(0),
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.children(root), vec![c1]);
        let rendered = t.render();
        assert!(rendered.contains("--0--> (1) [0|1|2]"));
    }
}
