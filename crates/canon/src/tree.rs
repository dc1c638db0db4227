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

    /// Renders the tree as indented ASCII, one node per line:
    /// `node-id [individualized-vertex] coloring`. Nodes are stored in
    /// visit (preorder) order, so every subtree follows its root and
    /// indenting by depth draws the tree.
    // dvicl-lint: allow(budget-reachability) -- unmetered: one line per node of a finished search tree, each of which dfs() paid for
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (id, n) in self.nodes.iter().enumerate() {
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
                indent = 2 * n.depth as usize
            )
            .expect("writing to String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_render() {
        let mut t = SearchTree::default();
        let root = t.push(NodeRecord {
            coloring: "[0,1|2]".into(),
            depth: 0,
            parent: None,
            individualized: None,
        });
        t.push(NodeRecord {
            coloring: "[0|1|2]".into(),
            depth: 1,
            parent: Some(root),
            individualized: Some(0),
        });
        assert_eq!(t.render(), "(0) [0,1|2]\n  --0--> (1) [0|1|2]\n");
    }
}
