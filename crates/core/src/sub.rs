//! Working subgraph representation for the DviCL recursion.
//!
//! A [`Sub`] is a colored subgraph `(g, π_g)` of the input graph: vertices
//! keep their *global* identities and their *global* colors (the paper's
//! `π_g` is the projection of `π` onto `V(g)`, Theorem 6.1); adjacency is
//! stored over local indices for compactness. Children of a node are always
//! the **induced** subgraphs of `G` on their vertex sets (the paper defines
//! tree nodes that way in Section 5) — the edges deleted by the divide
//! rules only decide the component structure, they reappear inside any
//! child that retains both endpoints.
//!
//! Storage lives in a [`SubArena`](crate::SubArena): a `Sub` is a plain
//! `Copy` handle (offset ranges into the arena's flat vertex/CSR pools)
//! rather than an owner of nested `Vec`s, so carving a child costs one
//! bump of three stack tops and releasing it costs a truncate. All data
//! access and the divide rules `DivideI`/`DivideS` are methods on the
//! arena — see `crate::arena`.

use dvicl_graph::as_vertex;

/// A colored subgraph `(g, π_g)` with global vertex identities: a compact
/// handle into a [`SubArena`](crate::SubArena).
///
/// The handle is `Copy` and holds no pointers — only offsets into the
/// arena that carved it.
#[derive(Clone, Copy, Debug)]
pub struct Sub {
    /// Start of this subgraph's span in the arena's vertex pool.
    pub(crate) verts_start: usize,
    /// Start of this subgraph's `n + 1` offsets in the arena's offset
    /// pool. Offset values are relative to `adj_start`.
    pub(crate) offs_start: usize,
    /// Start of this subgraph's adjacency span in the arena's CSR pool.
    pub(crate) adj_start: usize,
    /// Number of vertices.
    pub(crate) n: usize,
    /// Number of (undirected) edges, cached at construction — `m()` is a
    /// field read, not a sum over adjacency rows.
    pub(crate) m: usize,
}

impl Sub {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges. Cached when the subgraph is carved — O(1).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }
}

/// Result of a divide attempt: the child vertex sets (as local index
/// lists), in an order that puts isolated axis singletons first.
///
/// Parts are stored flat (CSR-style `offs`/`members`) — a division never
/// allocates per part.
#[derive(Clone, Debug, Default)]
pub struct Division {
    /// Part boundaries: part `i` is `members[offs[i] as usize..offs[i + 1] as usize]`.
    pub(crate) offs: Vec<u32>,
    /// Concatenated local-index lists, each part ascending.
    pub(crate) members: Vec<u32>,
}

impl Division {
    pub(crate) fn new() -> Self {
        Division {
            offs: vec![0],
            members: Vec::new(),
        }
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.offs.len() - 1
    }

    /// True iff the division has no parts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The local-index list of part `i`, ascending.
    pub fn part(&self, i: usize) -> &[u32] {
        &self.members[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    /// Iterator over the parts, in child order.
    pub fn parts(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| self.part(i))
    }

    /// Appends a one-vertex part.
    pub(crate) fn push_singleton(&mut self, local: u32) {
        self.members.push(local);
        self.offs.push(as_vertex(self.members.len()));
    }
}

#[cfg(test)]
mod tests {
    use crate::arena::SubArena;
    use dvicl_govern::Budget;
    use dvicl_graph::{named, Coloring, Graph};
    use dvicl_refine::Refiner;

    fn refined(g: &Graph) -> Coloring {
        Refiner::new()
            .try_refine(g, &Coloring::unit(g.n()), &Budget::unlimited())
            .expect("unlimited refinement cannot fail")
            .coloring
    }

    fn parts_of(d: &super::Division) -> Vec<Vec<u32>> {
        d.parts().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn whole_preserves_structure() {
        let g = named::fig1_example();
        let mut a = SubArena::new();
        let s = a.whole(&g);
        assert_eq!(s.n(), 8);
        assert_eq!(s.m(), 14);
        assert_eq!(a.to_local_graph(&s), g);
    }

    #[test]
    fn cells_group_by_global_color() {
        let g = named::fig1_example();
        let pi = refined(&g); // [0..6 | 7]
        let mut a = SubArena::new();
        let s = a.whole(&g);
        let pi_g = pi.project(a.verts(&s));
        let cells: Vec<&[u32]> = pi_g.cells().collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].len(), 7);
        assert_eq!(cells[1], vec![7]);
    }

    #[test]
    fn divide_i_isolates_hub() {
        // Fig. 1(a): cell {7} is singleton; removing 7 leaves the 4-cycle
        // and the triangle as two components.
        let g = named::fig1_example();
        let pi = refined(&g);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        let d = a.divide_i(&s, &pi).expect("hub is a singleton cell");
        assert_eq!(d.len(), 3);
        assert_eq!(d.part(0), &[7]); // the axis
        let mut rest: Vec<Vec<u32>> = parts_of(&d)[1..].to_vec();
        rest.sort();
        assert_eq!(rest, vec![vec![0, 1, 2, 3], vec![4, 5, 6]]);
    }

    #[test]
    fn divide_i_requires_singletons() {
        let g = named::petersen();
        let pi = refined(&g);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        assert!(a.divide_i(&s, &pi).is_none());
    }

    #[test]
    fn divide_s_splits_clique_cell() {
        // K3 with a pendant on each vertex: cells: {pendants}, {triangle};
        // the triangle cell is a clique → removing it splits into 3
        // components of 2 vertices each.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]);
        let pi = refined(&g);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        assert!(a.divide_i(&s, &pi).is_none());
        let d = a.divide_s(&s, &pi).expect("clique cell splits");
        assert_eq!(d.len(), 3);
        for p in d.parts() {
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn divide_s_complete_bipartite_between_cells() {
        // K_{2,2} with a pendant on each left vertex. Cells: left {0,1},
        // right {2,3}, pendants {4,5}. Left–right is complete bipartite →
        // removal separates {2},{3} from the left+pendant pairs.
        let g = Graph::from_edges(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 5)]);
        let pi = refined(&g);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        let d = a.divide_s(&s, &pi).expect("biclique edges removable");
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn divide_s_none_when_not_fully_joined() {
        let g = named::cycle(6);
        let pi = refined(&g);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        assert!(a.divide_s(&s, &pi).is_none());
        let p = named::petersen();
        let pp = refined(&p);
        let mut a2 = SubArena::new();
        let s2 = a2.whole(&p);
        assert!(a2.divide_s(&s2, &pp).is_none());
    }

    #[test]
    fn complete_graph_divides_to_singletons() {
        let g = named::complete(4);
        let pi = refined(&g);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        let d = a.divide_s(&s, &pi).expect("K4 is one clique cell");
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn induced_child_keeps_removed_edges() {
        // The paper's nodes are induced subgraphs: a child containing two
        // members of a removed clique cell gets that edge back.
        let g = named::complete(4);
        let mut a = SubArena::new();
        let s = a.whole(&g);
        let child = a.induced_child(&s, &[1, 3]);
        assert_eq!(a.verts(&child), &[1, 3]);
        assert_eq!(child.m(), 1);
    }

    #[test]
    fn components_divide() {
        let g = named::cycle(3).disjoint_union(&named::cycle(3));
        let mut a = SubArena::new();
        let s = a.whole(&g);
        let d = a.divide_components(&s).expect("disconnected");
        assert_eq!(d.len(), 2);
        let p = named::petersen();
        let mut a2 = SubArena::new();
        let s2 = a2.whole(&p);
        assert!(a2.divide_components(&s2).is_none());
    }
}
