//! Immutable undirected simple graphs in CSR form, plus a mutable builder.

use crate::{as_vertex, vertex_range, Perm, MAX_VERTICES, V};
use std::fmt;
use std::ops::Range;

/// An immutable undirected simple graph stored in CSR (compressed sparse
/// row) form with sorted adjacency lists.
///
/// Construction deduplicates parallel edges and drops self-loops, matching
/// the paper's preprocessing of its datasets (Section 7, footnote 1).
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<V>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list. Self-loops are
    /// dropped; parallel edges and orientation duplicates are deduplicated.
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(V, V)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Adopts already-clean CSR arrays: `offsets` has `n + 1 <=
    /// MAX_VERTICES + 1` entries,
    /// every row of `adj` is strictly ascending (sorted, deduplicated, no
    /// self-loop) and symmetric (`v ∈ N(u)` iff `u ∈ N(v)`). This is the
    /// zero-rebuild path used by the arena-backed subgraph store, which
    /// maintains those invariants by construction; they are re-checked
    /// here in debug builds.
    pub fn from_csr(offsets: Vec<usize>, adj: Vec<V>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        assert!(offsets.len() - 1 <= MAX_VERTICES, "n exceeds MAX_VERTICES");
        assert_eq!(
            *offsets.last().unwrap_or(&0),
            adj.len(),
            "offsets must cover adj"
        );
        let g = Graph { offsets, adj };
        #[cfg(debug_assertions)]
        {
            let n = g.n();
            assert!(
                g.offsets.windows(2).all(|w| w[0] <= w[1]),
                "offsets not monotone"
            );
            for v in g.vertices() {
                let row = g.neighbors(v);
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "row {v} not strictly ascending"
                );
                assert!(
                    row.iter().all(|&w| (w as usize) < n && w != v),
                    "row {v} has an out-of-range vertex or self-loop"
                );
                assert!(
                    row.iter().all(|&w| g.has_edge(w, v)),
                    "row {v} not symmetric"
                );
            }
        }
        g
    }

    /// The raw CSR arrays `(offsets, adj)`: row `v` is
    /// `adj[offsets[v]..offsets[v + 1]]`. Lets flat-storage consumers
    /// (the subgraph arena, benchmark meters) copy adjacency wholesale
    /// instead of row by row.
    #[inline]
    pub fn csr(&self) -> (&[usize], &[V]) {
        (&self.offsets, &self.adj)
    }

    /// The vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> Range<V> {
        vertex_range(self.n())
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// The sorted neighbor list `N(v)`.
    #[inline]
    pub fn neighbors(&self, v: V) -> &[V] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The degree `d(v) = |N(v)|`.
    #[inline]
    pub fn degree(&self, v: V) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree over all vertices; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n`; 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// True iff `(u, v)` is an edge (binary search over `N(u)`).
    #[inline]
    pub fn has_edge(&self, u: V, v: V) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (V, V)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// The relabeled graph `G^γ` where `E^γ = {(u^γ, v^γ) | (u,v) ∈ E}`.
    pub fn permuted(&self, gamma: &Perm) -> Graph {
        assert_eq!(gamma.len(), self.n(), "permutation size mismatch");
        let edges: Vec<(V, V)> = self
            .edges()
            .map(|(u, v)| (gamma.apply(u), gamma.apply(v)))
            .collect();
        Graph::from_edges(self.n(), &edges)
    }

    /// The subgraph induced by `verts` (which need not be sorted), with
    /// vertices relabeled to `0..verts.len()` in the given order. Returns
    /// the induced graph; the caller keeps `verts` as the local→global map.
    ///
    /// Panics if `verts` contains duplicates or out-of-range vertices.
    pub fn induced(&self, verts: &[V]) -> Graph {
        let n = self.n();
        let mut local = vec![V::MAX; n];
        let mut b = GraphBuilder::new(verts.len());
        for (i, &v) in (0..).zip(verts) {
            assert!((v as usize) < n, "vertex out of range");
            assert!(
                local[v as usize] == V::MAX,
                "duplicate vertex in induced set"
            );
            local[v as usize] = i;
        }
        for (i, &v) in (0..).zip(verts) {
            for &w in self.neighbors(v) {
                let lw = local[w as usize];
                if lw != V::MAX && lw > i {
                    b.add_edge(i, lw);
                }
            }
        }
        b.build()
    }

    /// Disjoint union: `other`'s vertices are shifted by `self.n()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = as_vertex(self.n());
        let mut edges: Vec<(V, V)> = self.edges().collect();
        edges.extend(other.edges().map(|(u, v)| (u + shift, v + shift)));
        Graph::from_edges(self.n() + other.n(), &edges)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

/// Incremental builder for [`Graph`]. Accepts edges in any order, with
/// duplicates and self-loops, and produces a clean CSR graph.
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(V, V)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices. Panics if `n >
    /// MAX_VERTICES`.
    pub fn new(n: usize) -> Self {
        GraphBuilder::with_capacity(n, 0)
    }

    /// Pre-allocates for `m` edges. Panics if `n > MAX_VERTICES`.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        assert!(n <= MAX_VERTICES, "n exceeds MAX_VERTICES");
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Records an undirected edge; self-loops are ignored. Panics if an
    /// endpoint is out of range.
    pub fn add_edge(&mut self, u: V, v: V) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Finalizes into a CSR graph, deduplicating edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as V; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each row is filled in ascending order of the opposite endpoint for
        // the (u,v) pass but interleaved with the (v,u) pass; sort rows.
        for v in 0..self.n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { offsets, adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_graph() -> Graph {
        // The 8-vertex example graph of Fig. 1(a): vertices 0..3 form a
        // 4-cycle 0-1-2-3, vertices 4,5,6 a triangle attached pairwise, and
        // vertex 7 a hub adjacent to all of 0..6.
        crate::named::fig1_example()
    }

    #[test]
    fn builder_dedupes_and_drops_loops() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (2, 2), (1, 2), (1, 2)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(2, 2));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn fig1_stats() {
        let g = fig1_graph();
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 14);
        assert_eq!(g.degree(7), 7);
        assert_eq!(g.max_degree(), 7);
    }

    #[test]
    fn permuted_by_automorphism_is_equal() {
        let g = fig1_graph();
        // γ1 = (4,5,6) is an automorphism of Fig. 1(a).
        let gamma = Perm::from_cycles(8, &[&[4, 5, 6]]).unwrap();
        assert_eq!(g.permuted(&gamma), g);
        // γ2 = (0,1) is not.
        let gamma2 = Perm::from_cycles(8, &[&[0, 1]]).unwrap();
        assert_ne!(g.permuted(&gamma2), g);
    }

    #[test]
    fn induced_subgraph() {
        let g = fig1_graph();
        let tri = g.induced(&[4, 5, 6]);
        assert_eq!(tri.n(), 3);
        assert_eq!(tri.m(), 3);
        let cyc = g.induced(&[0, 1, 2, 3]);
        assert_eq!(cyc.m(), 4);
        assert_eq!(cyc.degree(0), 2);
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = crate::named::cycle(3);
        let b = crate::named::path(2);
        let u = a.disjoint_union(&b);
        assert_eq!(u.n(), 5);
        assert_eq!(u.m(), 4);
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(2, 3));
    }

    #[test]
    fn edges_iterator_reports_each_once() {
        let g = fig1_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.m());
        for &(u, v) in &edges {
            assert!(u < v);
        }
    }

    #[test]
    fn from_csr_matches_from_edges() {
        let g = fig1_graph();
        let (offsets, adj) = g.csr();
        let g2 = Graph::from_csr(offsets.to_vec(), adj.to_vec());
        assert_eq!(g, g2);
        assert_eq!(
            Graph::from_csr(vec![0], Vec::new()),
            Graph::from_edges(0, &[])
        );
    }

    #[test]
    #[should_panic(expected = "offsets must cover adj")]
    fn from_csr_rejects_short_offsets() {
        let _ = Graph::from_csr(vec![0, 1], Vec::new());
    }

    #[test]
    #[should_panic(expected = "n exceeds MAX_VERTICES")]
    fn builder_refuses_more_than_max_vertices() {
        let _ = GraphBuilder::new(MAX_VERTICES + 1);
    }

    #[test]
    fn vertex_conversions_stop_at_max_vertices() {
        assert_eq!(as_vertex(MAX_VERTICES), V::MAX);
        assert_eq!(vertex_range(3), 0..3);
        assert!(std::panic::catch_unwind(|| as_vertex(MAX_VERTICES + 1)).is_err());
    }
}
