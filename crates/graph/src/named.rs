//! Constructors for well-known graphs.
//!
//! These are used throughout the workspace's tests (they have known
//! automorphism groups) and by the dataset crate. The module also contains
//! the worked example graphs from the paper's figures.

#![expect(
    clippy::cast_possible_truncation,
    reason = "fixed-shape generators: every id is below the vertex count the builder was made for, and GraphBuilder::new asserts that count fits in V"
)]

use crate::{Graph, GraphBuilder, V};

/// The 8-vertex example graph of Fig. 1(a).
///
/// Vertices 0–3 form the 4-cycle `0-1-2-3`, vertices 4, 5, 6 form a
/// triangle, and vertex 7 is adjacent to all of 0–6. Its automorphism group
/// is `D_4 × S_3` (order 48) with orbits `{0,1,2,3}`, `{4,5,6}`, `{7}`.
pub fn fig1_example() -> Graph {
    Graph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 4),
            (0, 7),
            (1, 7),
            (2, 7),
            (3, 7),
            (4, 7),
            (5, 7),
            (6, 7),
        ],
    )
}

/// The 14-vertex example graph used for the AutoTree illustration of
/// Fig. 3: a center vertex 1 with three symmetric "wings".
///
/// Each wing `i ∈ {0,1,2}` has a pair `(aᵢ, bᵢ)` where `aᵢ` is adjacent to
/// the center and to `bᵢ`; the three `aᵢ` form a triangle (the clique axis
/// `a₁₁` of the paper); additionally each wing carries a second pendant pair
/// mirroring the paper's three-level structure. The exact figure's adjacency
/// cannot be recovered pixel-perfectly from the text, so this graph is built
/// to exhibit the same AutoTree phenomenology: a singleton axis at the root,
/// a clique axis one level down, and symmetric leaf groups of size 3.
pub fn fig3_example() -> Graph {
    // Center: 1.
    // Wing A: 2 (clique member), pendant chain 3-2, extra leaf pair (4,5):
    //   per wing w with clique member c: vertices c, x, y, z where
    //   edges: (1,c) via clique member? We follow a concrete readable shape:
    // Clique members: 2, 4, 6 (triangle; each adjacent to center 1).
    // Each clique member c has a pendant path c - p - q.
    let mut b = GraphBuilder::new(14);
    let center: V = 1;
    let wings: [(V, V, V); 3] = [(2, 3, 0), (4, 5, 7), (6, 8, 9)];
    // Clique among {2,4,6}.
    b.add_edge(2, 4);
    b.add_edge(4, 6);
    b.add_edge(2, 6);
    for &(c, p, q) in &wings {
        b.add_edge(center, c);
        b.add_edge(c, p);
        b.add_edge(p, q);
    }
    // A second symmetric group hanging off the center: three pendant
    // vertices 10, 11 on a shared stalk 12-13 is *not* symmetric; instead
    // attach a mirrored pendant pair to the center so the root has more
    // than one child class.
    b.add_edge(center, 10);
    b.add_edge(10, 11);
    b.add_edge(center, 12);
    b.add_edge(12, 13);
    b.build()
}

/// Complete graph `K_n`. `|Aut| = n!`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as V {
        for v in (u + 1)..n as V {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Cycle `C_n` (requires `n >= 3`). `|Aut| = 2n`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for v in 0..n as V {
        b.add_edge(v, ((v as usize + 1) % n) as V);
    }
    b.build()
}

/// Path `P_n` on `n` vertices. `|Aut| = 2` for `n >= 2`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as V {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// Star `K_{1,n}` with center 0. `|Aut| = n!`.
pub fn star(leaves: usize) -> Graph {
    let mut b = GraphBuilder::new(leaves + 1);
    for v in 1..=leaves as V {
        b.add_edge(0, v);
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
/// `|Aut| = a!·b!` for `a ≠ b` and `2·(a!)²` for `a = b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = GraphBuilder::new(a + b);
    for u in 0..a as V {
        for v in a as V..(a + b) as V {
            g.add_edge(u, v);
        }
    }
    g.build()
}

/// The Petersen graph. `|Aut| = 120`.
pub fn petersen() -> Graph {
    let mut b = GraphBuilder::new(10);
    for v in 0..5 as V {
        b.add_edge(v, (v + 1) % 5); // outer cycle
        b.add_edge(v + 5, (v + 2) % 5 + 5); // inner pentagram
        b.add_edge(v, v + 5); // spokes
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d`. `|Aut| = 2^d · d!`.
pub fn hypercube(d: usize) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if w > v {
                b.add_edge(v as V, w as V);
            }
        }
    }
    b.build()
}

/// The Frucht graph: the smallest cubic graph with trivial automorphism
/// group (`|Aut| = 1`).
pub fn frucht() -> Graph {
    Graph::from_edges(
        12,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 0),
            (0, 7),
            (1, 7),
            (2, 8),
            (3, 9),
            (4, 9),
            (5, 10),
            (6, 10),
            (7, 11),
            (8, 11),
            (8, 9),
            (10, 11),
        ],
    )
}

/// Circulant graph `C_n(S)`: vertex `v` adjacent to `v ± s (mod n)` for each
/// `s ∈ S`. Vertex-transitive; `|Aut| >= n`.
pub fn circulant(n: usize, jumps: &[usize]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for &s in jumps {
            let s = s % n;
            if s == 0 {
                continue;
            }
            b.add_edge(v as V, ((v + s) % n) as V);
        }
    }
    b.build()
}

/// 2-dimensional wrapped grid (torus) of `rows × cols`.
pub fn torus2(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs >= 3 per dimension");
    let idx = |r: usize, c: usize| (r * cols + c) as V;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx((r + 1) % rows, c));
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
        }
    }
    b.build()
}

/// Balanced `r`-ary rooted tree of the given depth (depth 0 = single root).
/// Rich in symmetry: `|Aut|` is an iterated wreath-product order.
pub fn rary_tree(r: usize, depth: usize) -> Graph {
    let mut edges = Vec::new();
    let mut level: Vec<V> = vec![0];
    let mut next_id: V = 1;
    for _ in 0..depth {
        let mut next_level = Vec::new();
        for &p in &level {
            for _ in 0..r {
                edges.push((p, next_id));
                next_level.push(next_id);
                next_id += 1;
            }
        }
        level = next_level;
    }
    Graph::from_edges(next_id as usize, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(complete(5).m(), 10);
        assert_eq!(cycle(6).m(), 6);
        assert_eq!(path(4).m(), 3);
        assert_eq!(star(7).m(), 7);
        assert_eq!(complete_bipartite(3, 4).m(), 12);
        assert_eq!(petersen().m(), 15);
        assert_eq!(hypercube(3).m(), 12);
        assert_eq!(frucht().m(), 18);
        assert_eq!(torus2(3, 4).m(), 24);
        assert_eq!(rary_tree(2, 3).n(), 15);
        assert_eq!(rary_tree(2, 3).m(), 14);
    }

    #[test]
    fn regularity() {
        for v in 0..10 {
            assert_eq!(petersen().degree(v), 3);
            assert_eq!(frucht().degree(v), 3);
        }
        for v in 0..12 {
            assert_eq!(frucht().degree(v), 3);
        }
        for v in 0..8 {
            assert_eq!(hypercube(3).degree(v), 3);
        }
        let t = torus2(4, 5);
        for v in 0..20 {
            assert_eq!(t.degree(v), 4);
        }
    }

    #[test]
    fn circulant_is_regular() {
        let g = circulant(10, &[1, 3]);
        for v in 0..10 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn fig1_is_the_paper_graph() {
        let g = fig1_example();
        // Structural equivalences asserted in Section 2: N(0) = N(2) and
        // N(1) = N(3); 4 and 5 are NOT structurally equivalent.
        assert_eq!(g.neighbors(0), g.neighbors(2));
        assert_eq!(g.neighbors(1), g.neighbors(3));
        assert_ne!(g.neighbors(4), g.neighbors(5));
    }

    #[test]
    fn fig3_center_degree() {
        let g = fig3_example();
        assert_eq!(g.degree(1), 5); // three clique wings + two pendant stalks
    }
}

/// The Kneser graph `K(n, k)`: vertices are the k-subsets of `{0..n}`,
/// adjacent iff disjoint. `K(5, 2)` is the Petersen graph;
/// `|Aut| = n!` for `n ≥ 2k + 1`.
pub fn kneser(n: usize, k: usize) -> Graph {
    assert!(k >= 1 && n >= 2 * k, "Kneser needs n >= 2k");
    let subsets = k_subsets(n, k);
    let mut b = GraphBuilder::new(subsets.len());
    for (i, a) in subsets.iter().enumerate() {
        for (j, c) in subsets.iter().enumerate().skip(i + 1) {
            if a & c == 0 {
                b.add_edge(i as V, j as V);
            }
        }
    }
    b.build()
}

/// The Johnson graph `J(n, k)`: k-subsets adjacent iff they share `k-1`
/// elements. `|Aut| = n!` for `n ≠ 2k`.
pub fn johnson(n: usize, k: usize) -> Graph {
    assert!(k >= 1 && n >= k, "Johnson needs n >= k");
    let subsets = k_subsets(n, k);
    let mut b = GraphBuilder::new(subsets.len());
    for (i, a) in subsets.iter().enumerate() {
        for (j, c) in subsets.iter().enumerate().skip(i + 1) {
            if (a ^ c).count_ones() == 2 {
                b.add_edge(i as V, j as V);
            }
        }
    }
    b.build()
}

fn k_subsets(n: usize, k: usize) -> Vec<u64> {
    assert!(n <= 63, "subset universe limited to 63 elements");
    (0u64..1 << n)
        .filter(|s| s.count_ones() as usize == k)
        .collect()
}

/// The Paley graph of prime order `q ≡ 1 (mod 4)`: vertices `GF(q)`,
/// adjacent iff the difference is a nonzero square. Self-complementary,
/// strongly regular, vertex-transitive with `|Aut| = q(q-1)/2`.
pub fn paley(q: usize) -> Graph {
    assert!(q % 4 == 1, "Paley needs q ≡ 1 (mod 4)");
    assert!(
        (2..q)
            .take_while(|d| d * d <= q)
            .all(|d| !q.is_multiple_of(d)),
        "this construction implements prime q"
    );
    let mut is_square = vec![false; q];
    for x in 1..q {
        is_square[x * x % q] = true;
    }
    let mut b = GraphBuilder::new(q);
    for a in 0..q {
        for c in (a + 1)..q {
            if is_square[(c - a) % q] {
                b.add_edge(a as V, c as V);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn kneser_5_2_is_petersen() {
        let k = kneser(5, 2);
        assert_eq!(k.n(), 10);
        assert_eq!(k.m(), 15);
        for v in 0..10 {
            assert_eq!(k.degree(v), 3);
        }
    }

    #[test]
    fn johnson_counts() {
        // J(4,2): octahedron = K_{2,2,2}: 6 vertices, 12 edges, 4-regular.
        let j = johnson(4, 2);
        assert_eq!(j.n(), 6);
        assert_eq!(j.m(), 12);
        for v in 0..6 {
            assert_eq!(j.degree(v), 4);
        }
    }

    #[test]
    fn paley_is_self_complementary_and_regular() {
        let p = paley(13);
        assert_eq!(p.n(), 13);
        for v in 0..13 {
            assert_eq!(p.degree(v), 6); // (q-1)/2
        }
        // Self-complementarity needs half of all vertex pairs to be edges
        // (full isomorphism is checked in the root crate's tests).
        assert_eq!(2 * p.m(), 13 * 12 / 2);
    }
}
