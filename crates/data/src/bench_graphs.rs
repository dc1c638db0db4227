//! The benchmark graph families (paper Table 2, from the bliss
//! collection), rebuilt from scratch.
//!
//! Exact constructions: wrapped grids (`grid-w`), Hadamard graphs (`had`),
//! projective/affine plane incidence graphs (`pg2`/`ag2`, prime orders),
//! Cai–Fürer–Immerman gadget graphs (`cfi`), and CFI over Möbius ladders as
//! the Miyazaki stand-in (`mz-aug`). The SAT-encoding families
//! (`difp`/`fpga`/`s3`) are *shape substitutes* — layered circuit-like
//! graphs tuned to the cells/singletons statistics of Table 2 — because the
//! original CNF instances are not available. All substitutions are logged
//! in EXPERIMENTS.md.

#![expect(
    clippy::cast_possible_truncation,
    reason = "fixed-shape generators: every id is below the vertex count the builder was made for, and GraphBuilder::new asserts that count fits in V"
)]

use dvicl_graph::{Graph, GraphBuilder, V};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `k`-dimensional wrapped grid (torus): `grid-w-3-20` is `dims = [20; 3]`.
/// Vertex-transitive, degree `2k`.
pub fn wrapped_grid(dims: &[usize]) -> Graph {
    assert!(!dims.is_empty() && dims.iter().all(|&d| d >= 3));
    let n: usize = dims.iter().product();
    let strides: Vec<usize> = {
        let mut s = vec![1; dims.len()];
        for i in 1..dims.len() {
            s[i] = s[i - 1] * dims[i - 1];
        }
        s
    };
    let mut b = GraphBuilder::with_capacity(n, n * dims.len());
    for v in 0..n {
        for (i, &d) in dims.iter().enumerate() {
            let coord = v / strides[i] % d;
            let w = v - coord * strides[i] + (coord + 1) % d * strides[i];
            b.add_edge(v as V, w as V);
        }
    }
    b.build()
}

/// The Hadamard graph of the Sylvester matrix `H_n` (`n` a power of two):
/// vertices `r⁺, r⁻, c⁺, c⁻` per row/column; `r^s — c^t` iff
/// `H[r][c]·s·t = +1`, plus the pairing edges `r⁺—r⁻`, `c⁺—c⁻`
/// (degree `n + 1`, matching the paper's `had-256` statistics).
pub fn hadamard(n: usize) -> Graph {
    assert!(n.is_power_of_two(), "Sylvester construction needs 2^k");
    // H[r][c] = (-1)^{popcount(r & c)}.
    let sign = |r: usize, c: usize| (r & c).count_ones().is_multiple_of(2);
    let total = 4 * n;
    // Layout: r⁺ = r, r⁻ = n + r, c⁺ = 2n + c, c⁻ = 3n + c.
    let mut b = GraphBuilder::with_capacity(total, total * (n + 1) / 2);
    for r in 0..n {
        b.add_edge(r as V, (n + r) as V);
        b.add_edge((2 * n + r) as V, (3 * n + r) as V);
        for c in 0..n {
            if sign(r, c) {
                b.add_edge(r as V, (2 * n + c) as V);
                b.add_edge((n + r) as V, (3 * n + c) as V);
            } else {
                b.add_edge(r as V, (3 * n + c) as V);
                b.add_edge((n + r) as V, (2 * n + c) as V);
            }
        }
    }
    b.build()
}

/// Point–line incidence graph of the projective plane `PG(2, q)` for prime
/// `q`: `q² + q + 1` points, as many lines, every line has `q + 1` points
/// and every point lies on `q + 1` lines ((q+1)-biregular, bipartite,
/// vertex classes {points, lines}).
pub fn pg2(q: usize) -> Graph {
    assert!(is_prime(q), "this construction implements prime orders");
    let np = q * q + q + 1;
    // Points/lines = 1-dim/2-dim subspaces of GF(q)³, both enumerated as
    // normalized triples.
    let reps = normalized_triples(q);
    assert_eq!(reps.len(), np);
    let mut b = GraphBuilder::with_capacity(2 * np, np * (q + 1));
    for (pi, p) in reps.iter().enumerate() {
        for (li, l) in reps.iter().enumerate() {
            let dot = (p[0] * l[0] + p[1] * l[1] + p[2] * l[2]) % q;
            if dot == 0 {
                b.add_edge(pi as V, (np + li) as V);
            }
        }
    }
    b.build()
}

/// Point–line incidence graph of the affine plane `AG(2, q)` for prime
/// `q`: `q²` points and `q² + q` lines; each line has `q` points, each
/// point lies on `q + 1` lines.
pub fn ag2(q: usize) -> Graph {
    assert!(is_prime(q), "this construction implements prime orders");
    let np = q * q;
    // Lines: y = m·x + b (q² of them) and x = c (q of them).
    let nl = q * q + q;
    let pt = |x: usize, y: usize| (x * q + y) as V;
    let mut b = GraphBuilder::with_capacity(np + nl, nl * q);
    for m in 0..q {
        for c in 0..q {
            let line = (np + m * q + c) as V;
            for x in 0..q {
                let y = (m * x + c) % q;
                b.add_edge(pt(x, y), line);
            }
        }
    }
    for c in 0..q {
        let line = (np + q * q + c) as V;
        for y in 0..q {
            b.add_edge(pt(c, y), line);
        }
    }
    b.build()
}

/// The Cai–Fürer–Immerman gadget graph over a cubic base graph: each base
/// vertex becomes 4 "middle" vertices (even edge-subsets) plus an `(a, b)`
/// pair per incident edge; `twist` flips one cross connection, producing a
/// non-isomorphic twin that 1-WL cannot distinguish. With a cubic base of
/// `k` vertices the result has `10k` vertices and `15k` edges — `cfi-200`
/// is `k = 200`.
pub fn cfi(base: &Graph, twist: bool) -> Graph {
    for v in 0..base.n() as V {
        assert_eq!(base.degree(v), 3, "CFI needs a cubic base");
    }
    let k = base.n();
    // Per vertex: slots 0..3 = middles, then (a, b) per incident edge in
    // neighbor order: 4 + 6 = 10 slots.
    let offset = |v: usize| 10 * v;
    let a_of = |base: &Graph, v: usize, w: V| {
        #[expect(
            clippy::expect_used,
            reason = "a_of is only called with w drawn from base.neighbors(v), so the search always succeeds"
        )]
        let idx = base.neighbors(v as V).binary_search(&w).expect("neighbor");
        offset(v) + 4 + 2 * idx
    };
    let mut b = GraphBuilder::with_capacity(10 * k, 15 * k);
    for v in 0..k {
        // Middles = subsets of {0,1,2} with even cardinality: {}, {0,1},
        // {0,2}, {1,2} encoded as bitmasks 0b000, 0b011, 0b101, 0b110.
        for (mi, mask) in [0b000usize, 0b011, 0b101, 0b110].iter().enumerate() {
            for e in 0..3usize {
                let w = base.neighbors(v as V)[e];
                let pair = a_of(base, v, w);
                let end = if mask >> e & 1 == 1 { pair } else { pair + 1 };
                b.add_edge((offset(v) + mi) as V, end as V);
            }
        }
    }
    // Cross edges: a—a and b—b across each base edge (twisted: a—b, b—a on
    // exactly one edge).
    let mut twisted = twist;
    for (u, w) in base.edges() {
        let au = a_of(base, u as usize, w);
        let aw = a_of(base, w as usize, u);
        if twisted {
            b.add_edge(au as V, (aw + 1) as V);
            b.add_edge((au + 1) as V, aw as V);
            twisted = false;
        } else {
            b.add_edge(au as V, aw as V);
            b.add_edge((au + 1) as V, (aw + 1) as V);
        }
    }
    b.build()
}

/// A cubic circulant base for [`cfi`]: the Möbius–Kantor-style circulant
/// `C_k(1, k/2)` (`k` even): every vertex joins its two ring neighbors and
/// its antipode.
pub fn cubic_circulant(k: usize) -> Graph {
    assert!(k >= 6 && k.is_multiple_of(2), "need even k >= 6");
    let mut b = GraphBuilder::with_capacity(k, 3 * k / 2);
    for v in 0..k {
        b.add_edge(v as V, ((v + 1) % k) as V);
        b.add_edge(v as V, ((v + k / 2) % k) as V);
    }
    b.build()
}

/// The Möbius ladder `M_k` (cycle `C_{2k}` plus antipodal rungs) — the
/// cubic base used for the Miyazaki-style family.
pub fn moebius_ladder(k: usize) -> Graph {
    cubic_circulant(2 * k)
}

/// Miyazaki-style stand-in `mz-aug-m`: the CFI construction over a Möbius
/// ladder of `m` rungs (a ring of twisted gadgets — the same global shape
/// as Miyazaki's hard instances for nauty).
pub fn mz_aug(m: usize) -> Graph {
    cfi(&moebius_ladder(m), true)
}

/// SAT-circuit shape substitute (`difp` / `fpga` / `s3` families): a
/// nearly-rigid sparse core — a random recursive tree (1-WL is complete on
/// trees, so a rigid random tree refines to a discrete coloring, exactly
/// like real CNF encodings of multipliers) with sparse random chords —
/// plus planted twin clusters and, optionally, even-ring pockets that
/// become the non-singleton AutoTree leaves Table 4 reports for `fpga`.
pub fn sat_like(
    layers: usize,
    width: usize,
    twin_clusters: usize,
    ring_pockets: usize,
    ring_size: usize,
    seed: u64,
) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let core = layers * width;
    let extra = twin_clusters * 2 + ring_pockets * ring_size;
    let mut b = GraphBuilder::with_capacity(core + extra, core * 3);
    // Random recursive tree spine.
    for v in 1..core {
        let parent = rng.gen_range(0..v);
        b.add_edge(v as V, parent as V);
    }
    // Sparse chords (~1.5 per vertex) keep the circuit-like density.
    for _ in 0..core + core / 2 {
        let u = rng.gen_range(0..core) as V;
        let w = rng.gen_range(0..core) as V;
        b.add_edge(u, w);
    }
    let mut next = core as V;
    for _ in 0..twin_clusters {
        let host = rng.gen_range(0..core) as V;
        b.add_edge(host, next);
        b.add_edge(host, next + 1);
        next += 2;
    }
    // Wheel pockets: the anchor joins every ring vertex, so DivideS strips
    // the spokes and the bare cycle survives as a non-singleton leaf.
    for _ in 0..ring_pockets {
        let anchor = rng.gen_range(0..core) as V;
        let base = next;
        let k = ring_size as V;
        for i in 0..k {
            b.add_edge(base + i, base + (i + 1) % k);
            b.add_edge(anchor, base + i);
        }
        next += k;
    }
    b.build()
}

fn is_prime(q: usize) -> bool {
    q >= 2
        && (2..)
            .take_while(|d| d * d <= q)
            .all(|d| !q.is_multiple_of(d))
}

/// All normalized representatives of 1-dim subspaces of GF(q)³ (first
/// nonzero coordinate = 1).
fn normalized_triples(q: usize) -> Vec<[usize; 3]> {
    let mut out = Vec::with_capacity(q * q + q + 1);
    for y in 0..q {
        for z in 0..q {
            out.push([1, y, z]);
        }
    }
    for z in 0..q {
        out.push([0, 1, z]);
    }
    out.push([0, 0, 1]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_grid_matches_paper_stats() {
        // grid-w-3-20: 8000 vertices, 24000 edges, 6-regular.
        let g = wrapped_grid(&[20, 20, 20]);
        assert_eq!(g.n(), 8000);
        assert_eq!(g.m(), 24000);
        assert!((0..g.n() as V).all(|v| g.degree(v) == 6));
    }

    #[test]
    fn hadamard_matches_paper_stats() {
        // had-256: 1024 vertices, 131584 edges, 257-regular.
        let g = hadamard(256);
        assert_eq!(g.n(), 1024);
        assert_eq!(g.m(), 131_584);
        assert!((0..g.n() as V).all(|v| g.degree(v) == 257));
    }

    #[test]
    fn pg2_incidence_counts() {
        let q = 7;
        let g = pg2(q);
        let np = q * q + q + 1;
        assert_eq!(g.n(), 2 * np);
        assert_eq!(g.m(), np * (q + 1));
        assert!((0..g.n() as V).all(|v| g.degree(v) == q + 1));
        // Girth 6 (no 4-cycles): two points share exactly one line.
        for p1 in 0..4 as V {
            for p2 in (p1 + 1)..5 as V {
                let l1 = g.neighbors(p1);
                let common = l1.iter().filter(|l| g.has_edge(p2, **l)).count();
                assert_eq!(common, 1, "points {p1},{p2}");
            }
        }
    }

    #[test]
    fn ag2_incidence_counts() {
        let q = 5;
        let g = ag2(q);
        assert_eq!(g.n(), q * q + q * q + q);
        assert_eq!(g.m(), (q * q + q) * q);
        // Points have degree q+1, lines degree q.
        for p in 0..(q * q) as V {
            assert_eq!(g.degree(p), q + 1);
        }
        for l in (q * q) as V..g.n() as V {
            assert_eq!(g.degree(l), q);
        }
    }

    #[test]
    fn cfi_matches_paper_stats() {
        // cfi-200: base of 200 cubic vertices → 2000 vertices, 3000 edges,
        // 3-regular.
        let g = cfi(&cubic_circulant(200), false);
        assert_eq!(g.n(), 2000);
        assert_eq!(g.m(), 3000);
        assert!((0..g.n() as V).all(|v| g.degree(v) == 3));
    }

    #[test]
    fn cfi_twist_changes_the_graph_but_not_wl() {
        let base = cubic_circulant(10);
        let a = cfi(&base, false);
        let b = cfi(&base, true);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        assert!((0..a.n() as V).all(|v| a.degree(v) == 3 && b.degree(v) == 3));
        // The twisted pair is the classic 1-WL-indistinguishable pair;
        // dvicl-core's tests exercise the non-isomorphism.
        assert_ne!(a, b);
    }

    #[test]
    fn mz_aug_matches_scale() {
        // mz-aug-50 analog: Möbius ladder of 50 rungs → 100 cubic base
        // vertices → 1000 CFI vertices.
        let g = mz_aug(50);
        assert_eq!(g.n(), 1000);
        assert_eq!(g.m(), 1500);
    }

    #[test]
    fn sat_like_is_deterministic_and_sparse() {
        let a = sat_like(20, 200, 100, 10, 8, 42);
        let b = sat_like(20, 200, 100, 10, 8, 42);
        assert_eq!(a, b);
        assert!(a.avg_degree() < 8.0);
    }
}
