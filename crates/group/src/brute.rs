//! Brute-force oracles for small graphs.
//!
//! Used as ground truth in tests across the workspace: exhaustive
//! automorphism enumeration (backtracking, suitable up to ~10–12 vertices)
//! and the literal "minimum `(G, π)^γ` over all permutations" canonical form
//! (suitable up to ~8 vertices).

use dvicl_graph::{CanonForm, Coloring, Graph, Perm, V};

/// Enumerates `Aut(G, π)` exhaustively by backtracking over color- and
/// degree-compatible images. Intended for test graphs only.
pub fn automorphisms(g: &Graph, pi: &Coloring) -> Vec<Perm> {
    let n = g.n();
    let mut image = vec![V::MAX; n];
    let mut used = vec![false; n];
    let mut out = Vec::new();
    backtrack(g, pi, 0, &mut image, &mut used, &mut out);
    out
}

fn backtrack(
    g: &Graph,
    pi: &Coloring,
    v: V,
    image: &mut Vec<V>,
    used: &mut Vec<bool>,
    out: &mut Vec<Perm>,
) {
    if v == g.vertices().end {
        #[expect(
            clippy::expect_used,
            reason = "the backtracking search assigns each vertex a distinct unused image, so the full map is a bijection"
        )]
        out.push(Perm::from_image(image.clone()).expect("complete image is a bijection"));
        return;
    }
    for w in g.vertices() {
        if used[w as usize] || pi.color_of(v) != pi.color_of(w) || g.degree(v) != g.degree(w) {
            continue;
        }
        // Adjacency with already-mapped vertices must be preserved both ways.
        let ok = (0..v).all(|u| g.has_edge(u, v) == g.has_edge(image[u as usize], w));
        if !ok {
            continue;
        }
        image[v as usize] = w;
        used[w as usize] = true;
        backtrack(g, pi, v + 1, image, used, out);
        used[w as usize] = false;
        image[v as usize] = V::MAX;
    }
}

/// `|Aut(G, π)|` by brute force.
pub fn automorphism_count(g: &Graph, pi: &Coloring) -> u64 {
    automorphisms(g, pi).len() as u64
}

/// The literal minimum certificate `min_γ (G, π)^γ` over all `n!`
/// permutations that preserve `π`'s cells as positions. Exponential —
/// tests only (n ≤ 8).
#[expect(
    clippy::expect_used,
    reason = "the identity permutation is always enumerated and is color-preserving, so best is Some"
)]
pub fn min_canon_form(g: &Graph, pi: &Coloring) -> CanonForm {
    let n = g.n();
    assert!(n <= 9, "brute-force canonical form is exponential");
    let mut perm: Vec<V> = g.vertices().collect();
    let mut best: Option<CanonForm> = None;
    permute_all(&mut perm, 0, &mut |p| {
        // Only color-preserving relabelings are candidates: the image of a
        // vertex must carry the same color for (G,π)^γ to have π's cells in
        // place (γ maps each cell onto a cell of equal color). A position's
        // color is the color of the vertex π places there.
        let at = pi.vertices();
        let ok = g
            .vertices()
            .all(|v| pi.color_of(v) == pi.color_of(at[p[v as usize] as usize]));
        if !ok {
            return;
        }
        let form = CanonForm::new(g, pi.colors(), p);
        match &best {
            Some(b) if *b <= form => {}
            _ => best = Some(form),
        }
    });
    best.expect("at least the identity is color-preserving")
}

fn permute_all(perm: &mut Vec<V>, k: usize, f: &mut impl FnMut(&[V])) {
    if k == perm.len() {
        f(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute_all(perm, k + 1, f);
        perm.swap(k, i);
    }
}

/// True iff `g1` and `g2` are isomorphic as colored graphs, by exhaustive
/// search (tests only).
pub fn isomorphic(g1: &Graph, pi1: &Coloring, g2: &Graph, pi2: &Coloring) -> bool {
    if g1.n() != g2.n() || g1.m() != g2.m() {
        return false;
    }
    let n = g1.n();
    let mut image = vec![V::MAX; n];
    let mut used = vec![false; n];
    iso_backtrack(g1, pi1, g2, pi2, 0, &mut image, &mut used)
}

fn iso_backtrack(
    g1: &Graph,
    pi1: &Coloring,
    g2: &Graph,
    pi2: &Coloring,
    v: V,
    image: &mut Vec<V>,
    used: &mut Vec<bool>,
) -> bool {
    if v == g1.vertices().end {
        return true;
    }
    for w in g2.vertices() {
        if used[w as usize] || pi1.color_of(v) != pi2.color_of(w) || g1.degree(v) != g2.degree(w) {
            continue;
        }
        let ok = (0..v).all(|u| g1.has_edge(u, v) == g2.has_edge(image[u as usize], w));
        if !ok {
            continue;
        }
        image[v as usize] = w;
        used[w as usize] = true;
        if iso_backtrack(g1, pi1, g2, pi2, v + 1, image, used) {
            return true;
        }
        used[w as usize] = false;
        image[v as usize] = V::MAX;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    #[test]
    fn known_automorphism_counts() {
        let unit = |g: &Graph| Coloring::unit(g.n());
        let cases: Vec<(Graph, u64)> = vec![
            (named::complete(4), 24),
            (named::cycle(5), 10),
            (named::cycle(6), 12),
            (named::path(4), 2),
            (named::star(4), 24),
            (named::complete_bipartite(2, 3), 12),
            (named::petersen(), 120),
            (named::hypercube(3), 48),
            (named::fig1_example(), 48),
        ];
        for (g, expected) in cases {
            let pi = unit(&g);
            assert_eq!(automorphism_count(&g, &pi), expected, "{g:?}");
        }
    }

    #[test]
    fn frucht_graph_is_asymmetric() {
        let g = named::frucht();
        assert_eq!(automorphism_count(&g, &Coloring::unit(12)), 1);
    }

    #[test]
    fn coloring_restricts_the_group() {
        // C4 has |Aut| = 8; fixing one vertex's color leaves only the
        // reflection through it: order 2.
        let g = named::cycle(4);
        let pi = Coloring::from_cells(vec![vec![1, 2, 3], vec![0]]).unwrap();
        assert_eq!(automorphism_count(&g, &pi), 2);
    }

    #[test]
    fn brute_canon_separates_non_isomorphic() {
        let pi4 = Coloring::unit(4);
        let c4 = min_canon_form(&named::cycle(4), &pi4);
        let p4 = min_canon_form(&named::path(4), &pi4);
        assert_ne!(c4, p4);
    }

    #[test]
    fn brute_canon_equal_for_isomorphic() {
        let g = named::cycle(5);
        let gamma = Perm::from_cycles(5, &[&[0, 3, 1], &[2, 4]]).unwrap();
        let h = g.permuted(&gamma);
        let pi = Coloring::unit(5);
        assert_eq!(min_canon_form(&g, &pi), min_canon_form(&h, &pi));
    }

    #[test]
    fn iso_oracle() {
        let g = named::petersen();
        let gamma = Perm::from_cycles(10, &[&[0, 7, 3], &[1, 9]]).unwrap();
        let pi = Coloring::unit(10);
        assert!(isomorphic(&g, &pi, &g.permuted(&gamma), &pi));
        assert!(!isomorphic(
            &named::cycle(6),
            &Coloring::unit(6),
            &named::complete_bipartite(3, 3),
            &Coloring::unit(6)
        ));
    }

    #[test]
    fn automorphisms_agree_with_schreier_sims() {
        let g = named::fig1_example();
        let pi = Coloring::unit(8);
        let gens = automorphisms(&g, &pi);
        let chain =
            crate::StabChain::try_new(8, &gens, &dvicl_govern::Budget::unlimited()).unwrap();
        assert_eq!(chain.order().to_u64(), Some(gens.len() as u64));
    }
}
