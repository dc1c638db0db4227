//! A VF2-style induced subgraph isomorphism enumerator — the `SM`
//! subroutine of Algorithm 6 and the baseline the paper compares SSM-AT
//! against (Section 6.4 lists its drawbacks: unbounded time, candidate
//! over-generation, non-trivial symmetry verification).

use crate::ssm::{try_symmetric_key, SsmIndex};
use crate::tree::AutoTree;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Graph, V};
use rustc_hash::FxHashSet;

/// All induced subgraph isomorphisms from `q` into `g`, as image vertex
/// *sets* (deduplicated — two matchings onto the same vertex set count
/// once, matching SSM semantics), up to `limit` results.
#[expect(
    clippy::expect_used,
    reason = "Budget::unlimited() never exhausts, so the Err arm is unreachable"
)]
pub fn enumerate_induced(g: &Graph, q: &Graph, limit: usize) -> Vec<Vec<V>> {
    try_enumerate_induced(g, q, limit, &Budget::unlimited())
        .expect("unlimited SM enumeration cannot exceed its budget")
}

/// Budgeted [`enumerate_induced`]: spends one work unit per VF2 search
/// node and aborts with a typed error on exhaustion or cancellation. VF2
/// is the paper's worst-case-unbounded baseline, which is exactly where a
/// deadline matters most.
pub fn try_enumerate_induced(
    g: &Graph,
    q: &Graph,
    limit: usize,
    budget: &Budget,
) -> Result<Vec<Vec<V>>, DviclError> {
    budget.check()?;
    let mut out: FxHashSet<Vec<V>> = FxHashSet::default();
    if q.n() == 0 || q.n() > g.n() {
        return Ok(Vec::new());
    }
    // Match query vertices in descending-degree order (classic VF2-ish
    // candidate reduction).
    let mut order: Vec<V> = (0..q.n() as V).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(q.degree(v)));
    // Prefer orders that keep the matched part connected.
    let order = connectivity_order(q, &order);
    let mut image = vec![V::MAX; q.n()];
    let mut used = vec![false; g.n()];
    sm_rec(g, q, &order, 0, &mut image, &mut used, &mut out, limit, budget)?;
    let mut v: Vec<Vec<V>> = out.into_iter().collect();
    v.sort();
    Ok(v)
}

/// Reorders so each vertex (after the first) is adjacent to an earlier one
/// when possible.
// dvicl-lint: allow(budget-reachability) -- O(|q| + |E(q)|) query setup; sm_rec meters the matcher that follows
fn connectivity_order(q: &Graph, pref: &[V]) -> Vec<V> {
    let mut order = Vec::with_capacity(pref.len());
    let mut placed = vec![false; q.n()];
    for &seed in pref {
        if placed[seed as usize] {
            continue;
        }
        order.push(seed);
        placed[seed as usize] = true;
        loop {
            // Highest-preference unplaced vertex adjacent to placed ones.
            let next = pref.iter().copied().find(|&v| {
                !placed[v as usize] && q.neighbors(v).iter().any(|&w| placed[w as usize])
            });
            match next {
                Some(v) => {
                    order.push(v);
                    placed[v as usize] = true;
                }
                None => break,
            }
        }
    }
    order
}

#[allow(clippy::too_many_arguments)]
fn sm_rec(
    g: &Graph,
    q: &Graph,
    order: &[V],
    k: usize,
    image: &mut Vec<V>,
    used: &mut Vec<bool>,
    out: &mut FxHashSet<Vec<V>>,
    limit: usize,
    budget: &Budget,
) -> Result<(), DviclError> {
    budget.spend(1)?;
    if out.len() >= limit {
        return Ok(());
    }
    if k == order.len() {
        let mut set: Vec<V> = image.to_vec();
        set.sort_unstable();
        out.insert(set);
        return Ok(());
    }
    let qv = order[k];
    // Candidates: neighbors of an already-matched neighbor when one
    // exists, otherwise all vertices. Iterated straight off the CSR row
    // (or the index range) — no per-search-node candidate `Vec`.
    let anchor = q.neighbors(qv).iter().find_map(|&w| {
        let img = image[w as usize];
        (img != V::MAX).then_some(img)
    });
    match anchor {
        Some(a) => {
            for &w in g.neighbors(a) {
                sm_try(g, q, order, k, w, image, used, out, limit, budget)?;
            }
        }
        None => {
            // dvicl-lint: allow(narrowing-cast) -- g.n() <= V::MAX by Graph's construction invariant
            for w in 0..g.n() as V {
                sm_try(g, q, order, k, w, image, used, out, limit, budget)?;
            }
        }
    }
    Ok(())
}

/// Tries `w` as the image of `order[k]` and recurses on consistency.
#[allow(clippy::too_many_arguments)]
fn sm_try(
    g: &Graph,
    q: &Graph,
    order: &[V],
    k: usize,
    w: V,
    image: &mut Vec<V>,
    used: &mut Vec<bool>,
    out: &mut FxHashSet<Vec<V>>,
    limit: usize,
    budget: &Budget,
) -> Result<(), DviclError> {
    let qv = order[k];
    if used[w as usize] || g.degree(w) < q.degree(qv) {
        return Ok(());
    }
    // Induced consistency with every matched query vertex.
    let ok = order[..k].iter().all(|&u| {
        let gu = image[u as usize];
        q.has_edge(u, qv) == g.has_edge(gu, w)
    });
    if !ok {
        return Ok(());
    }
    image[qv as usize] = w;
    used[w as usize] = true;
    sm_rec(g, q, order, k + 1, image, used, out, limit, budget)?;
    used[w as usize] = false;
    image[qv as usize] = V::MAX;
    Ok(())
}

/// The SSM baseline of Section 6.4: enumerate induced matches of
/// `G[query]` with `SM`, then keep only the truly *symmetric* ones by
/// comparing AutoTree keys. Returns the verified matches.
#[expect(
    clippy::panic,
    reason = "with an unlimited budget only an invalid query set can reach the Err arm of this convenience wrapper"
)]
pub fn ssm_via_sm(
    g: &Graph,
    tree: &AutoTree,
    index: &SsmIndex,
    query: &[V],
    limit: usize,
) -> Vec<Vec<V>> {
    try_ssm_via_sm(g, tree, index, query, limit, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("SSM-via-SM query failed: {e}"))
}

/// Budgeted [`ssm_via_sm`]: one budget governs both the VF2 enumeration
/// and the per-match symmetry verification.
pub fn try_ssm_via_sm(
    g: &Graph,
    tree: &AutoTree,
    index: &SsmIndex,
    query: &[V],
    limit: usize,
    budget: &Budget,
) -> Result<Vec<Vec<V>>, DviclError> {
    let mut q_sorted: Vec<V> = query.to_vec();
    q_sorted.sort_unstable();
    let q_graph = g.induced(&q_sorted);
    let key = try_symmetric_key(tree, index, &q_sorted, budget)?;
    let mut out = Vec::new();
    for m in try_enumerate_induced(g, &q_graph, limit, budget)? {
        if try_symmetric_key(tree, index, &m, budget)? == key {
            out.push(m);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_autotree, DviclOptions};
    use dvicl_graph::{named, Coloring};

    #[test]
    fn triangle_matches_in_k4() {
        let g = named::complete(4);
        let q = named::complete(3);
        let m = enumerate_induced(&g, &q, 1000);
        assert_eq!(m.len(), 4); // C(4,3) triangles
    }

    #[test]
    fn path_matches_in_cycle() {
        let g = named::cycle(5);
        let q = named::path(3);
        // Induced P3s in C5: one per center vertex = 5.
        let m = enumerate_induced(&g, &q, 1000);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn no_induced_triangle_in_bipartite() {
        let g = named::complete_bipartite(3, 3);
        assert!(enumerate_induced(&g, &named::complete(3), 10).is_empty());
    }

    #[test]
    fn limit_respected() {
        let g = named::complete(8);
        let m = enumerate_induced(&g, &named::complete(3), 5);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn disconnected_query() {
        // Two isolated vertices as query in P3: induced non-adjacent pairs.
        let g = named::path(3); // 0-1-2: non-adjacent pairs: {0,2}
        let q = dvicl_graph::Graph::empty(2);
        let m = enumerate_induced(&g, &q, 100);
        assert_eq!(m, vec![vec![0, 2]]);
    }

    #[test]
    fn sm_baseline_agrees_with_ssm_at() {
        let g = named::fig1_example();
        let t = build_autotree(&g, &Coloring::unit(8), &DviclOptions::default());
        let i = SsmIndex::new(&t);
        // Query: an edge of the 4-cycle. Isomorphic matches include
        // triangle edges, but only cycle edges are symmetric.
        let via_sm = ssm_via_sm(&g, &t, &i, &[0, 1], 10_000);
        let via_at = crate::ssm::enumerate_images(&t, &i, &[0, 1], 10_000);
        let mut a = via_sm;
        let mut b = via_at.matches;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        // SM alone over-generates (triangle edges and hub edges are
        // isomorphic to an edge, but not symmetric to a cycle edge).
        let raw = enumerate_induced(&g, &g.induced(&[0, 1]), 10_000);
        assert!(raw.len() > a.len());
    }

    #[test]
    fn work_budget_aborts_vf2() {
        use dvicl_govern::Resource;
        let g = named::complete(8);
        let q = named::complete(3);
        let err = try_enumerate_induced(&g, &q, 10_000, &Budget::with_max_work(3)).unwrap_err();
        assert!(matches!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            }
        ));
        // The same search under an ample budget still succeeds.
        let ok = try_enumerate_induced(&g, &q, 10_000, &Budget::with_max_work(1_000_000));
        assert_eq!(ok.unwrap().len(), 56);
    }
}
