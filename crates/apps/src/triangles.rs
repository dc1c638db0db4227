//! Triangle listing in degree order (the classic compact-forward scheme):
//! each triangle is reported exactly once.

use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Graph, V};
use dvicl_obs::Phase;

/// Lists up to `limit` triangles as ascending triples, spending one work
/// unit per oriented edge whose out-neighborhoods are intersected.
pub fn try_list_triangles(
    g: &Graph,
    limit: usize,
    budget: &Budget,
) -> Result<Vec<[V; 3]>, DviclError> {
    let mut out = Vec::new();
    try_for_each_triangle(g, budget, |a, b, c| {
        out.push([a, b, c]);
        out.len() < limit
    })?;
    Ok(out)
}

/// Visits each triangle `(a < b < c)` once; the callback returns `false`
/// to stop early. Spends one work unit per oriented edge `(u, v)` before
/// intersecting the two out-neighborhoods — the unit of work that
/// dominates compact-forward's runtime.
pub fn try_for_each_triangle(
    g: &Graph,
    budget: &Budget,
    mut f: impl FnMut(V, V, V) -> bool,
) -> Result<(), DviclError> {
    let _span = dvicl_obs::span(Phase::AppsTriangles);
    budget.check()?;
    let n = g.n();
    // Rank by (degree, id): orienting edges toward higher rank makes every
    // vertex's out-neighborhood small (O(sqrt(m)) amortized).
    let mut rank: Vec<u32> = vec![0; n];
    let mut by_deg: Vec<V> = g.vertices().collect();
    by_deg.sort_unstable_by_key(|&v| (g.degree(v), v));
    for (r, &v) in (0..).zip(&by_deg) {
        rank[v as usize] = r;
    }
    let higher = |u: V, v: V| rank[v as usize] > rank[u as usize];
    // out[u] = neighbors with higher rank, sorted by vertex id.
    let out: Vec<Vec<V>> = g
        .vertices()
        .map(|u| {
            g.neighbors(u)
                .iter()
                .copied()
                .filter(|&w| higher(u, w))
                .collect()
        })
        .collect();
    for u in g.vertices() {
        let ou = &out[u as usize];
        for &v in ou {
            budget.spend(1)?;
            let ov = &out[v as usize];
            // Intersect out[u] ∩ out[v] (both sorted by id).
            let (mut i, mut j) = (0, 0);
            while i < ou.len() && j < ov.len() {
                match ou[i].cmp(&ov[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = ou[i];
                        let mut t = [u, v, w];
                        t.sort_unstable();
                        if !f(t[0], t[1], t[2]) {
                            return Ok(());
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    fn list_triangles(g: &Graph, limit: usize) -> Vec<[V; 3]> {
        try_list_triangles(g, limit, &Budget::unlimited()).expect("unlimited listing cannot fail")
    }

    fn count_triangles(g: &Graph) -> usize {
        list_triangles(g, usize::MAX).len()
    }

    #[test]
    fn counts() {
        assert_eq!(count_triangles(&named::complete(5)), 10);
        assert_eq!(count_triangles(&named::cycle(3)), 1);
        assert_eq!(count_triangles(&named::cycle(5)), 0);
        assert_eq!(count_triangles(&named::petersen()), 0);
        assert_eq!(count_triangles(&named::complete_bipartite(3, 3)), 0);
        // Fig. 1(a): triangle {4,5,6} + three {i, i+, 7} from it + the
        // 4-cycle vertices with the hub: each cycle edge + 7 = 4 more.
        // Triangles: {4,5,6}, {4,5,7}, {4,6,7}, {5,6,7}, {0,1,7}, {1,2,7},
        // {2,3,7}, {0,3,7} = 8.
        assert_eq!(count_triangles(&named::fig1_example()), 8);
    }

    #[test]
    fn listing_is_unique_and_ascending() {
        let g = named::fig1_example();
        let list = list_triangles(&g, usize::MAX);
        let mut sorted = list.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), list.len());
        for [a, b, c] in list {
            assert!(a < b && b < c);
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
        }
    }

    #[test]
    fn limit_stops_early() {
        let g = named::complete(10); // 120 triangles
        assert_eq!(list_triangles(&g, 7).len(), 7);
    }

    #[test]
    fn work_budget_aborts_listing() {
        let g = named::complete(10); // 45 edges to orient
        let err = try_list_triangles(&g, usize::MAX, &Budget::with_max_work(4)).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert_eq!(err.exit_code(), 3);
        let all = try_list_triangles(&g, usize::MAX, &Budget::with_max_work(1_000_000)).unwrap();
        assert_eq!(all.len(), 120);
    }
}
