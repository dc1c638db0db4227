//! Structural-equivalence simplification (Section 6.1).
//!
//! Vertices with identical neighbor sets (`N(u) = N(v)`, the paper's
//! *structural equivalence*; such vertices are necessarily non-adjacent and
//! automorphic) are collapsed to one representative before running DviCL.
//! The original graph is exactly the "blow-up" of the simplified graph by
//! the class sizes, so the pair *(certificate of the simplified colored
//! graph, class sizes in canonical order)* is a valid certificate of the
//! original graph — see [`SimplifiedCertificate`]. This is the optimization
//! that makes twin-heavy graphs (the paper's WikiTalk, Youtube, …) cheap.
//!
//! Note the paper's caveat (Fig. 4 vs Fig. 8): different DviCL variants
//! produce *different* canonical labelings; certificates from the
//! simplified path are only comparable with other simplified-path
//! certificates.

use crate::aut;
use crate::build::{try_build_autotree, DviclOptions};
use crate::tree::AutoTree;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{as_vertex, CanonForm, Coloring, Graph, V};
use dvicl_group::BigUint;
use rustc_hash::FxHashMap;

/// The structural-equivalence (false twin) classes of a colored graph.
#[derive(Clone, Debug)]
pub struct TwinClasses {
    /// Class representative (the minimum member) per vertex.
    pub rep_of: Vec<V>,
    /// The classes with at least two members, each ascending, ordered by
    /// representative.
    pub non_singleton: Vec<Vec<V>>,
}

/// Groups vertices by `(color, N(v))`. Two vertices are twins iff they
/// share the user color and the exact neighbor set.
// dvicl-lint: allow(budget-reachability) -- unmetered O(n + m) hashing pass, with a pairwise check inside each hash bucket, before try_build_autotree meters the build of G_s
pub fn twin_classes(g: &Graph, pi0: &Coloring) -> TwinClasses {
    let mut buckets: FxHashMap<u64, Vec<V>> = FxHashMap::default();
    for v in g.vertices() {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ pi0.color_of(v) as u64;
        for &w in g.neighbors(v) {
            h = (h ^ w as u64).wrapping_mul(0x1000_0000_01b3);
        }
        buckets.entry(h).or_default().push(v);
    }
    let mut rep_of: Vec<V> = g.vertices().collect();
    let mut non_singleton: Vec<Vec<V>> = Vec::new();
    for (_, bucket) in buckets {
        if bucket.len() < 2 {
            continue;
        }
        // Verify exactly within the bucket (hash collisions possible).
        let mut groups: Vec<Vec<V>> = Vec::new();
        'outer: for &v in &bucket {
            for grp in &mut groups {
                let r = grp[0];
                if pi0.color_of(r) == pi0.color_of(v) && g.neighbors(r) == g.neighbors(v) {
                    grp.push(v);
                    continue 'outer;
                }
            }
            groups.push(vec![v]);
        }
        for mut grp in groups {
            if grp.len() < 2 {
                continue;
            }
            grp.sort_unstable();
            for &v in &grp {
                rep_of[v as usize] = grp[0];
            }
            non_singleton.push(grp);
        }
    }
    non_singleton.sort();
    TwinClasses {
        rep_of,
        non_singleton,
    }
}

/// A certificate of `G` produced through the simplified path: the
/// certificate of the collapsed colored graph plus the twin-class sizes in
/// canonical-label order. Two graphs are isomorphic iff their simplified
/// certificates are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimplifiedCertificate {
    /// Certificate of `(G_s, π_s)` where `π_s` folds user colors and class
    /// sizes together.
    pub form: CanonForm,
    /// `multiplicities[p]` = twin-class size of the representative whose
    /// canonical label is `p`.
    pub multiplicities: Vec<u32>,
}

/// The full output of the simplified DviCL run.
pub struct SimplifiedDvicl {
    /// The AutoTree of the *simplified* graph (its vertex ids are
    /// `reps[i]`-indexed locals, not original ids).
    pub tree: AutoTree,
    /// Original vertex id of each simplified vertex.
    pub reps: Vec<V>,
    /// Class size per simplified vertex.
    pub class_size: Vec<u32>,
    /// The certificate of the original graph.
    pub certificate: SimplifiedCertificate,
    /// The twin classes that were collapsed.
    pub twins: TwinClasses,
}

/// Runs DviCL through the structural-equivalence optimization. `budget`
/// governs the build of the simplified graph, as in
/// [`crate::try_build_autotree`].
pub fn try_dvicl_simplified(
    g: &Graph,
    pi0: &Coloring,
    opts: &DviclOptions,
    budget: &Budget,
) -> Result<SimplifiedDvicl, DviclError> {
    let twins = twin_classes(g, pi0);
    dvicl_obs::add(
        dvicl_obs::Counter::TwinClassesCollapsed,
        twins.non_singleton.len() as u64,
    );
    // Representatives, ascending; class size per rep.
    let reps: Vec<V> = g
        .vertices()
        .filter(|&v| twins.rep_of[v as usize] == v)
        .collect();
    let mut size_of_rep: FxHashMap<V, u32> = reps.iter().map(|&r| (r, 1)).collect();
    for class in &twins.non_singleton {
        size_of_rep.insert(class[0], as_vertex(class.len()));
    }
    let class_size: Vec<u32> = reps.iter().map(|&r| size_of_rep[&r]).collect();
    let gs = g.induced(&reps);
    // Fold (user color, class size) into the initial coloring of G_s.
    let mut pairs: Vec<(V, u32)> = reps
        .iter()
        .zip(&class_size)
        .map(|(&r, &s)| (pi0.color_of(r), s))
        .collect();
    let mut sorted = pairs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let rank: FxHashMap<(V, u32), V> = (0..).zip(&sorted).map(|(i, &p)| (p, i)).collect();
    let labels: Vec<V> = pairs.drain(..).map(|p| rank[&p]).collect();
    let pis = Coloring::from_labels(&labels);
    let tree = try_build_autotree(&gs, &pis, opts, budget)?;
    // Multiplicities in canonical-label order.
    let labeling = tree.canonical_labeling();
    let mut multiplicities = vec![0u32; reps.len()];
    for (local, &s) in (0..).zip(&class_size) {
        multiplicities[labeling.apply(local) as usize] = s;
    }
    let certificate = SimplifiedCertificate {
        form: tree.canonical_form().to_form(),
        multiplicities,
    };
    Ok(SimplifiedDvicl {
        tree,
        reps,
        class_size,
        certificate,
        twins,
    })
}

impl SimplifiedDvicl {
    /// `|Aut(G, π)|` of the original graph:
    /// `|Aut(G_s, π_s)| · ∏ (class size)!`, where the first factor is
    /// [`aut::try_group_order`] under `budget`.
    pub fn try_original_group_order(&self, budget: &Budget) -> Result<BigUint, DviclError> {
        let mut acc = aut::try_group_order(&self.tree, budget)?;
        for class in &self.twins.non_singleton {
            acc *= &BigUint::factorial(class.len() as u64);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::{named, Perm};
    use dvicl_group::brute;

    fn simplified(g: &Graph) -> SimplifiedDvicl {
        let opts = DviclOptions::default();
        try_dvicl_simplified(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
            .expect("unlimited build cannot fail")
    }

    #[test]
    fn fig1_twins_match_paper_fig7() {
        // Section 6.1: the non-singleton classes of Fig. 1(a) are {0,2}
        // and {1,3}; the simplified graph G_s drops vertices 2 and 3.
        let g = named::fig1_example();
        let twins = twin_classes(&g, &Coloring::unit(8));
        assert_eq!(twins.non_singleton, vec![vec![0, 2], vec![1, 3]]);
        let s = simplified(&g);
        assert_eq!(s.reps.len(), 6);
        assert!(!s.reps.contains(&2));
        assert!(!s.reps.contains(&3));
    }

    #[test]
    fn certificate_invariant_under_relabeling() {
        for g in [
            named::fig1_example(),
            named::star(7),
            named::rary_tree(3, 2),
            named::fig3_example(),
        ] {
            let n = g.n();
            let c1 = simplified(&g).certificate;
            let gamma =
                Perm::from_cycles(n, &[&[0, as_vertex(n - 1)], &[1, as_vertex(n / 2)]]).unwrap();
            let c2 = simplified(&g.permuted(&gamma)).certificate;
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn multiplicities_distinguish_blowups() {
        // star(2) and star(3) both simplify to K2; only the class sizes
        // tell them apart.
        let c2 = simplified(&named::star(2)).certificate;
        let c3 = simplified(&named::star(3)).certificate;
        assert_eq!(c2.form, c3.form);
        assert_ne!(c2, c3);
    }

    #[test]
    fn group_orders_match_brute_force() {
        for g in [
            named::fig1_example(), // 48
            named::star(5),        // 120
            named::complete_bipartite(2, 3),
            named::rary_tree(2, 2),
            named::path(4), // no twins at all
        ] {
            let pi = Coloring::unit(g.n());
            let expected = brute::automorphism_count(&g, &pi);
            let s = simplified(&g);
            let order = s.try_original_group_order(&Budget::unlimited()).unwrap();
            assert_eq!(order.to_u64(), Some(expected), "{g:?}");
        }
    }

    #[test]
    fn twinless_graph_is_unchanged() {
        let g = named::petersen();
        let s = simplified(&g);
        assert_eq!(s.reps.len(), 10);
        assert!(s.twins.non_singleton.is_empty());
        assert_eq!(s.class_size, vec![1; 10]);
    }

    #[test]
    fn respects_user_colors() {
        // Two star leaves with different colors are NOT twins.
        let g = named::star(2);
        let pi = Coloring::from_cells(vec![vec![0, 1], vec![2]]).unwrap();
        let twins = twin_classes(&g, &pi);
        assert!(twins.non_singleton.is_empty());
    }
}
