//! Canonical forms: the totally ordered certificates `(G, π)^γ`.

use crate::{Graph, V};

/// The certificate of a relabeled colored graph `(G, π)^γ`.
///
/// The paper represents `(G, π)^γ` as a sorted edge list over a totally
/// ordered set. We additionally record the multiset of colors (as sorted
/// `(color, count)` runs) so that certificates of *colored sub*graphs — as
/// used by the AutoTree, where labels are global color offsets and therefore
/// sparse — compare correctly: two forms are equal iff the subgraphs are
/// isomorphic as colored graphs under the labeling that produced them.
///
/// Forms order lexicographically: first by the color runs, then by the edge
/// list. `Ord` gives the total order the search algorithms minimize over.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonForm {
    /// Sorted `(color, multiplicity)` runs of the vertex color multiset.
    pub colors: Vec<(V, V)>,
    /// Sorted relabeled edges `(γ(u), γ(v))` with first < second.
    pub edges: Vec<(V, V)>,
}

impl CanonForm {
    /// Builds the certificate of `g` whose vertex `v` carries color
    /// `color[v]` and canonical label `label[v]`. Labels must be pairwise
    /// distinct (they need not be contiguous).
    pub fn new(g: &Graph, colors: &[V], labels: &[V]) -> Self {
        assert_eq!(g.n(), colors.len());
        assert_eq!(g.n(), labels.len());
        let mut color_runs: Vec<V> = colors.to_vec();
        color_runs.sort_unstable();
        let mut runs: Vec<(V, V)> = Vec::new();
        for c in color_runs {
            match runs.last_mut() {
                Some((rc, cnt)) if *rc == c => *cnt += 1,
                _ => runs.push((c, 1)),
            }
        }
        let mut edges: Vec<(V, V)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (labels[u as usize], labels[v as usize]);
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        edges.sort_unstable();
        debug_assert!(
            edges.windows(2).all(|w| w[0] != w[1]),
            "labels not distinct"
        );
        CanonForm {
            colors: runs,
            edges,
        }
    }

    /// Number of edges in the form.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// A borrowed view of this form — the exchange type for storage that
    /// keeps many forms in shared pools (the AutoTree in `dvicl-core`).
    pub fn view(&self) -> FormRef<'_> {
        FormRef {
            colors: &self.colors,
            edges: &self.edges,
        }
    }
}

/// A borrowed certificate: [`CanonForm`] with the two payload vectors
/// replaced by slices.
///
/// Pooled form storage (one `(start, len)` range per node into shared
/// arrays) hands out `FormRef`s instead of `&CanonForm`; the derived
/// `Ord` is the same lexicographic (colors, then edges) total order as
/// `CanonForm`'s, since a `Vec` and a slice compare identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormRef<'a> {
    /// Sorted `(color, multiplicity)` runs of the vertex color multiset.
    pub colors: &'a [(V, V)],
    /// Sorted relabeled edges `(γ(u), γ(v))` with first < second.
    pub edges: &'a [(V, V)],
}

impl FormRef<'_> {
    /// Materializes an owned [`CanonForm`].
    pub fn to_form(&self) -> CanonForm {
        CanonForm {
            colors: self.colors.to_vec(),
            edges: self.edges.to_vec(),
        }
    }

    /// Number of edges in the form.
    pub fn m(&self) -> usize {
        self.edges.len()
    }
}

impl PartialEq<CanonForm> for FormRef<'_> {
    fn eq(&self, other: &CanonForm) -> bool {
        *self == other.view()
    }
}

impl PartialEq<FormRef<'_>> for CanonForm {
    fn eq(&self, other: &FormRef<'_>) -> bool {
        self.view() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;
    use crate::Perm;

    #[test]
    fn isomorphic_labelings_give_equal_forms() {
        let g = named::cycle(5);
        let id: Vec<V> = (0..5).collect();
        let f1 = CanonForm::new(&g, &[0; 5], &id);
        // Relabel the cycle by rotation: the rotated graph with the rotated
        // labeling describes the same abstract colored graph.
        let rot = Perm::from_cycles(5, &[&[0, 1, 2, 3, 4]]).unwrap();
        let g2 = g.permuted(&rot);
        // labels2[v] = position of v in the canonical order chosen for g2;
        // choosing labels2 = rot⁻¹ maps g2 back onto g's edge list.
        let labels2: Vec<V> = (0..5).map(|v| rot.inverse().apply(v)).collect();
        let f2 = CanonForm::new(&g2, &[0; 5], &labels2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_graphs_differ() {
        let id: Vec<V> = (0..4).collect();
        let c4 = CanonForm::new(&named::cycle(4), &[0; 4], &id);
        let p4 = CanonForm::new(&named::path(4), &[0; 4], &id);
        assert_ne!(c4, p4);
    }

    #[test]
    fn color_runs_participate_in_order() {
        let g = Graph::from_edges(2, &[]);
        let f1 = CanonForm::new(&g, &[0, 0], &[0, 1]);
        let f2 = CanonForm::new(&g, &[0, 1], &[0, 1]);
        assert_ne!(f1, f2);
        // (0,2) run sorts after the (0,1),(1,1) runs lexicographically.
        assert!(f2 < f1);
    }

    #[test]
    fn sparse_labels_allowed() {
        let g = named::path(3);
        let f = CanonForm::new(&g, &[0, 0, 0], &[10, 50, 90]);
        assert_eq!(f.edges, vec![(10, 50), (50, 90)]);
        assert_eq!(f.colors, vec![(0, 3)]);
    }
}
