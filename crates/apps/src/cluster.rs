//! Subgraph clustering by symmetry (Table 7): given a family of vertex
//! sets (all maximum cliques, all triangles, …), group them into clusters
//! of mutually symmetric sets using AutoTree keys — two sets land in one
//! cluster iff some automorphism of `G` maps one onto the other.

use dvicl_core::ssm::{try_symmetric_key, SsmIndex};
use dvicl_core::AutoTree;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::V;
use dvicl_obs::Phase;
use rustc_hash::FxHashMap;

/// Result of clustering a family of vertex sets by symmetry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// Number of sets clustered.
    pub total: usize,
    /// Number of symmetry classes.
    pub clusters: usize,
    /// Size of the largest class.
    pub max_cluster: usize,
}

/// Clusters `sets` by their AutoTree symmetry keys. Each set's key
/// computation draws from the shared budget (one unit per AutoTree node
/// visited), so a huge family on a deep tree aborts with a typed error
/// instead of running away.
pub fn try_cluster_by_symmetry<S: AsRef<[V]>>(
    tree: &AutoTree,
    index: &SsmIndex,
    sets: impl IntoIterator<Item = S>,
    budget: &Budget,
) -> Result<Clustering, DviclError> {
    let _span = dvicl_obs::span(Phase::AppsCluster);
    budget.check()?;
    let mut by_key: FxHashMap<Vec<u8>, usize> = FxHashMap::default();
    let mut total = 0usize;
    for set in sets {
        total += 1;
        *by_key
            .entry(try_symmetric_key(tree, index, set.as_ref(), budget)?)
            .or_default() += 1;
    }
    Ok(Clustering {
        total,
        clusters: by_key.len(),
        max_cluster: by_key.values().copied().max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::try_list_triangles;
    use dvicl_core::Session;
    use dvicl_graph::{named, Coloring, Graph};

    fn list_triangles(g: &Graph) -> Vec<[V; 3]> {
        try_list_triangles(g, usize::MAX, &Budget::unlimited())
            .expect("unlimited listing cannot fail")
    }

    fn cluster_by_symmetry<S: AsRef<[V]>>(
        tree: &AutoTree,
        index: &SsmIndex,
        sets: impl IntoIterator<Item = S>,
    ) -> Clustering {
        try_cluster_by_symmetry(tree, index, sets, &Budget::unlimited()).expect("valid query sets")
    }

    fn setup(g: &Graph) -> (AutoTree, SsmIndex) {
        // Session-built trees are byte-identical to one-shot builds, so
        // everything downstream (keys, clusters) is unchanged.
        let t = Session::default().build(g, &Coloring::unit(g.n()));
        let i = SsmIndex::new(&t);
        (t, i)
    }

    #[test]
    fn fig1_triangles_form_two_clusters() {
        // 8 triangles: 4 involve the K3 {4,5,6} side ({4,5,6} itself and
        // three edge+hub ones), 4 are cycle-edge+hub. Symmetry classes:
        // {4,5,6}; the three triangle-edge+hub; the four cycle-edge+hub.
        let g = named::fig1_example();
        let (t, i) = setup(&g);
        let tris = list_triangles(&g);
        let c = cluster_by_symmetry(&t, &i, tris.iter().map(|t| t.as_slice()));
        assert_eq!(c.total, 8);
        assert_eq!(c.clusters, 3);
        assert_eq!(c.max_cluster, 4);
    }

    #[test]
    fn complete_graph_triangles_are_one_cluster() {
        let g = named::complete(6);
        let (t, i) = setup(&g);
        let tris = list_triangles(&g);
        let c = cluster_by_symmetry(&t, &i, tris.iter().map(|t| t.as_slice()));
        assert_eq!(c.total, 20);
        assert_eq!(c.clusters, 1);
        assert_eq!(c.max_cluster, 20);
    }

    #[test]
    fn rigid_graph_every_set_is_its_own_cluster() {
        let g = named::frucht();
        let (t, i) = setup(&g);
        // All edges of the Frucht graph: rigid, so 18 clusters of 1.
        let edges: Vec<Vec<dvicl_graph::V>> = g.edges().map(|(a, b)| vec![a, b]).collect();
        let c = cluster_by_symmetry(&t, &i, edges);
        assert_eq!(c.total, 18);
        assert_eq!(c.clusters, 18);
        assert_eq!(c.max_cluster, 1);
    }

    #[test]
    fn budget_aborts_clustering_mid_family() {
        let g = named::fig1_example();
        let (t, i) = setup(&g);
        let tris = list_triangles(&g);
        let err = try_cluster_by_symmetry(
            &t,
            &i,
            tris.iter().map(|t| t.as_slice()),
            &Budget::with_max_work(2),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        // With room to breathe the result matches the unlimited run.
        let ok = try_cluster_by_symmetry(
            &t,
            &i,
            tris.iter().map(|t| t.as_slice()),
            &Budget::with_max_work(1_000_000),
        )
        .unwrap();
        assert_eq!(
            ok,
            cluster_by_symmetry(&t, &i, tris.iter().map(|t| t.as_slice()))
        );
    }

    #[test]
    fn empty_family() {
        let g = named::cycle(5);
        let (t, i) = setup(&g);
        let c = cluster_by_symmetry(&t, &i, Vec::<Vec<dvicl_graph::V>>::new());
        assert_eq!(c.total, 0);
        assert_eq!(c.clusters, 0);
        assert_eq!(c.max_cluster, 0);
    }
}
