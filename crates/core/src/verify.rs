//! Witness checking: cheap runtime proofs that DviCL's outputs are
//! what they claim to be.
//!
//! Every answer the pipeline emits is backed by an explicit witness —
//! the root canonical labeling, the leaf automorphism generators, the
//! composed isomorphism mapping — and each witness can be checked
//! against the *input graph* in near-linear time, independently of the
//! exponential search that produced it:
//!
//! * [`verify_tree`] re-derives the root certificate from the labeling
//!   witness (`C(G, π) = (G, π)^{γ}` must reproduce the stored form
//!   edge-for-edge) and checks every emitted leaf generator is a true
//!   color- and adjacency-preserving automorphism of its subgraph.
//! * [`verify_iso`] checks a claimed mapping `γ` actually satisfies
//!   `g1^γ = g2`.
//!
//! A build that runs out of budget returns a typed error, not a tree,
//! so there is no partial result to check.
//!
//! A failed check is [`DviclError::WitnessFailure`] (CLI exit code 4):
//! always a pipeline bug, never a property of the input. Checks and
//! failures are counted through the `verify_checks` / `verify_failures`
//! obs counters; the CLI and bench `--paranoid` flags run these after
//! every build. See DESIGN.md §11.
//!
//! Soundness note for generators: a non-singleton leaf's working
//! subgraph may have had edges deleted by `DivideS` on an ancestor, but
//! those deletions only remove edges inside fully-joined color-cell
//! pairs (cliques / complete bicliques, Theorem 6.4). A color-preserving
//! bijection maps every such pair onto itself and a full join is
//! preserved by any bijection of its sides, so a generator of the
//! worked subgraph is an automorphism of the *induced* subgraph too —
//! which is what these checks test, directly against `G`.

use crate::tree::{AutoTree, NodeKind};
use dvicl_govern::DviclError;
use dvicl_graph::{CanonForm, Graph, Perm, V};
use dvicl_obs::{self as obs, Counter, Phase};

/// Bumps the failure counter and builds the typed error. `#[cold]`: the
/// verifier's hot path is the all-checks-pass path.
#[cold]
#[inline(never)]
fn fail(stage: &'static str, detail: String) -> DviclError {
    obs::bump(Counter::VerifyFailures);
    DviclError::WitnessFailure { stage, detail }
}

fn check_done() {
    obs::bump(Counter::VerifyChecks);
}

/// Verifies the root labeling witness of `tree` against `g`: the root
/// labels must form a permutation of `0..n`, and relabeling `(g, π)` by
/// that permutation must reproduce the stored root certificate exactly
/// (colors and edges). O(n + m log m).
// dvicl-lint: allow(budget-reachability) -- unmetered O(n + m log m) witness check of a finished tree; it runs after the build (DESIGN.md §11)
pub fn verify_root_form(g: &Graph, tree: &AutoTree) -> Result<(), DviclError> {
    let root = tree.node(tree.root());
    if root.n() != g.n() {
        return Err(fail(
            "root_form",
            format!("root covers {} vertices, graph has {}", root.n(), g.n()),
        ));
    }
    if g.n() == 0 {
        check_done();
        return Ok(());
    }
    // Rebuild the labeling vertex → canonical position, checking
    // bijectivity instead of trusting it.
    let mut image = vec![V::MAX; g.n()];
    for (i, &v) in root.verts().iter().enumerate() {
        let l = root.labels()[i];
        if (v as usize) >= g.n() || (l as usize) >= g.n() {
            return Err(fail(
                "root_form",
                format!("root entry ({v}, {l}) out of range for n = {}", g.n()),
            ));
        }
        image[v as usize] = l;
    }
    let Some(labeling) = Perm::from_image(image) else {
        return Err(fail(
            "root_form",
            "root labels are not a permutation".to_string(),
        ));
    };
    // The certificate identity C(G, π) = (G, π)^γ, recomputed from the
    // witness and compared against what the combine phase stored.
    let direct = CanonForm::new(g, tree.pi.colors(), labeling.as_slice());
    if direct.view() != tree.canonical_form() {
        return Err(fail(
            "root_form",
            format!(
                "relabeling the input by the witness gives a different certificate \
                 ({} vs {} edges)",
                direct.m(),
                tree.canonical_form().m()
            ),
        ));
    }
    check_done();
    Ok(())
}

/// Verifies every leaf generator of `tree` is a true automorphism of
/// its induced colored subgraph of `g`: bijective on the leaf's
/// vertices, color-preserving under `tree.pi`, and edge-preserving on
/// `g`'s induced adjacency. O(Σ_leaf |gens| · (n_leaf + m_leaf)).
// dvicl-lint: allow(budget-reachability) -- witness check linear in the generators the metered try_build_autotree emitted; it runs after the build (DESIGN.md §11)
pub fn verify_generators(g: &Graph, tree: &AutoTree) -> Result<(), DviclError> {
    // image[v] = v^γ for the generator under check; sentinel elsewhere.
    // Allocations reused across all leaves and generators.
    let mut image = vec![V::MAX; g.n()];
    let mut seen = vec![false; g.n()];
    for node in tree.nodes() {
        if node.kind() != NodeKind::NonSingletonLeaf {
            continue;
        }
        let verts = node.verts();
        for pairs in node.leaf_generators() {
            // Extend the sparse (v, v^γ) pairs to identity on the rest
            // of the leaf.
            for &v in verts {
                image[v as usize] = v;
            }
            for &(v, w) in pairs {
                if !node.contains(v) || !node.contains(w) {
                    return Err(fail(
                        "generator",
                        format!("generator pair ({v}, {w}) leaves its leaf's vertex set"),
                    ));
                }
                image[v as usize] = w;
            }
            // Bijectivity of the moved part: targets must be pairwise
            // distinct and every target must itself be a moved source
            // (`image[w] != w` after the extension above iff some pair
            // has source `w`). Distinct targets drawn entirely from the
            // source set force, by counting, distinct sources and
            // target-set = source-set — so the extended map is a
            // bijection on the leaf. Sound in O(|pairs|).
            let mut result = Ok(());
            for &(v, w) in pairs {
                if v == w {
                    result = Err(fail(
                        "generator",
                        format!("generator pair ({v}, {w}) is a fixed point stored as moved"),
                    ));
                    break;
                }
                if seen[w as usize] {
                    result = Err(fail(
                        "generator",
                        format!("generator maps two vertices to {w}"),
                    ));
                    break;
                }
                seen[w as usize] = true;
                if image[w as usize] == w {
                    result = Err(fail(
                        "generator",
                        format!("generator target {w} is not itself moved — not a bijection"),
                    ));
                    break;
                }
                // Colors: γ must fix every cell of π setwise.
                if tree.pi.color_of(v) != tree.pi.color_of(w) {
                    result = Err(fail(
                        "generator",
                        format!(
                            "generator maps {v} (color {}) to {w} (color {})",
                            tree.pi.color_of(v),
                            tree.pi.color_of(w)
                        ),
                    ));
                    break;
                }
            }
            for &(_, w) in pairs {
                seen[w as usize] = false;
            }
            result?;
            // Adjacency on g's induced subgraph: for every induced edge
            // (v, u), (v^γ, u^γ) must also be a g-edge. γ⁻¹ being the
            // same kind of map, preserving all edges one way on a
            // finite set implies preserving them both ways.
            for &v in verts {
                let gv = image[v as usize];
                for &u in g.neighbors(v) {
                    if v < u && node.contains(u) && !g.has_edge(gv, image[u as usize]) {
                        return Err(fail(
                            "generator",
                            format!(
                                "generator breaks adjacency: ({v}, {u}) is an edge but \
                                 ({gv}, {}) is not",
                                image[u as usize]
                            ),
                        ));
                    }
                }
            }
            check_done();
        }
        // Restore the sentinel for the next leaf.
        for &v in verts {
            image[v as usize] = V::MAX;
        }
    }
    Ok(())
}

/// Runs every tree-level witness check: [`verify_root_form`] then
/// [`verify_generators`]. This is what `--paranoid` runs after each
/// build.
pub fn verify_tree(g: &Graph, tree: &AutoTree) -> Result<(), DviclError> {
    let _span = obs::span(Phase::CoreVerify);
    verify_root_form(g, tree)?;
    verify_generators(g, tree)
}

/// Verifies a claimed isomorphism mapping: `γ` must be a bijection on
/// `0..n` with `g1^γ = g2` edge-for-edge. O(n + m log Δ).
// dvicl-lint: allow(budget-reachability) -- unmetered O(n + m log deg) check of a claimed mapping; it runs after the labelings that produced it
pub fn verify_iso(g1: &Graph, g2: &Graph, gamma: &Perm) -> Result<(), DviclError> {
    let _span = obs::span(Phase::CoreVerify);
    if g1.n() != g2.n() || gamma.len() != g1.n() {
        return Err(fail(
            "iso_mapping",
            format!(
                "size mismatch: |g1| = {}, |g2| = {}, |γ| = {}",
                g1.n(),
                g2.n(),
                gamma.len()
            ),
        ));
    }
    if g1.m() != g2.m() {
        return Err(fail(
            "iso_mapping",
            format!("edge-count mismatch: {} vs {}", g1.m(), g2.m()),
        ));
    }
    // Equal edge counts + every g1-edge mapping to a g2-edge under a
    // bijection = the edge sets correspond exactly.
    for (u, v) in g1.edges() {
        let (gu, gv) = (gamma.apply(u), gamma.apply(v));
        if !g2.has_edge(gu, gv) {
            return Err(fail(
                "iso_mapping",
                format!("edge ({u}, {v}) maps to non-edge ({gu}, {gv})"),
            ));
        }
    }
    check_done();
    Ok(())
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]
mod tests {
    use super::*;
    use crate::build::{tree_of, try_build_autotree, DviclOptions};
    use crate::iso::try_find_isomorphism;
    use dvicl_govern::Budget;
    use dvicl_graph::{named, Coloring};

    #[test]
    fn healthy_trees_verify() {
        for g in [
            named::fig1_example(),
            named::fig3_example(),
            named::petersen(),
            named::hypercube(4),
            named::rary_tree(3, 3),
            named::complete_bipartite(3, 5),
            named::frucht(),
            Graph::from_edges(0, &[]),
            Graph::from_edges(5, &[]),
        ] {
            let t = tree_of(&g);
            verify_tree(&g, &t).expect("healthy build must verify");
        }
    }

    #[test]
    fn root_form_rejects_a_tampered_tree() {
        let g = named::petersen();
        let mut t = tree_of(&g);
        // Swap two root labels: still a permutation, but no longer THE
        // canonical labeling — the recomputed form diverges.
        t.labels.swap(0, 5);
        let err = verify_root_form(&g, &t).unwrap_err();
        assert!(matches!(
            err,
            DviclError::WitnessFailure {
                stage: "root_form",
                ..
            }
        ));
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn root_form_rejects_non_bijective_labels() {
        let g = named::fig1_example();
        let mut t = tree_of(&g);
        let root_start = t.nodes[t.root].verts.0 as usize;
        t.labels[root_start] = t.labels[root_start + 1];
        let err = verify_root_form(&g, &t).unwrap_err();
        assert!(err.to_string().contains("not a permutation"), "{err}");
    }

    #[test]
    fn generators_reject_tampering() {
        // Petersen is one IR leaf with non-trivial generators.
        let g = named::petersen();
        let mut t = tree_of(&g);
        assert!(
            t.gen_pairs.len() >= 2,
            "test needs a leaf with a sparse generator"
        );
        // Redirect one pair's target to its own source: breaks bijectivity
        // (or adjacency) without leaving the vertex set.
        let (v, _) = t.gen_pairs[0];
        t.gen_pairs[0] = (v, v);
        let err = verify_generators(&g, &t).unwrap_err();
        assert!(matches!(
            err,
            DviclError::WitnessFailure {
                stage: "generator",
                ..
            }
        ));
    }

    #[test]
    fn generators_reject_color_breaking_maps() {
        // Petersen with vertex 0 pre-colored refines to {0}, its three
        // neighbors and the six others. DivideI splits off {0}; the other
        // nine vertices form one leaf with two cells. Forge a generator
        // on that leaf that swaps a neighbor of 0 with a non-neighbor.
        let g = named::petersen();
        let pi = Coloring::from_cells(vec![vec![0], (1..10).collect()]).unwrap();
        let mut t =
            try_build_autotree(&g, &pi, &DviclOptions::default(), &Budget::unlimited()).unwrap();
        let leaf = (0..t.nodes.len())
            .find(|&id| t.nodes[id].kind == NodeKind::NonSingletonLeaf)
            .expect("the nine-vertex leaf");
        assert_eq!(t.node(leaf).n(), 9);
        let (near, far) = (g.neighbors(0)[0], 2);
        assert!(!g.has_edge(0, far) && t.pi.color_of(near) != t.pi.color_of(far));
        let pstart = t.gen_pairs.len() as u32;
        t.gen_pairs.push((near, far));
        t.gen_pairs.push((far, near));
        t.gen_ranges.push((pstart, 2));
        t.nodes[leaf].gens = (t.gen_ranges.len() as u32 - 1, 1);
        let err = verify_generators(&g, &t).unwrap_err();
        assert!(err.to_string().contains("color"), "{err}");
    }

    #[test]
    fn iso_mapping_checks_accept_real_and_reject_fake() {
        let g = named::frucht();
        let gamma = Perm::from_cycles(12, &[&[0, 5], &[3, 8, 11]]).unwrap();
        let h = g.permuted(&gamma);
        let found = try_find_isomorphism(&g, &h, &DviclOptions::default(), &Budget::unlimited())
            .unwrap()
            .unwrap();
        verify_iso(&g, &h, &found).expect("a real mapping verifies");
        // The identity is NOT an isomorphism g → h here (Frucht is rigid
        // and γ ≠ id), so it must be rejected.
        let err = verify_iso(&g, &h, &Perm::identity(12)).unwrap_err();
        assert!(matches!(
            err,
            DviclError::WitnessFailure {
                stage: "iso_mapping",
                ..
            }
        ));
        // Size mismatches are witness failures too, not panics.
        assert!(verify_iso(&g, &named::cycle(5), &Perm::identity(12)).is_err());
    }

    #[test]
    fn counters_track_checks_and_failures() {
        let g = named::petersen();
        let t = tree_of(&g);
        let before = obs::snapshot();
        verify_tree(&g, &t).unwrap();
        let after = obs::snapshot().diff(&before);
        // One root-form check plus one per leaf generator.
        let generators: usize = t
            .nodes()
            .filter(|n| n.kind() == NodeKind::NonSingletonLeaf)
            .map(|n| n.leaf_generators().len())
            .sum();
        assert!(generators > 0);
        assert_eq!(after.get(Counter::VerifyChecks), 1 + generators as u64);
        assert_eq!(after.get(Counter::VerifyFailures), 0);
        let mut bad = tree_of(&g);
        bad.labels.swap(0, 3);
        let before = obs::snapshot();
        let _ = verify_tree(&g, &bad);
        let after = obs::snapshot().diff(&before);
        assert_eq!(after.get(Counter::VerifyFailures), 1);
    }
}
