//! Equitable coloring refinement — the paper's refinement function `R`.
//!
//! Given a colored graph `(G, π)` this crate computes the coarsest equitable
//! coloring finer than `π` (1-dimensional Weisfeiler–Lehman, \[33\] in the
//! paper), using the worklist partition-refinement scheme that nauty, bliss
//! and traces all build on: cells are used as *splitters*; every cell is
//! re-partitioned by the number of neighbors its vertices have in the
//! splitter, with fragments ordered by ascending count so that the result —
//! and the *trace* of the computation — is isomorphism-invariant
//! (property (iii) of `R` in Section 4: `R(G^γ, π^γ, ν^γ) = R(G, π, ν)^γ`).
//!
//! The trace (a running hash over cell positions, fragment sizes and count
//! values) doubles as the node invariant `φ` used by the
//! individualization-refinement search in `dvicl-canon`.
//!
//! One kernel (`kernel.rs`) turns each splitter into cell splits whose
//! cost follows the touched members of a cell. It counts splitter
//! neighbors by scattering over adjacency lists, or — on small dense
//! graphs — by `popcount` over adjacency bitset rows, choosing per
//! splitter from the vertex count and density.

#![warn(missing_docs)]

use dvicl_govern::fault::Site;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Coloring, Graph, V};
use dvicl_obs::Phase;

mod kernel;
mod partition;

use kernel::BitsetKernel;
use partition::Partition;

/// The output of a refinement: the equitable coloring and the
/// isomorphism-invariant trace hash of how it was reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefineResult {
    /// The coarsest equitable coloring finer than the input.
    pub coloring: Coloring,
    /// Hash of the refinement trace. Equal for isomorphic inputs; unequal
    /// traces certify that two search-tree nodes cannot be mapped onto each
    /// other (up to hash collisions, which only cost pruning power in the
    /// consumers, never correctness of certificates).
    pub trace: u64,
    /// Vertices whose cells became singletons during this refinement, in
    /// an isomorphism-invariant creation order — the material for the
    /// partial-certificate node invariant in `dvicl-canon`.
    pub new_singletons: Vec<V>,
}

/// A reusable refinement engine: one partition worth of buffers (labels,
/// positions, cell tables, worklist, scratch counters) plus the kernel's
/// scratch, recycled across calls.
///
/// The individualization-refinement search in `dvicl-canon` refines once
/// per search-tree node; with the one-shot free functions each of those
/// refinements paid seven `Vec` allocations for a fresh partition. A
/// `Refiner` re-seeds the same buffers instead, so a DFS over thousands
/// of nodes performs no per-node partition allocation. Results are
/// bit-identical to the free functions — reset state equals fresh state.
#[derive(Default)]
pub struct Refiner {
    p: Partition,
    kernel: BitsetKernel,
}

impl Refiner {
    /// A refiner with empty (unallocated) buffers.
    pub fn new() -> Self {
        Refiner::default()
    }

    /// Reusable-buffer [`refine`].
    pub fn refine(&mut self, g: &Graph, pi: &Coloring) -> RefineResult {
        let _span = dvicl_obs::span(Phase::RefineRefine);
        self.p.reset_from_coloring(g.n(), pi);
        let trace = self.p.refine(g, &mut self.kernel);
        self.p.result(trace)
    }

    /// Reusable-buffer [`refine_individualized`].
    pub fn refine_individualized(&mut self, g: &Graph, pi: &Coloring, v: V) -> RefineResult {
        let _span = dvicl_obs::span(Phase::RefineIndividualize);
        self.p.reset_from_coloring(g.n(), pi);
        let trace = self.p.individualize_and_refine(g, &mut self.kernel, v);
        self.p.result(trace)
    }

    /// Reusable-buffer [`try_refine`].
    pub fn try_refine(
        &mut self,
        g: &Graph,
        pi: &Coloring,
        budget: &Budget,
    ) -> Result<RefineResult, DviclError> {
        let _span = dvicl_obs::span(Phase::RefineRefine);
        dvicl_govern::fault::checkpoint(Site::RefineRefine)?;
        self.p.reset_from_coloring(g.n(), pi);
        let trace = self.p.try_refine(g, &mut self.kernel, budget)?;
        Ok(self.p.result(trace))
    }

    /// Reusable-buffer [`try_refine_individualized`].
    pub fn try_refine_individualized(
        &mut self,
        g: &Graph,
        pi: &Coloring,
        v: V,
        budget: &Budget,
    ) -> Result<RefineResult, DviclError> {
        let _span = dvicl_obs::span(Phase::RefineIndividualize);
        dvicl_govern::fault::checkpoint(Site::RefineIndividualize)?;
        self.p.reset_from_coloring(g.n(), pi);
        let trace = self
            .p
            .try_individualize_and_refine(g, &mut self.kernel, v, budget)?;
        Ok(self.p.result(trace))
    }
}

/// Refines `(g, pi)` to the coarsest equitable coloring finer than `pi`.
///
/// One-shot convenience over [`Refiner`] — loops that refine repeatedly
/// (one refinement per search-tree node) should hold a `Refiner` instead.
///
/// ```
/// use dvicl_graph::{named, Coloring};
/// // The Fig. 1(a) example refines from the unit coloring to the paper's
/// // [0,1,2,3,4,5,6|7]: the hub is forced into its own cell.
/// let g = named::fig1_example();
/// let r = dvicl_refine::refine(&g, &Coloring::unit(8));
/// assert_eq!(r.coloring.to_string(), "[0,1,2,3,4,5,6|7]");
/// assert!(r.coloring.is_equitable(&g));
/// ```
pub fn refine(g: &Graph, pi: &Coloring) -> RefineResult {
    Refiner::new().refine(g, pi)
}

/// Individualizes `v` in `pi` (which is typically already equitable) and
/// re-refines: the paper's child-node construction `R(G, π, ν·v)`.
///
/// The returned trace covers only the re-refinement, seeded with the color
/// of `v`'s cell (an invariant of the branching choice), so traces of
/// sibling nodes that individualize non-equivalent vertices differ.
pub fn refine_individualized(g: &Graph, pi: &Coloring, v: V) -> RefineResult {
    Refiner::new().refine_individualized(g, pi, v)
}

/// Budgeted [`refine`]: one work unit is spent per splitter processed,
/// so a wall-clock deadline or cancellation interrupts the refinement
/// loop itself rather than waiting for it to finish.
pub fn try_refine(g: &Graph, pi: &Coloring, budget: &Budget) -> Result<RefineResult, DviclError> {
    Refiner::new().try_refine(g, pi, budget)
}

/// Budgeted [`refine_individualized`].
pub fn try_refine_individualized(
    g: &Graph,
    pi: &Coloring,
    v: V,
    budget: &Budget,
) -> Result<RefineResult, DviclError> {
    Refiner::new().try_refine_individualized(g, pi, v, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::{named, Perm};

    #[test]
    fn fig1_unit_refines_to_paper_coloring() {
        let g = named::fig1_example();
        let r = refine(&g, &Coloring::unit(8));
        // Paper: the root of the search tree is [0,1,2,3,4,5,6 | 7].
        assert_eq!(r.coloring.to_string(), "[0,1,2,3,4,5,6|7]");
        assert!(r.coloring.is_equitable(&g));
    }

    #[test]
    fn fig1_individualize_0_matches_paper_cells() {
        let g = named::fig1_example();
        let base = refine(&g, &Coloring::unit(8)).coloring;
        let r = refine_individualized(&g, &base, 0);
        assert!(r.coloring.is_equitable(&g));
        // Paper node 1: cells {6,5,4}, {2}, {1,3}, {0}, {7} (bliss order).
        // Our convention orders cells differently but the *cells* agree.
        let mut cells: Vec<Vec<V>> = r.coloring.cells().to_vec();
        cells.sort();
        assert_eq!(
            cells,
            vec![vec![0], vec![1, 3], vec![2], vec![4, 5, 6], vec![7]]
        );
    }

    #[test]
    fn refinement_is_finer_and_equitable() {
        for g in [
            named::petersen(),
            named::frucht(),
            named::hypercube(4),
            named::rary_tree(3, 3),
            named::complete_bipartite(3, 5),
        ] {
            let pi = Coloring::unit(g.n());
            let r = refine(&g, &pi);
            assert!(r.coloring.is_finer_or_equal(&pi));
            assert!(r.coloring.is_equitable(&g));
        }
    }

    #[test]
    fn regular_graphs_stay_unit() {
        for g in [named::petersen(), named::cycle(9), named::hypercube(3)] {
            let r = refine(&g, &Coloring::unit(g.n()));
            assert!(r.coloring.is_unit());
        }
    }

    #[test]
    fn tree_refines_to_many_cells() {
        // A balanced binary tree of depth 3 splits into its 4 levels under
        // 1-WL (and no further).
        let g = named::rary_tree(2, 3);
        let r = refine(&g, &Coloring::unit(g.n()));
        assert_eq!(r.coloring.num_cells(), 4);
        assert_eq!(r.coloring.num_singletons(), 1);
    }

    #[test]
    fn respects_initial_coloring() {
        let g = named::cycle(6);
        // Pre-color vertex 0 differently: the cycle then fully splits by
        // distance from 0 ({1,5}, {2,4}, {3}).
        let pi = Coloring::from_cells(vec![vec![1, 2, 3, 4, 5], vec![0]]).unwrap();
        let r = refine(&g, &pi);
        assert!(r.coloring.is_finer_or_equal(&pi));
        let mut cells = r.coloring.cells().to_vec();
        cells.sort();
        assert_eq!(cells, vec![vec![0], vec![1, 5], vec![2, 4], vec![3]]);
    }

    #[test]
    fn invariant_under_relabeling() {
        // refine(G^γ, π^γ) must equal refine(G, π)^γ, and traces must match.
        let g = named::fig3_example();
        let n = g.n();
        let gamma = Perm::from_cycles(n, &[&[0, 5, 9], &[2, 4], &[10, 12], &[11, 13]]).unwrap();
        let gg = g.permuted(&gamma);
        let r1 = refine(&g, &Coloring::unit(n));
        let r2 = refine(&gg, &Coloring::unit(n));
        assert_eq!(r1.trace, r2.trace);
        assert_eq!(r2.coloring, r1.coloring.apply_perm(&gamma.inverse()));
    }

    #[test]
    fn individualized_traces_distinguish_orbits() {
        let g = named::fig1_example();
        let base = refine(&g, &Coloring::unit(8)).coloring;
        let r0 = refine_individualized(&g, &base, 0);
        let r2 = refine_individualized(&g, &base, 2);
        let r4 = refine_individualized(&g, &base, 4);
        // 0 and 2 are automorphic: same trace. 0 and 4 are not.
        assert_eq!(r0.trace, r2.trace);
        assert_ne!(r0.trace, r4.trace);
    }

    #[test]
    fn discrete_input_is_fixed_point() {
        let g = named::petersen();
        let pi = Coloring::discrete(10);
        let r = refine(&g, &pi);
        assert_eq!(r.coloring, pi);
    }
}
