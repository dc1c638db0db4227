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
}

/// A reusable refinement engine: one partition worth of buffers (labels,
/// positions, cell tables, worklist, scratch counters, undo trail) plus
/// the kernel's scratch, recycled across calls.
///
/// Two ways to use it:
///
/// * [`Refiner::refine`] / [`Refiner::try_refine`] refine a coloring and
///   return the result as a [`Coloring`];
/// * the individualization-refinement search in `dvicl-canon` works on
///   the refiner's partition in place: [`Refiner::try_refine_in_place`]
///   loads and refines the root coloring, then each search-tree child is
///   one [`Refiner::try_individualize`] and, on backtrack, one
///   [`Refiner::undo`]. [`Refiner::partition`] reads the current cells
///   and the non-singleton ones the loaded partition keeps. No node
///   copies or converts a coloring, and the kernel's per-graph setup
///   runs once per search rather than once per node.
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

    /// [`Refiner::try_refine`] under an unlimited budget, which never
    /// errs: budget exhaustion is refinement's only error.
    #[expect(
        clippy::expect_used,
        reason = "an unlimited budget never exhausts, and budget exhaustion is the only error try_refine returns"
    )]
    pub fn refine(&mut self, g: &Graph, pi: &Coloring) -> RefineResult {
        self.try_refine(g, pi, &Budget::unlimited())
            .expect("unlimited refinement cannot exceed its budget")
    }

    /// Refines `(g, pi)` to the coarsest equitable coloring finer than
    /// `pi`, spending one work unit per splitter processed, so a
    /// wall-clock deadline or cancellation interrupts the refinement loop
    /// itself rather than waiting for it to finish. Loops that refine
    /// repeatedly should reuse one `Refiner`: its buffers are recycled.
    ///
    /// ```
    /// use dvicl_govern::Budget;
    /// use dvicl_graph::{named, Coloring};
    /// use dvicl_refine::Refiner;
    /// // The Fig. 1(a) example refines from the unit coloring to the paper's
    /// // [0,1,2,3,4,5,6|7]: the hub is forced into its own cell.
    /// let g = named::fig1_example();
    /// let r = Refiner::new().try_refine(&g, &Coloring::unit(8), &Budget::unlimited())?;
    /// assert_eq!(r.coloring.to_string(), "[0,1,2,3,4,5,6|7]");
    /// assert!(r.coloring.is_equitable(&g));
    /// # Ok::<(), dvicl_govern::DviclError>(())
    /// ```
    pub fn try_refine(
        &mut self,
        g: &Graph,
        pi: &Coloring,
        budget: &Budget,
    ) -> Result<RefineResult, DviclError> {
        let _span = dvicl_obs::span(Phase::RefineRefine);
        let trace = self.load(g, pi, budget)?;
        Ok(self.p.result(trace))
    }

    /// Budgeted refinement of `pi` that leaves the result loaded as this
    /// refiner's partition — the root of an in-place search — and returns
    /// only the trace hash. Any previously loaded partition and its undo
    /// levels are discarded, so a refiner whose last search aborted
    /// mid-refinement starts clean.
    ///
    /// The loaded partition also keeps the set of its non-singleton cells
    /// ([`PartitionView::non_singleton`]), built here with one scan of the
    /// cells and updated by every [`Refiner::try_individualize`] and
    /// [`Refiner::undo`] at O(1) per fragment.
    pub fn try_refine_in_place(
        &mut self,
        g: &Graph,
        pi: &Coloring,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        let _span = dvicl_obs::span(Phase::RefineRefine);
        let trace = self.load(g, pi, budget)?;
        self.p.keep_non_singleton();
        Ok(trace)
    }

    fn load(&mut self, g: &Graph, pi: &Coloring, budget: &Budget) -> Result<u64, DviclError> {
        self.p.reset_from_coloring(g.n(), pi);
        self.p.try_refine(g, &mut self.kernel, budget)
    }

    /// Individualizes `v` in the loaded partition and refines in place —
    /// the paper's child-node construction `R(G, π, ν·v)` — spending one
    /// work unit per splitter. `g` must be the graph of the last
    /// [`Refiner::try_refine_in_place`], and `v` must sit in a
    /// non-singleton cell.
    ///
    /// The returned trace covers only the re-refinement, seeded with the
    /// color of `v`'s cell (an invariant of the branching choice), so
    /// traces of sibling nodes that individualize non-equivalent vertices
    /// differ. [`Refiner::undo`] restores the partition as it was before
    /// this call.
    pub fn try_individualize(
        &mut self,
        g: &Graph,
        v: V,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        let _span = dvicl_obs::span(Phase::RefineIndividualize);
        debug_assert_eq!(g.n(), self.p.n(), "individualizing on a different graph");
        self.p
            .try_individualize_and_refine(g, &mut self.kernel, v, budget)
    }

    /// Restores the cells as they were before the latest
    /// [`Refiner::try_individualize`] that has not been undone yet. Only
    /// cell bounds are restored: the vertex order inside a cell may
    /// differ, and nothing observes it.
    pub fn undo(&mut self) {
        self.p.undo();
    }

    /// The current partition.
    pub fn partition(&self) -> PartitionView<'_> {
        self.p.view()
    }

    /// `(vertex, color before the call)` for every vertex the latest
    /// [`Refiner::try_individualize`] that has not been undone recolored,
    /// once each; empty when there is none.
    pub fn recolored(&self) -> &[(V, V)] {
        self.p.recolored()
    }

    /// `v`'s color before the latest [`Refiner::try_individualize`] that
    /// has not been undone, if that call recolored `v`. O(1).
    pub fn recolored_from(&self, v: V) -> Option<V> {
        self.p.recolored_from(v)
    }
}

/// A read-only view of a [`Refiner`]'s partition: the ordered cells and
/// each vertex's color, the start position of its cell (the paper's
/// color, as in [`Coloring`]).
#[derive(Clone, Copy)]
pub struct PartitionView<'a> {
    lab: &'a [V],
    cell_start: &'a [u32],
    cell_len: &'a [u32],
    non_singleton: Option<&'a [u32]>,
}

impl<'a> PartitionView<'a> {
    /// The color of `v`: the start position of its cell.
    #[inline]
    pub fn color_of(self, v: V) -> V {
        self.cell_start[v as usize]
    }

    /// The per-vertex colors.
    pub fn colors(self) -> &'a [V] {
        self.cell_start
    }

    /// The vertices in position order: each cell's members occupy its
    /// span, in no particular order within it. On a discrete partition
    /// this is the vertex at every position.
    pub fn vertices(self) -> &'a [V] {
        self.lab
    }

    /// The colors (cell starts) of the non-singleton cells, in no
    /// particular order; empty iff the partition is discrete. Only a
    /// partition loaded by [`Refiner::try_refine_in_place`] keeps this set.
    pub fn non_singleton(self) -> &'a [V] {
        debug_assert!(
            self.non_singleton.is_some(),
            "the non-singleton set is kept only from try_refine_in_place on"
        );
        self.non_singleton.unwrap_or_default()
    }

    /// The cell of color `c` (starting at position `c`), as its members in
    /// no particular order.
    pub fn cell(self, c: V) -> &'a [V] {
        let s = c as usize;
        &self.lab[s..s + self.cell_len[s] as usize]
    }

    /// The cells in position order, each as its members in no particular
    /// order.
    pub fn cells(self) -> impl Iterator<Item = &'a [V]> {
        let mut s = 0usize;
        std::iter::from_fn(move || {
            let len = *self.cell_len.get(s)? as usize;
            let cell = &self.lab[s..s + len];
            s += len;
            Some(cell)
        })
    }

    /// The partition as a [`Coloring`]: a copy of the colors, from which
    /// the coloring lays out its cells, each ascending.
    #[expect(
        clippy::expect_used,
        reason = "every color is the start of its cell's span, and the spans tile 0..n"
    )]
    pub fn to_coloring(self) -> Coloring {
        Coloring::from_colors(self.cell_start.to_vec())
            .expect("partition is always a valid coloring")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::{named, Perm};

    fn refine(g: &Graph, pi: &Coloring) -> RefineResult {
        Refiner::new()
            .try_refine(g, pi, &Budget::unlimited())
            .expect("unlimited refinement cannot fail")
    }

    #[test]
    fn fig1_unit_refines_to_paper_coloring() {
        let g = named::fig1_example();
        let r = refine(&g, &Coloring::unit(8));
        // Paper: the root of the search tree is [0,1,2,3,4,5,6 | 7].
        assert_eq!(r.coloring.to_string(), "[0,1,2,3,4,5,6|7]");
        assert!(r.coloring.is_equitable(&g));
    }

    /// Loads the unit coloring of `g` and individualizes `v` in place.
    fn individualized(r: &mut Refiner, g: &Graph, v: V) -> u64 {
        r.try_refine_in_place(g, &Coloring::unit(g.n()), &Budget::unlimited())
            .expect("unlimited refinement cannot fail");
        r.try_individualize(g, v, &Budget::unlimited())
            .expect("unlimited refinement cannot fail")
    }

    #[test]
    fn fig1_individualize_0_matches_paper_cells() {
        let g = named::fig1_example();
        let mut r = Refiner::new();
        individualized(&mut r, &g, 0);
        let coloring = r.partition().to_coloring();
        assert!(coloring.is_equitable(&g));
        // Paper node 1: cells {6,5,4}, {2}, {1,3}, {0}, {7} (bliss order).
        // Our convention orders cells differently but the *cells* agree.
        let mut cells: Vec<&[V]> = coloring.cells().collect();
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
            assert_eq!(r.coloring.cells().count(), 1);
        }
    }

    #[test]
    fn tree_refines_to_many_cells() {
        // A balanced binary tree of depth 3 splits into its 4 levels under
        // 1-WL (and no further).
        let g = named::rary_tree(2, 3);
        let r = refine(&g, &Coloring::unit(g.n()));
        let cells: Vec<&[V]> = r.coloring.cells().collect();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells.iter().filter(|c| c.len() == 1).count(), 1);
    }

    #[test]
    fn respects_initial_coloring() {
        let g = named::cycle(6);
        // Pre-color vertex 0 differently: the cycle then fully splits by
        // distance from 0 ({1,5}, {2,4}, {3}).
        let pi = Coloring::from_cells(vec![vec![1, 2, 3, 4, 5], vec![0]]).unwrap();
        let r = refine(&g, &pi);
        assert!(r.coloring.is_finer_or_equal(&pi));
        let mut cells: Vec<&[V]> = r.coloring.cells().collect();
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
        let mut r = Refiner::new();
        let t0 = individualized(&mut r, &g, 0);
        let t2 = individualized(&mut r, &g, 2);
        let t4 = individualized(&mut r, &g, 4);
        // 0 and 2 are automorphic: same trace. 0 and 4 are not.
        assert_eq!(t0, t2);
        assert_ne!(t0, t4);
    }

    #[test]
    fn undo_restores_the_cells_and_reports_the_recolored() {
        let g = named::fig1_example();
        let mut r = Refiner::new();
        let first = individualized(&mut r, &g, 0);
        let child = r.partition().to_coloring();
        let root = refine(&g, &Coloring::unit(8)).coloring;
        // Every vertex whose color changed is reported once, with its
        // root color.
        let mut seen = Vec::new();
        for &(v, old) in r.recolored() {
            assert_eq!(old, root.color_of(v));
            assert_eq!(r.recolored_from(v), Some(old));
            seen.push(v);
        }
        seen.sort_unstable();
        let moved: Vec<V> = (0..8)
            .filter(|&v| child.color_of(v) != root.color_of(v))
            .collect();
        assert_eq!(seen, moved);
        assert!((0..8)
            .filter(|v| !moved.contains(v))
            .all(|v| r.recolored_from(v).is_none()));
        r.undo();
        assert_eq!(r.partition().to_coloring(), root);
        assert!(r.recolored().is_empty());
        // Two levels deep and back: each undo restores its own level.
        assert_eq!(r.try_individualize(&g, 0, &Budget::unlimited()), Ok(first));
        let v = child
            .cells()
            .find(|c| c.len() > 1)
            .expect("node 1 is not discrete")[0];
        r.try_individualize(&g, v, &Budget::unlimited())
            .expect("unlimited refinement cannot fail");
        r.undo();
        assert_eq!(r.partition().to_coloring(), child);
        r.undo();
        assert_eq!(r.partition().to_coloring(), root);
    }

    #[test]
    fn discrete_input_is_fixed_point() {
        let g = named::petersen();
        let pi = Coloring::from_labels(&(0..10).collect::<Vec<V>>());
        let r = refine(&g, &pi);
        assert_eq!(r.coloring, pi);
    }
}
