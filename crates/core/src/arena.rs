//! Arena-backed CSR storage for the AutoTree recursion's working
//! subgraphs, plus the divide rules `DivideI` (Algorithm 2) and `DivideS`
//! (Algorithm 3).
//!
//! The recursion of Algorithm 1 is strictly depth-first: a node's child
//! subgraphs are carved, recursed into and abandoned one after the other,
//! and a child's storage is never needed once its subtree has combined.
//! The arena exploits that with **stack discipline** over three flat
//! pools — `verts` (global ids), `offs` (per-subgraph CSR offsets) and
//! `adj` (local neighbor indices):
//!
//! * [`SubArena::whole`] / [`SubArena::induced_child`] push a segment on
//!   top of all three pools and hand back a [`Sub`] handle of offsets;
//! * [`SubArena::scoped`] runs a closure and then truncates the pools
//!   back to where they stood before it, freeing a finished child's
//!   segment while its parent (lower in the stack) stays valid — the
//!   buffers keep their capacity, so the next child reuses the same
//!   allocation instead of growing fresh `Vec`s.
//!
//! The truncation itself (`release`) is private to this module, and
//! `scoped` releases on every path out of its closure, `?` included, so
//! no caller can leave a carve behind on an early exit. The type system
//! enforces the stack discipline; no separate analysis is needed.
//!
//! Peak residency is therefore one root-to-leaf chain of segments
//! (O(depth · n + m) worst case, O(n + m) on balanced divides) instead of
//! the nested-vec representation's per-node `Vec<Vec<u32>>` churn, and
//! the hot loop never chases row pointers. The high-water mark and the
//! number of segment reuses are exported through the `sub_bytes_peak` /
//! `arena_reuses` counters (DESIGN.md §9).
//!
//! The divide rules take the node's colors as its projection `π_g`, a
//! flat [`Coloring`] over the segment's local indices that the builder
//! groups once per node; the arena itself never groups vertices by
//! color.
//!
//! Ownership rules: the arena is owned by the `Builder` in `core::build`
//! and lives for one `DviCL` run. Handles never outlive the build (the
//! AutoTree's `Node`s copy the vertex lists they need), and a handle is
//! only dereferenced through the arena that carved it.

use crate::sub::{Division, Sub};
use dvicl_graph::{as_vertex, vertex_range, Coloring, Graph, V};
use dvicl_obs::{self as obs, Counter};

/// The three pool tops at the time of [`SubArena::mark`]. Marks compare
/// equal iff they denote the same pool state, which is how the
/// fault-discipline tests assert stack discipline (`arena.mark() ==
/// pre_call_mark` after an early return). Only this module can roll the
/// pools back to a mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaMark {
    verts: usize,
    offs: usize,
    adj: usize,
}

/// The flat pools behind every [`Sub`] of one `DviCL` run, plus the
/// scratch buffers the divide rules reuse across nodes. See the module
/// docs for the stack discipline.
#[derive(Debug, Default)]
pub struct SubArena {
    /// Global vertex ids, ascending within each segment.
    verts: Vec<V>,
    /// Concatenated per-subgraph offset arrays (`n + 1` entries each),
    /// relative to the owning segment's `adj_start`.
    offs: Vec<u32>,
    /// Concatenated adjacency rows of local indices, each row ascending.
    adj: Vec<u32>,
    /// Scratch: parent-local → child-local remap for `induced_child`.
    remap: Vec<u32>,
    /// Scratch: component ids for the divide rules.
    comp: Vec<u32>,
    /// Scratch: DFS stack for the divide rules.
    stack: Vec<u32>,
    /// Scratch: per-component sizes / write cursors.
    sizes: Vec<u32>,
    /// High-water mark of pool bytes (`sub_bytes_peak`).
    bytes_peak: usize,
    /// Segment releases that handed buffer space back for reuse
    /// (`arena_reuses`).
    reuses: u64,
}

impl SubArena {
    /// An empty arena.
    pub fn new() -> Self {
        SubArena::default()
    }

    /// The whole graph as a subgraph (the AutoTree root): one wholesale
    /// copy of `g`'s CSR arrays into the pools. Panics if `g` has 2^31
    /// edges or more, which the pools' `u32` offsets cannot address.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every CSR offset is at most 2m <= u32::MAX, asserted first"
    )]
    pub fn whole(&mut self, g: &Graph) -> Sub {
        let n = g.n();
        let (g_offs, g_adj) = g.csr();
        assert!(
            g_adj.len() <= u32::MAX as usize,
            "2m exceeds the arena's u32 offsets"
        );
        let sub = Sub {
            verts_start: self.verts.len(),
            offs_start: self.offs.len(),
            adj_start: self.adj.len(),
            n,
            m: g.m(),
        };
        self.verts.extend(g.vertices());
        self.offs.extend(g_offs.iter().map(|&o| o as u32));
        self.adj.extend_from_slice(g_adj);
        self.note_high_water();
        sub
    }

    /// The current pool tops.
    pub fn mark(&self) -> ArenaMark {
        ArenaMark {
            verts: self.verts.len(),
            offs: self.offs.len(),
            adj: self.adj.len(),
        }
    }

    /// Runs `f` on `owner`, then releases every segment carved while it
    /// ran, on every path out of `f` (an early `?` included). `arena`
    /// projects the arena out of `owner`, so `f` keeps full access to the
    /// owner, for example a builder that carves a child and recurses
    /// into it.
    ///
    /// ```
    /// use dvicl_core::SubArena;
    /// let g = dvicl_graph::named::petersen();
    /// let mut arena = SubArena::new();
    /// let root = arena.whole(&g);
    /// let before = arena.mark();
    /// let n = SubArena::scoped(&mut arena, |a| a, |a| {
    ///     let child = a.induced_child(&root, &[0, 1, 2]);
    ///     child.n()
    /// });
    /// assert_eq!(n, 3);
    /// assert_eq!(arena.mark(), before, "the carve is gone");
    /// ```
    ///
    /// There is no other way to roll the pools back from outside this
    /// module: `release` is private.
    ///
    /// ```compile_fail,E0624
    /// let mut arena = dvicl_core::SubArena::new();
    /// let mark = arena.mark();
    /// arena.release(mark);
    /// ```
    pub fn scoped<O: ?Sized, R>(
        owner: &mut O,
        arena: impl Fn(&mut O) -> &mut SubArena,
        f: impl FnOnce(&mut O) -> R,
    ) -> R {
        let mark = arena(owner).mark();
        let out = f(owner);
        arena(owner).release(mark);
        out
    }

    /// Truncates the pools back to `mark`, releasing every segment pushed
    /// since — their capacity stays with the buffers for the next child.
    fn release(&mut self, mark: ArenaMark) {
        if self.verts.len() > mark.verts || self.offs.len() > mark.offs {
            self.reuses += 1;
        }
        self.verts.truncate(mark.verts);
        self.offs.truncate(mark.offs);
        self.adj.truncate(mark.adj);
    }

    /// The global vertex ids of `s`, ascending.
    #[inline]
    pub fn verts(&self, s: &Sub) -> &[V] {
        &self.verts[s.verts_start..s.verts_start + s.n]
    }

    /// The sorted local neighbor row of local vertex `i` in `s`.
    #[inline]
    pub fn neighbors(&self, s: &Sub, i: u32) -> &[u32] {
        let lo = s.adj_start + self.offs[s.offs_start + i as usize] as usize;
        let hi = s.adj_start + self.offs[s.offs_start + i as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// High-water mark of pool bytes over the arena's lifetime.
    pub fn bytes_peak(&self) -> usize {
        self.bytes_peak
    }

    /// Current pool bytes (not the peak).
    pub fn bytes_now(&self) -> usize {
        (self.verts.len() + self.offs.len() + self.adj.len()) * std::mem::size_of::<u32>()
    }

    /// How many releases actually freed a segment.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Empties the arena for a fresh build while keeping every buffer's
    /// capacity — the reuse primitive behind `core::Session`. The
    /// high-water mark and reuse count restart at zero so the
    /// `sub_bytes_peak` / `arena_reuses` counters keep their per-build
    /// meaning when one arena serves many builds.
    pub fn reset(&mut self) {
        self.verts.clear();
        self.offs.clear();
        self.adj.clear();
        self.bytes_peak = 0;
        self.reuses = 0;
    }

    fn note_high_water(&mut self) {
        self.bytes_peak = self.bytes_peak.max(self.bytes_now());
    }

    /// Carves the induced child of `parent` on the given local indices
    /// (ascending) as a new top segment. Adjacency is emitted in one
    /// counting pass: the remap is monotone, so filtering each parent row
    /// in order yields sorted child rows with no per-row sort or rehash.
    // dvicl-lint: allow(budget-reachability) -- O(|locals| + child edges) carve of one division part; Builder::build spends one unit per tree node before it carves
    pub fn induced_child(&mut self, parent: &Sub, locals: &[u32]) -> Sub {
        debug_assert!(
            locals.windows(2).all(|w| w[0] < w[1]),
            "locals not ascending"
        );
        // `remap` is kept all-MAX between calls (entries are restored
        // below), so preparing a carve costs O(|locals|), not O(parent.n)
        // — the latter is quadratic when a hub node divides into
        // thousands of singleton parts.
        if self.remap.len() < parent.n {
            self.remap.resize(parent.n, u32::MAX);
        }
        for (new, &old) in (0..).zip(locals) {
            self.remap[old as usize] = new;
        }
        let verts_start = self.verts.len();
        let offs_start = self.offs.len();
        let adj_start = self.adj.len();
        for &old in locals {
            let gv = self.verts[parent.verts_start + old as usize];
            self.verts.push(gv);
        }
        self.offs.push(0);
        let mut written = 0u32;
        for &old in locals {
            let lo = parent.adj_start + self.offs[parent.offs_start + old as usize] as usize;
            let hi = parent.adj_start + self.offs[parent.offs_start + old as usize + 1] as usize;
            for k in lo..hi {
                let w = self.adj[k];
                let nw = self.remap[w as usize];
                if nw != u32::MAX {
                    self.adj.push(nw);
                    written += 1;
                }
            }
            self.offs.push(written);
        }
        // Restore the all-MAX invariant for the next carve.
        for &old in locals {
            self.remap[old as usize] = u32::MAX;
        }
        self.note_high_water();
        Sub {
            verts_start,
            offs_start,
            adj_start,
            n: locals.len(),
            m: written as usize / 2,
        }
    }

    /// Appends the connected components of `s` — with `banned` vertices
    /// and dead edges excluded — to `div`, in one counting-sort pass:
    /// a DFS labels each vertex with a component id (ids ordered by the
    /// component's minimum local index), sizes become offsets, and one
    /// ascending sweep scatters the members, so every part comes out
    /// ascending with no per-part `Vec` or sort.
    // dvicl-lint: allow(budget-reachability) -- one O(n + m) pass over a subgraph; the builder spends one unit per AutoTree node it divides
    fn components_into(
        &mut self,
        s: &Sub,
        banned: impl Fn(u32) -> bool,
        edge_alive: impl Fn(u32, u32) -> bool,
        div: &mut Division,
    ) -> usize {
        let n = s.n;
        let mut comp = std::mem::take(&mut self.comp);
        let mut stack = std::mem::take(&mut self.stack);
        let mut sizes = std::mem::take(&mut self.sizes);
        comp.clear();
        comp.resize(n, u32::MAX);
        stack.clear();
        sizes.clear();
        let mut ncomps = 0u32;
        for start in vertex_range(n) {
            if banned(start) || comp[start as usize] != u32::MAX {
                continue;
            }
            let id = ncomps;
            ncomps += 1;
            sizes.push(0);
            comp[start as usize] = id;
            stack.push(start);
            while let Some(v) = stack.pop() {
                sizes[id as usize] += 1;
                let lo = s.adj_start + self.offs[s.offs_start + v as usize] as usize;
                let hi = s.adj_start + self.offs[s.offs_start + v as usize + 1] as usize;
                for k in lo..hi {
                    let w = self.adj[k];
                    if banned(w) || comp[w as usize] != u32::MAX || !edge_alive(v, w) {
                        continue;
                    }
                    comp[w as usize] = id;
                    stack.push(w);
                }
            }
        }
        // Sizes → member-array write cursors (prefix sums over the new
        // parts only), then scatter the vertices in ascending local order.
        let base = as_vertex(div.members.len());
        let mut acc = base;
        for sz in sizes.iter_mut() {
            let start = acc;
            acc += *sz;
            div.offs.push(acc);
            *sz = start;
        }
        div.members.resize(acc as usize, 0);
        for v in vertex_range(n) {
            let id = comp[v as usize];
            if id != u32::MAX {
                let cursor = &mut sizes[id as usize];
                div.members[*cursor as usize] = v;
                *cursor += 1;
            }
        }
        self.comp = comp;
        self.stack = stack;
        self.sizes = sizes;
        ncomps as usize
    }

    /// Plain component division: if `g` is disconnected, its components
    /// are the children (the trivially automorphism-preserving divide the
    /// paper leaves implicit). Returns `None` when connected.
    pub fn divide_components(&mut self, s: &Sub) -> Option<Division> {
        let mut div = Division::new();
        let nparts = self.components_into(s, |_| false, |_, _| true, &mut div);
        if nparts > 1 {
            obs::bump(Counter::DivideComponents);
            Some(div)
        } else {
            None
        }
    }

    /// `DivideI` (Algorithm 2): isolate every singleton cell of `π_g` as a
    /// one-vertex child; the connected components of the remainder are the
    /// other children. Returns `None` if `π_g` has no singleton cell.
    ///
    /// `pi_g` is `π` projected onto `s`'s vertices, over local indices.
    // dvicl-lint: allow(budget-reachability) -- one O(n + m) pass over a subgraph; Builder::build spends one unit per AutoTree node before it divides
    pub fn divide_i(&mut self, s: &Sub, pi_g: &Coloring) -> Option<Division> {
        let singles: Vec<u32> = pi_g
            .cells()
            .filter(|c| c.len() == 1)
            .map(|c| c[0])
            .collect();
        if singles.is_empty() || singles.len() == s.n() && s.n() == 1 {
            return None;
        }
        let mut banned = vec![false; s.n()];
        for &x in &singles {
            banned[x as usize] = true;
        }
        let mut div = Division::new();
        for &x in &singles {
            div.push_singleton(x);
        }
        self.components_into(s, |v| banned[v as usize], |_, _| true, &mut div);
        if div.len() > 1 {
            obs::bump(Counter::DivideIApplied);
            Some(div)
        } else {
            None
        }
    }

    /// `DivideS` (Algorithm 3): delete the edges inside every cell that
    /// induces a clique and between every pair of cells joined completely
    /// bipartitely (Theorem 6.4 shows `Aut(g, π_g)` is unaffected); if the
    /// remainder is disconnected, its components are the children.
    ///
    /// Relies on `π_g` (over local indices, as for
    /// [`SubArena::divide_i`]) being equitable with respect to `g`
    /// (Theorem 6.1): one member per cell is probed, the rest are
    /// guaranteed to agree.
    // dvicl-lint: allow(budget-reachability) -- one O(n + m + cells^2) pass over a subgraph; Builder::build spends one unit per AutoTree node before it divides
    pub fn divide_s(&mut self, s: &Sub, pi_g: &Coloring) -> Option<Division> {
        let cells: Vec<&[u32]> = pi_g.cells().collect();
        let ncells = cells.len();
        // cell_of[local] = index into `cells`.
        let mut cell_of = vec![0u32; s.n()];
        for (ci, cell) in (0..).zip(&cells) {
            for &i in *cell {
                cell_of[i as usize] = ci;
            }
        }
        // For one probe vertex per cell, count neighbors per cell.
        // full[ci * ncells + cj] = the probe of ci sees ALL of cell cj
        // (clique when ci == cj, complete bipartite otherwise).
        let mut full = vec![false; ncells * ncells];
        let mut any_removal = false;
        let mut counts = vec![0u32; ncells];
        for (ci, cell) in cells.iter().enumerate() {
            let probe = cell[0];
            counts.iter_mut().for_each(|c| *c = 0);
            for &w in self.neighbors(s, probe) {
                counts[cell_of[w as usize] as usize] += 1;
            }
            for cj in 0..ncells {
                // A clique cell's probe sees every member but itself.
                let need = as_vertex(cells[cj].len()) - u32::from(cj == ci);
                if need > 0 && counts[cj] == need {
                    full[ci * ncells + cj] = true;
                    any_removal = true;
                }
            }
            debug_assert!(
                cell.iter().all(|&i| {
                    let mut c2 = vec![0u32; ncells];
                    for &w in self.neighbors(s, i) {
                        c2[cell_of[w as usize] as usize] += 1;
                    }
                    c2 == counts
                }),
                "π_g not equitable w.r.t. g — Theorem 6.1 violated"
            );
        }
        if !any_removal {
            return None;
        }
        // An edge (v, w) is dead iff its cell pair is fully joined. Note
        // full[ci][cj] must equal full[cj][ci] (both count the same
        // biclique), so probing one side suffices.
        let mut div = Division::new();
        let nparts = self.components_into(
            s,
            |_| false,
            |v, w| {
                let (cv, cw) = (cell_of[v as usize] as usize, cell_of[w as usize] as usize);
                !full[cv * ncells + cw]
            },
            &mut div,
        );
        if nparts > 1 {
            obs::bump(Counter::DivideSApplied);
            let mut deleted: u64 = 0;
            for i in vertex_range(s.n()) {
                for &j in self.neighbors(s, i) {
                    if i < j {
                        let (ci, cj) = (cell_of[i as usize] as usize, cell_of[j as usize] as usize);
                        if full[ci * ncells + cj] {
                            deleted += 1;
                        }
                    }
                }
            }
            obs::add(Counter::DivideSEdgesDeleted, deleted);
            Some(div)
        } else {
            None
        }
    }

    /// Builds a standalone [`Graph`] over the local indices — the graph
    /// `CombineCL` feeds to the IR labeler with the node's `π_g`. The
    /// segment already *is* clean CSR, so this is a straight copy through
    /// [`Graph::from_csr`] — no edge-list rebuild.
    pub fn to_local_graph(&self, s: &Sub) -> Graph {
        let base = self.offs[s.offs_start] as usize;
        let offsets: Vec<usize> = self.offs[s.offs_start..s.offs_start + s.n + 1]
            .iter()
            .map(|&o| o as usize - base)
            .collect();
        let adj: Vec<V> = self.adj[s.adj_start..s.adj_start + 2 * s.m].to_vec();
        Graph::from_csr(offsets, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    #[test]
    fn stack_discipline_release_reuses_capacity() {
        let g = named::fig1_example();
        let mut a = SubArena::new();
        let root = a.whole(&g);
        let mark = a.mark();
        let c1 = a.induced_child(&root, &[0, 1, 2, 3]);
        assert_eq!(a.verts(&c1), &[0, 1, 2, 3]);
        assert_eq!(c1.m(), 4);
        let cap_before = a.adj.capacity();
        a.release(mark);
        assert_eq!(a.reuses(), 1);
        // The parent segment survives the release untouched...
        assert_eq!(a.verts(&root).len(), 8);
        assert_eq!(a.neighbors(&root, 7).len(), 7);
        // ...and the next child reuses the freed space.
        let c2 = a.induced_child(&root, &[4, 5, 6]);
        assert_eq!(a.verts(&c2), &[4, 5, 6]);
        assert_eq!(c2.m(), 3);
        assert_eq!(a.adj.capacity(), cap_before);
    }

    #[test]
    fn scoped_restores_the_mark_on_every_exit() {
        let g = named::petersen();
        let mut a = SubArena::new();
        let root = a.whole(&g);
        let mark = a.mark();
        assert_eq!(mark, a.mark(), "marks of the same state are equal");
        let n = SubArena::scoped(
            &mut a,
            |a| a,
            |a| {
                let c = a.induced_child(&root, &[0, 1, 2, 3, 4]);
                assert_eq!(a.verts(&c), &[0, 1, 2, 3, 4]);
                assert_ne!(a.mark(), mark, "the carve moved the pools");
                c.n()
            },
        );
        assert_eq!(n, 5);
        assert_eq!(a.mark(), mark, "a finished carve is released");
        // An early error return out of the closure releases its carve too.
        let r: Result<(), &str> = SubArena::scoped(
            &mut a,
            |a| a,
            |a| {
                let c = a.induced_child(&root, &[5, 6, 7]);
                let _nested = a.induced_child(&c, &[0, 1]);
                Err("abort")
            },
        );
        assert_eq!(r, Err("abort"));
        assert_eq!(a.mark(), mark, "an aborted carve is released");
    }

    #[test]
    fn nested_children_match_direct_carve() {
        // Carving {4,5} out of the triangle {4,5,6} must equal carving
        // {4,5} straight out of the root.
        let g = named::fig1_example();
        let mut a = SubArena::new();
        let root = a.whole(&g);
        let tri = a.induced_child(&root, &[4, 5, 6]);
        let pair_nested = a.induced_child(&tri, &[0, 1]); // locals of {4,5} in tri
        assert_eq!(a.verts(&pair_nested), &[4, 5]);
        assert_eq!(pair_nested.m(), 1);
        let mut b = SubArena::new();
        let root_b = b.whole(&g);
        let pair_direct = b.induced_child(&root_b, &[4, 5]);
        assert_eq!(a.verts(&pair_nested), b.verts(&pair_direct));
        assert_eq!(pair_nested.m(), pair_direct.m());
    }

    #[test]
    fn bytes_peak_tracks_high_water() {
        let g = named::petersen();
        let mut a = SubArena::new();
        let root = a.whole(&g);
        let after_root = a.bytes_peak();
        assert!(after_root > 0);
        let mark = a.mark();
        let _c = a.induced_child(&root, &[0, 1, 2, 3, 4]);
        let after_child = a.bytes_peak();
        assert!(after_child > after_root);
        a.release(mark);
        // Peak is a high-water mark: release does not lower it.
        assert_eq!(a.bytes_peak(), after_child);
    }

    #[test]
    fn rows_stay_sorted_through_nested_carves() {
        let g = named::hypercube(3);
        let mut a = SubArena::new();
        let root = a.whole(&g);
        let child = a.induced_child(&root, &[0, 2, 3, 5, 6, 7]);
        for i in vertex_range(child.n()) {
            let row = a.neighbors(&child, i);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i} not sorted");
        }
    }
}
