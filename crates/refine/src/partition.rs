//! Worklist partition refinement over an ordered partition.
//!
//! The representation follows nauty's: `lab` holds the vertices in partition
//! order, `pos` is its inverse, `cell_start[v]` is the start position of the
//! cell containing `v` (which *is* the vertex's color under the paper's
//! color definition), and `cell_len[s]` is the length of the cell starting
//! at position `s` (meaningful only at start positions).
//!
//! How a splitter's neighbor counts are computed and how affected cells
//! are ordered is delegated to a [`RefineKernel`] (`kernel.rs`); the
//! worklist discipline and the rewrite half of every split
//! ([`Partition::split_touched`]) live here, shared by the kernel and
//! the test oracle, so the two cannot diverge on the parts that
//! determine traces and certificates. A split rewrites only the span of
//! the cell's touched members: the untouched rest stays where it is as
//! the count-0 fragment, so a splitter costs time proportional to the
//! members it touches, not to the cells it grazes.
//!
//! An individualization opens a *level* of the undo trail: while a level
//! is open, the first change of each vertex's `cell_start` logs the old
//! value. Refinement only splits cells, and every cell keeps its start
//! for the part of it that stays, so [`Partition::undo`] restores the
//! cells exactly by putting each logged vertex back and growing its old
//! cell by one. `lab`/`pos` are left as they are, since refinement only
//! permutes members inside their own cell's span and nothing reads the
//! order inside a cell.

use crate::kernel::RefineKernel;
use crate::{PartitionView, RefineResult};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Coloring, Graph, V};
use std::collections::VecDeque;

/// An ordered partition of `0..n` supporting splitter-based refinement
/// and undoable individualization. The default value is the empty
/// partition over zero vertices, the starting state for
/// [`Partition::reset_from_coloring`]-based reuse.
#[derive(Default)]
pub(crate) struct Partition {
    pub(crate) lab: Vec<V>,
    pub(crate) pos: Vec<u32>,
    pub(crate) cell_start: Vec<u32>,
    pub(crate) cell_len: Vec<u32>,
    // Scratch: neighbor counts per vertex during a splitter pass (owned
    // here rather than by a kernel so the kernel and the test oracle
    // share one zeroed array with the reset discipline).
    pub(crate) cnt: Vec<u32>,
    // Worklist of cell start positions + membership flags.
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    // Scratch: dedup flags for cells touched by the current splitter.
    pub(crate) in_affected: Vec<bool>,
    // Undo trail: `(vertex, cell_start before the level)` for each
    // vertex an open level recolored, and per open level the trail length
    // at its start. `trail_at[v]` is the offset of `v`'s entry in the
    // innermost level's part of the trail, valid only if that entry names
    // `v` (a sparse set, never cleared).
    trail: Vec<(V, u32)>,
    levels: Vec<usize>,
    trail_at: Vec<u32>,
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    // A simple strong mixer (splitmix64 finalizer over h ^ x).
    let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Partition {
    /// Re-initializes this partition from a [`Coloring`], reusing every
    /// internal buffer. State after this call is identical to a fresh
    /// partition's — only the allocations differ, which is what lets the
    /// IR search refine thousands of nodes without a single per-node
    /// `Vec` allocation.
    pub fn reset_from_coloring(&mut self, n: usize, pi: &Coloring) {
        assert_eq!(n, pi.n());
        self.lab.clear();
        self.lab.reserve(n);
        self.cell_len.clear();
        self.cell_len.resize(n, 0);
        for cell in pi.cells() {
            // dvicl-lint: allow(narrowing-cast) -- a cell holds at most n <= V::MAX vertices
            self.cell_len[self.lab.len()] = cell.len() as u32;
            self.lab.extend_from_slice(cell);
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        for (i, &v) in self.lab.iter().enumerate() {
            // dvicl-lint: allow(narrowing-cast) -- i indexes lab, which has n <= V::MAX entries
            self.pos[v as usize] = i as u32;
        }
        self.cell_start.clear();
        self.cell_start.resize(n, 0);
        let mut s = 0usize;
        while s < n {
            let len = self.cell_len[s] as usize;
            for i in s..s + len {
                // dvicl-lint: allow(narrowing-cast) -- s < n <= V::MAX
                self.cell_start[self.lab[i] as usize] = s as u32;
            }
            s += len;
        }
        self.cnt.clear();
        self.cnt.resize(n, 0);
        self.queue.clear();
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.in_affected.clear();
        self.in_affected.resize(n, false);
        self.trail.clear();
        self.levels.clear();
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.lab.len()
    }

    /// The outcome of the last run, whose trace hash was `trace`.
    pub fn result(&self, trace: u64) -> RefineResult {
        RefineResult {
            trace,
            coloring: self.view().to_coloring(),
        }
    }

    /// A read-only view of the cells.
    pub fn view(&self) -> PartitionView<'_> {
        PartitionView {
            lab: &self.lab,
            cell_start: &self.cell_start,
            cell_len: &self.cell_len,
        }
    }

    /// Sets `v`'s cell start. If this changes it while a level is open
    /// and the level has not recolored `v` yet, logs the old value.
    #[inline]
    fn set_cell_start(&mut self, v: V, start: u32) {
        let old = self.cell_start[v as usize];
        if old != start {
            if let Some(&from) = self.levels.last() {
                if self.recolored_from(v).is_none() {
                    // dvicl-lint: allow(narrowing-cast) -- a level logs each vertex once, so it holds at most n <= V::MAX entries
                    self.trail_at[v as usize] = (self.trail.len() - from) as u32;
                    self.trail.push((v, old));
                }
            }
            self.cell_start[v as usize] = start;
        }
    }

    /// `v`'s cell start before the innermost open level, if that level
    /// recolored `v`.
    #[inline]
    pub fn recolored_from(&self, v: V) -> Option<u32> {
        let from = *self.levels.last()?;
        match self.trail.get(from + self.trail_at[v as usize] as usize) {
            Some(&(u, old)) if u == v => Some(old),
            _ => None,
        }
    }

    /// `(vertex, cell start before the level)` for every vertex the
    /// innermost open level has recolored, once each.
    pub fn recolored(&self) -> &[(V, u32)] {
        let from = self.levels.last().copied().unwrap_or(self.trail.len());
        &self.trail[from..]
    }

    /// Closes the innermost open level, restoring the cells as they were
    /// when it opened. Does nothing when no level is open.
    ///
    /// Every cell the level split kept its start for its remaining part,
    /// so moving each recolored vertex back and growing its old cell by
    /// one restores every `cell_start` and every cell's `cell_len`. The
    /// lengths left at the level's new starts, no longer cell starts,
    /// are never read.
    ///
    /// Closing the outermost level also frees the trail's memory: it is
    /// only needed while a level is open, and a refiner kept between
    /// searches should not carry the longest trail it ever logged.
    pub fn undo(&mut self) {
        let Some(from) = self.levels.pop() else {
            return;
        };
        for &(v, old) in &self.trail[from..] {
            self.cell_start[v as usize] = old;
            self.cell_len[old as usize] += 1;
        }
        if self.levels.is_empty() {
            self.trail = Vec::new();
            self.trail_at = Vec::new();
        } else {
            self.trail.truncate(from);
        }
    }

    fn enqueue(&mut self, s: u32) {
        if !self.in_queue[s as usize] {
            self.in_queue[s as usize] = true;
            self.queue.push_back(s);
        }
    }

    // dvicl-lint: allow(budget-reachability) -- O(cells) worklist seeding; run() meters the refinement that follows
    fn enqueue_all_cells(&mut self) {
        let n = self.n();
        let mut s = 0usize;
        while s < n {
            // dvicl-lint: allow(narrowing-cast) -- s < n <= V::MAX
            self.enqueue(s as u32);
            s += self.cell_len[s] as usize;
        }
    }

    /// Refines to the coarsest equitable partition using `k`, returning
    /// the trace hash. All current cells are used as initial splitters.
    /// Resets `k` for `g`: a refinement starts a new run on a graph.
    #[expect(
        clippy::expect_used,
        reason = "run() only errs on budget exhaustion, and no budget is passed here"
    )]
    pub fn refine(&mut self, g: &Graph, k: &mut impl RefineKernel) -> u64 {
        k.reset(g);
        self.enqueue_all_cells();
        self.run(g, k, 0x5ee2_c3a1_d00d_f00d, None)
            .expect("un-budgeted refinement cannot fail")
    }

    /// Budgeted [`Partition::refine`]: spends one work unit per splitter
    /// processed, so a deadline interrupts refinement itself, not just
    /// the search loop around it.
    pub fn try_refine(
        &mut self,
        g: &Graph,
        k: &mut impl RefineKernel,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        k.reset(g);
        self.enqueue_all_cells();
        self.run(g, k, 0x5ee2_c3a1_d00d_f00d, Some(budget))
    }

    /// Opens an undo level, individualizes `v` (splitting it to the front
    /// of its cell) and refines with the two fragments as seeds, using
    /// `k` as the last [`Partition::refine`] left it: the graph is the
    /// same, so neither the kernel's reset nor its adjacency rows run
    /// again. Panics if `v` is already in a singleton cell. Returns the
    /// trace hash, seeded with `v`'s color — an isomorphism-invariant of
    /// the branching decision. [`Partition::undo`] restores the cells.
    pub fn try_individualize_and_refine(
        &mut self,
        g: &Graph,
        k: &mut impl RefineKernel,
        v: V,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        self.trail_at.resize(self.n(), 0);
        self.levels.push(self.trail.len());
        let seed = self.seed_individualize(v);
        self.run(g, k, seed, Some(budget))
    }

    // dvicl-lint: allow(budget-reachability) -- O(cell length) splice of {v} to the cell front; run() meters the refinement that follows
    fn seed_individualize(&mut self, v: V) -> u64 {
        let s = self.cell_start[v as usize];
        let len = self.cell_len[s as usize];
        assert!(len > 1, "cannot individualize a singleton cell");
        // Swap v to the front of its cell and split off {v}.
        let pv = self.pos[v as usize];
        let first = self.lab[s as usize];
        self.lab[s as usize] = v;
        self.lab[pv as usize] = first;
        self.pos[v as usize] = s;
        self.pos[first as usize] = pv;
        self.cell_len[s as usize] = 1;
        self.cell_len[s as usize + 1] = len - 1;
        for i in (s + 1)..(s + len) {
            self.set_cell_start(self.lab[i as usize], s + 1);
        }
        self.enqueue(s);
        self.enqueue(s + 1);
        mix(0x01d1_71da_71ba_5eed, s as u64)
    }

    /// Core worklist loop. `seed` initializes the trace hash; one work
    /// unit is spent per splitter when a budget is supplied. The kernel
    /// decides how each splitter's counts are computed; the loop, the
    /// budget metering and the trace-per-splitter mix are shared with
    /// the test oracle.
    fn run(
        &mut self,
        g: &Graph,
        k: &mut impl RefineKernel,
        seed: u64,
        budget: Option<&Budget>,
    ) -> Result<u64, DviclError> {
        let mut trace = seed;
        while let Some(s) = self.queue.pop_front() {
            dvicl_obs::bump(dvicl_obs::Counter::RefineRounds);
            if let Some(b) = budget {
                b.spend(1)?;
            }
            self.in_queue[s as usize] = false;
            trace = mix(trace, 0xA110 ^ (s as u64) << 16);
            trace = k.split_by(self, g, s, trace);
            // Early exit: a discrete partition cannot split further.
            // (Checked cheaply: every cell len 1 iff no queue progress can
            // help, but scanning is O(n); rely on natural termination.)
        }
        Ok(trace)
    }

    /// The kernel-shared rewrite half of one cell split. `touched` lists
    /// members of the cell at start `c` as `(splitter-neighbor count,
    /// vertex)` pairs sorted ascending, in one of two forms:
    ///
    /// * the whole cell, zero counts included (the kernel's popcount
    ///   path and the test oracle) — every member is rewritten;
    /// * only the members with a nonzero count (the kernel's scatter
    ///   path), while `Partition::cnt` still holds those counts.
    ///   The untouched rest forms the count-0 fragment, which keeps start
    ///   `c`: its members keep their `cell_start`, and only the touched
    ///   tail `[c + untouched, c + len)` is rewritten. Touched members
    ///   sitting in the head are first swapped with untouched members of
    ///   the tail, found by `cnt == 0`, so a split costs O(touched), not
    ///   O(len).
    ///
    /// `touched` need only be sorted ascending by count; the order of
    /// equal-count members decides only the order inside their fragment.
    ///
    /// Both forms produce the same fragment stream: Hopcroft's
    /// largest-fragment worklist exemption, the `(start, len, count)`
    /// trace mix per fragment and fragment enqueueing, all in
    /// ascending-count order. They differ only in the vertex order
    /// *inside* a fragment's span, which nothing observes (`to_coloring`
    /// sorts every cell, the search sorts its candidates, and a singleton
    /// has one order). Returns the updated trace (unchanged when the
    /// counts are uniform and nothing splits).
    ///
    /// Every [`RefineKernel`] funnels its splits through here, which is
    /// what pins the kernel's partitions and traces to the oracle's: a
    /// kernel only chooses *how counts are computed*, never how a split
    /// is realized.
    // dvicl-lint: allow(budget-reachability) -- O(touched) rewrite of one cell span; run() meters the worklist that drives it
    pub(crate) fn split_touched(&mut self, c: usize, touched: &[(u32, V)], mut trace: u64) -> u64 {
        let len = self.cell_len[c] as usize;
        let t = touched.len();
        debug_assert!(t > 0 && t <= len);
        let untouched = len - t;
        debug_assert!(untouched == 0 || touched[0].0 > 0);
        if untouched == 0 && touched[0].0 == touched[t - 1].0 {
            return trace; // no split
        }
        let tail = c + untouched;
        // Hopcroft rule: if the split cell is not itself pending as a
        // splitter, the largest fragment can stay off the worklist — the
        // other fragments subsume its splitting power. (If it IS pending,
        // every fragment must be queued to preserve its pending role.)
        let mut largest_start = u32::MAX;
        if !self.in_queue[c] {
            let mut largest_len = 0u32;
            if untouched > 0 {
                // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                (largest_len, largest_start) = (untouched as u32, c as u32);
            }
            let mut i = 0usize;
            while i < t {
                let j = fragment_end(touched, i);
                // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                if (j - i) as u32 > largest_len {
                    // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                    largest_len = (j - i) as u32;
                    // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                    largest_start = (tail + i) as u32;
                }
                i = j;
            }
        }
        if untouched > 0 {
            // Move untouched members out of the tail into the head slots
            // that touched members vacate; the tail rewrite below then
            // overwrites every tail slot.
            let mut j = tail;
            for &(_, v) in touched {
                let pv = self.pos[v as usize] as usize;
                if pv < tail {
                    while self.cnt[self.lab[j] as usize] != 0 {
                        j += 1;
                    }
                    let u = self.lab[j];
                    self.lab[pv] = u;
                    // dvicl-lint: allow(narrowing-cast) -- pv < n <= V::MAX
                    self.pos[u as usize] = pv as u32;
                    j += 1;
                }
            }
            // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
            trace = self.finish_fragment(c as u32, untouched as u32, 0, largest_start, trace);
        }
        // Rewrite the tail and fix up bookkeeping per fragment.
        let mut i = 0usize;
        while i < t {
            let count = touched[i].0;
            let j = fragment_end(touched, i);
            // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
            let frag_start = (tail + i) as u32;
            for (k, &(_, v)) in touched[i..j].iter().enumerate() {
                let p = tail + i + k;
                self.lab[p] = v;
                // dvicl-lint: allow(narrowing-cast) -- p < n <= V::MAX
                self.pos[v as usize] = p as u32;
                self.set_cell_start(v, frag_start);
            }
            // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
            trace = self.finish_fragment(frag_start, (j - i) as u32, count, largest_start, trace);
            i = j;
        }
        trace
    }

    /// Per-fragment bookkeeping of [`Partition::split_touched`], once the
    /// fragment's members sit in `[start, start + len)`: records its
    /// length, mixes `(start, len, count)` into the trace and enqueues it
    /// unless it is the Hopcroft-exempt largest fragment.
    fn finish_fragment(
        &mut self,
        start: u32,
        len: u32,
        count: u32,
        largest_start: u32,
        trace: u64,
    ) -> u64 {
        self.cell_len[start as usize] = len;
        if start != largest_start {
            self.enqueue(start);
        }
        mix(
            trace,
            ((start as u64) << 40) ^ ((len as u64) << 20) ^ count as u64,
        )
    }
}

/// End (exclusive) of the equal-count run of `members` starting at `i`.
// dvicl-lint: allow(budget-reachability) -- O(fragment length) scan inside one split; run() meters the worklist that drives it
fn fragment_end(members: &[(u32, V)], i: usize) -> usize {
    let count = members[i].0;
    let mut j = i;
    while j < members.len() && members[j].0 == count {
        j += 1;
    }
    j
}
