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
//!
//! A partition loaded for a search also keeps the starts of its
//! non-singleton cells as a sparse set ([`Partition::keep_non_singleton`]):
//! each split and each individualization updates it in O(1) per fragment,
//! and an open level logs every insertion and removal so that undo can
//! replay them backwards. A plain refinement never builds or keeps it.

#![expect(
    clippy::cast_possible_truncation,
    reason = "every position, cell start, cell length and trail offset here is at most n <= V::MAX"
)]

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
    levels: Vec<Level>,
    trail_at: Vec<u32>,
    // The starts of the non-singleton cells as a sparse set, kept only
    // while `keeps_ns` is set: `ns` lists them in no particular order and
    // `ns_at[s]` is `s`'s index in `ns`, valid only while `s` is a member.
    // `ns_log` records each insertion and removal an open level made.
    keeps_ns: bool,
    ns: Vec<u32>,
    ns_at: Vec<u32>,
    ns_log: Vec<NsOp>,
}

/// Where an open undo level starts in the trail and in the set's log.
#[derive(Clone, Copy)]
struct Level {
    trail: usize,
    ns_log: usize,
}

/// One change an open level made to the non-singleton set.
#[derive(Clone, Copy)]
enum NsOp {
    Inserted(u32),
    Removed(u32),
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
    /// internal buffer: `lab` and `cell_start` are copies of the
    /// coloring's vertex order and colors, and each cell's length is
    /// counted from the colors. State after this call is identical to a
    /// fresh partition's — only the allocations differ, which is what lets
    /// the IR search refine thousands of nodes without a single per-node
    /// `Vec` allocation.
    // dvicl-lint: allow(budget-reachability) -- O(n) copy of one coloring per load; the refinement that follows spends the budget
    pub fn reset_from_coloring(&mut self, n: usize, pi: &Coloring) {
        assert_eq!(n, pi.n());
        self.lab.clear();
        self.lab.extend_from_slice(pi.vertices());
        self.cell_start.clear();
        self.cell_start.extend_from_slice(pi.colors());
        self.cell_len.clear();
        self.cell_len.resize(n, 0);
        for &s in &self.cell_start {
            self.cell_len[s as usize] += 1;
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        for (i, &v) in (0..).zip(&self.lab) {
            self.pos[v as usize] = i;
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
        self.keeps_ns = false;
        self.ns.clear();
        self.ns_log.clear();
    }

    /// Builds the non-singleton set with one scan of the cells and keeps
    /// it from now on, through every individualization and undo, until
    /// the next [`Partition::reset_from_coloring`].
    // dvicl-lint: allow(budget-reachability) -- O(cells) scan once per search load; the refinement before it spent the budget
    pub fn keep_non_singleton(&mut self) {
        let n = self.n();
        self.ns.clear();
        self.ns_at.resize(n, 0);
        let mut s = 0usize;
        while s < n {
            let len = self.cell_len[s] as usize;
            if len > 1 {
                self.ns_at[s] = self.ns.len() as u32;
                self.ns.push(s as u32);
            }
            s += len;
        }
        self.keeps_ns = true;
    }

    fn ns_insert(&mut self, s: u32) {
        self.ns_at[s as usize] = self.ns.len() as u32;
        self.ns.push(s);
    }

    fn ns_remove(&mut self, s: u32) {
        let i = self.ns_at[s as usize];
        if let Some(last) = self.ns.pop() {
            if last != s {
                self.ns[i as usize] = last;
                self.ns_at[last as usize] = i;
            }
        }
    }

    /// Records that the cell at `start` now has length `len` after a split
    /// of the cell at `parent` (the same start for the fragment that kept
    /// it): a kept start leaves the set once its cell is a singleton, and
    /// a new start joins it unless its cell is one.
    #[inline]
    fn ns_split(&mut self, parent: u32, start: u32, len: u32) {
        if !self.keeps_ns {
            return;
        }
        let op = if start == parent {
            if len > 1 {
                return;
            }
            self.ns_remove(start);
            NsOp::Removed(start)
        } else {
            if len == 1 {
                return;
            }
            self.ns_insert(start);
            NsOp::Inserted(start)
        };
        if !self.levels.is_empty() {
            self.ns_log.push(op);
        }
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
            non_singleton: self.keeps_ns.then_some(self.ns.as_slice()),
        }
    }

    /// Sets `v`'s cell start. If this changes it while a level is open
    /// and the level has not recolored `v` yet, logs the old value.
    #[inline]
    fn set_cell_start(&mut self, v: V, start: u32) {
        let old = self.cell_start[v as usize];
        if old != start {
            if let Some(&Level { trail: from, .. }) = self.levels.last() {
                if self.recolored_from(v).is_none() {
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
        let from = self.levels.last()?.trail;
        match self.trail.get(from + self.trail_at[v as usize] as usize) {
            Some(&(u, old)) if u == v => Some(old),
            _ => None,
        }
    }

    /// `(vertex, cell start before the level)` for every vertex the
    /// innermost open level has recolored, once each.
    pub fn recolored(&self) -> &[(V, u32)] {
        let from = self.levels.last().map_or(self.trail.len(), |l| l.trail);
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
    /// The non-singleton set is restored by replaying the level's log
    /// backwards, each insertion as a removal and each removal as an
    /// insertion.
    ///
    /// Closing the outermost level also frees the trail's and the log's
    /// memory: they are only needed while a level is open, and a refiner
    /// kept between searches should not carry the longest trail it ever
    /// logged.
    // dvicl-lint: allow(budget-reachability) -- replays the entries one level logged; the refinement that logged them spent one unit per splitter
    pub fn undo(&mut self) {
        let Some(level) = self.levels.pop() else {
            return;
        };
        for &(v, old) in &self.trail[level.trail..] {
            self.cell_start[v as usize] = old;
            self.cell_len[old as usize] += 1;
        }
        for i in (level.ns_log..self.ns_log.len()).rev() {
            match self.ns_log[i] {
                NsOp::Inserted(s) => self.ns_remove(s),
                NsOp::Removed(s) => self.ns_insert(s),
            }
        }
        if self.levels.is_empty() {
            self.trail = Vec::new();
            self.trail_at = Vec::new();
            self.ns_log = Vec::new();
        } else {
            self.trail.truncate(level.trail);
            self.ns_log.truncate(level.ns_log);
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
        let mut s = 0u32;
        while (s as usize) < n {
            self.enqueue(s);
            s += self.cell_len[s as usize];
        }
    }

    /// Refines to the coarsest equitable partition using `k`, returning
    /// the trace hash. All current cells are used as initial splitters.
    /// Resets `k` for `g`: a refinement starts a new run on a graph.
    /// Spends one work unit per splitter processed, so a deadline
    /// interrupts refinement itself, not just the search loop around it.
    pub fn try_refine(
        &mut self,
        g: &Graph,
        k: &mut impl RefineKernel,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        k.reset(g);
        self.enqueue_all_cells();
        self.run(g, k, 0x5ee2_c3a1_d00d_f00d, budget)
    }

    /// Opens an undo level, individualizes `v` (splitting it to the front
    /// of its cell) and refines with the two fragments as seeds, using
    /// `k` as the last [`Partition::try_refine`] left it: the graph is the
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
        self.levels.push(Level {
            trail: self.trail.len(),
            ns_log: self.ns_log.len(),
        });
        let seed = self.seed_individualize(v);
        self.run(g, k, seed, budget)
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
        self.ns_split(s, s, 1);
        self.ns_split(s, s + 1, len - 1);
        self.enqueue(s);
        self.enqueue(s + 1);
        mix(0x01d1_71da_71ba_5eed, s as u64)
    }

    /// Core worklist loop. `seed` initializes the trace hash; one work
    /// unit is spent per splitter. The kernel
    /// decides how each splitter's counts are computed; the loop, the
    /// budget metering and the trace-per-splitter mix are shared with
    /// the test oracle.
    fn run(
        &mut self,
        g: &Graph,
        k: &mut impl RefineKernel,
        seed: u64,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        let mut trace = seed;
        while let Some(s) = self.queue.pop_front() {
            dvicl_obs::bump(dvicl_obs::Counter::RefineRounds);
            budget.spend(1)?;
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
    /// reads only the colors, the search sorts its candidates, and a
    /// singleton has one order). Returns the updated trace (unchanged when the
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
                (largest_len, largest_start) = (untouched as u32, c as u32);
            }
            let mut i = 0usize;
            while i < t {
                let j = fragment_end(touched, i);
                if (j - i) as u32 > largest_len {
                    largest_len = (j - i) as u32;
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
                    self.pos[u as usize] = pv as u32;
                    j += 1;
                }
            }
            trace = self.finish_fragment(
                c as u32,
                c as u32,
                untouched as u32,
                0,
                largest_start,
                trace,
            );
        }
        // Rewrite the tail and fix up bookkeeping per fragment.
        let mut i = 0usize;
        while i < t {
            let count = touched[i].0;
            let j = fragment_end(touched, i);
            let frag_start = (tail + i) as u32;
            for (k, &(_, v)) in touched[i..j].iter().enumerate() {
                let p = tail + i + k;
                self.lab[p] = v;
                self.pos[v as usize] = p as u32;
                self.set_cell_start(v, frag_start);
            }
            trace = self.finish_fragment(
                c as u32,
                frag_start,
                (j - i) as u32,
                count,
                largest_start,
                trace,
            );
            i = j;
        }
        trace
    }

    /// Per-fragment bookkeeping of [`Partition::split_touched`], once the
    /// fragment's members sit in `[start, start + len)` of the split cell
    /// at `parent`: records its length, updates the non-singleton set,
    /// mixes `(start, len, count)` into the trace and enqueues it unless
    /// it is the Hopcroft-exempt largest fragment.
    fn finish_fragment(
        &mut self,
        parent: u32,
        start: u32,
        len: u32,
        count: u32,
        largest_start: u32,
        trace: u64,
    ) -> u64 {
        self.cell_len[start as usize] = len;
        self.ns_split(parent, start, len);
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
