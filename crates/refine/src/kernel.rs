//! The refinement kernel: the strategy that turns one splitter into
//! cell splits.
//!
//! [`Partition`] owns the worklist discipline (pop splitter → split
//! affected cells → enqueue fragments) and the *rewrite* half of every
//! split ([`Partition::split_touched`]: Hopcroft's largest-fragment
//! rule, span rewriting, the undo trail, the trace hash). The
//! [`BitsetKernel`] owns only the *counting and ordering* half: given a
//! splitter cell, produce for each affected cell its members (all of
//! them, or only the touched ones) as `(neighbor-count, vertex)` pairs
//! sorted ascending by count. It has two counting paths, chosen per
//! splitter from the vertex count and density:
//!
//! * scatter — persistent scratch buffers, an O(touched) per-cell
//!   uniformity filter, and splits that sort and rewrite only a cell's
//!   touched members (O(touched · log touched));
//! * popcount — on graphs small enough that adjacency rows fit in a few
//!   words each ([`POPCOUNT_MAX_N`]), u64-word adjacency bitset rows
//!   count splitter neighbors with `popcount(row & splitter_mask)`
//!   instead of scattering — the word-parallel path that pays off on
//!   the dense local subgraphs `CombineCL` labels — and split those
//!   cells with a degree-bucket radix sort.
//!
//! [`RefineKernel`] is crate-private and exists for one reason: the
//! parity tests at the end of this file drive the same [`Partition`]
//! run with a sorting-based oracle kernel and compare partitions and
//! traces with this kernel's.

use crate::partition::Partition;
use dvicl_graph::{Graph, V};
use dvicl_obs::{self as obs, Counter};

/// The bitset kernel builds full adjacency bitset rows — and counts
/// splitter neighbors by `popcount` — at or below this vertex count.
/// 256 vertices is 4 words per row (8 KiB of rows), small enough that
/// the whole structure stays cache-resident and the per-run rebuild is
/// cheaper than the scatter passes it replaces.
const POPCOUNT_MAX_N: usize = 256;

/// Cells shorter than this are split with a comparison sort even on the
/// popcount path: the radix split's histogram only amortizes once the
/// sort it replaces is superlinear in practice.
const RADIX_MIN_LEN: usize = 32;

/// The per-splitter strategy a [`Partition`] run calls: how to count
/// splitter-neighbors and order cell members. Implementations must feed
/// [`Partition::split_touched`] members sorted ascending by count —
/// that contract is what lets the test oracle reproduce this crate's
/// traces and certificates exactly (the order of equal-count members is
/// not observable).
pub(crate) trait RefineKernel {
    /// Prepares per-graph state. Called by [`Partition::refine`] and
    /// [`Partition::try_refine`] before their worklist loop; `g` is the
    /// graph every subsequent [`RefineKernel::split_by`] will see,
    /// through the individualizing runs that follow on the same
    /// partition.
    fn reset(&mut self, g: &Graph);

    /// Uses the cell at start `s` as a splitter: counts each vertex's
    /// neighbors in that cell and splits every affected cell via
    /// [`Partition::split_touched`]. Returns the updated trace.
    fn split_by(&mut self, p: &mut Partition, g: &Graph, s: u32, trace: u64) -> u64;
}

/// The refinement kernel: persistent scratch, an O(touched) uniformity
/// filter and touched-only splits on the scatter path, and — on graphs
/// of at most [`POPCOUNT_MAX_N`] vertices — u64-word adjacency bitset
/// rows with popcount-counted, radix-sorted splits.
#[derive(Default)]
pub(crate) struct BitsetKernel {
    /// Words per n-bit row (`ceil(n / 64)`).
    words: usize,
    /// Vertex count of the current run's graph.
    n: usize,
    /// Adjacency bitset rows, `n * words` words; built lazily by the
    /// first popcount-eligible splitter after a reset (at most
    /// [`POPCOUNT_MAX_N`] vertices), empty until then. Cleared by every
    /// [`RefineKernel::reset`], which each new graph goes through, so a
    /// stale graph-to-rows association cannot exist.
    adj: Vec<u64>,
    /// Splitter-membership mask (popcount path only).
    splitter_mask: Vec<u64>,
    /// Vertices with a nonzero scatter count (scatter path).
    touched: Vec<V>,
    /// Affected (or, on the popcount path, all non-singleton) cell
    /// starts, ascending.
    affected: Vec<u32>,
    /// `(count, vertex)` pairs: one cell's members on the popcount path;
    /// on the scatter path, the touched members of every splitting cell,
    /// bucketed by cell in ascending cell order.
    members: Vec<(u32, V)>,
    /// Radix-ordered copy of `members` (popcount path).
    sorted: Vec<(u32, V)>,
    /// Count histogram for the radix split.
    hist: Vec<u32>,
    /// Per-cell aggregates over *touched* members (scatter path),
    /// indexed by cell start and reset through `affected` after every
    /// splitter: how many members were touched, and the min/max of
    /// their counts. A cell splits iff some member was untouched
    /// (`touched < len`, giving a zero-count fragment) or the touched
    /// counts differ — decidable in O(touched) without scanning the
    /// cell, which is what makes repeatedly-grazed hub cells cheap.
    /// `touched_cnt` doubles as the bucket cursor of a splitting cell
    /// while its touched members are gathered.
    touched_cnt: Vec<u32>,
    touched_min: Vec<u32>,
    touched_max: Vec<u32>,
}

impl BitsetKernel {
    /// A member's splitter-neighbor count: `popcount(adjacency row &
    /// splitter mask)`.
    #[inline]
    // dvicl-lint: allow(budget-reachability) -- O(n / 64) row AND; run() spends one unit per splitter whose split calls it
    fn popcount_of(&self, v: V) -> u32 {
        let row = &self.adj[v as usize * self.words..(v as usize + 1) * self.words];
        let mut cnt = 0u32;
        for (a, b) in row.iter().zip(&self.splitter_mask) {
            cnt += (a & b).count_ones();
        }
        cnt
    }

    /// Splits the cell `[c, c+len)` on popcount counts, feeding
    /// [`Partition::split_touched`] the whole cell ordered ascending by
    /// count. One gather pass computes the count range and exits early
    /// on uniform cells.
    ///
    /// Splitting cells go through the degree-bucket radix path (stable
    /// counting sort, members in span order within each count) when
    /// large enough, or a plain comparison sort when the cell is too
    /// small for a histogram to pay, or the counts too spread for one.
    /// Returns the updated trace.
    fn split_cell(&mut self, p: &mut Partition, c: usize, len: usize, trace: u64) -> u64 {
        // Gather (count, vertex) in span order, tracking the count range.
        let mut min_c = u32::MAX;
        let mut max_c = 0u32;
        self.members.clear();
        for &v in &p.lab[c..c + len] {
            let cv = self.popcount_of(v);
            min_c = min_c.min(cv);
            max_c = max_c.max(cv);
            self.members.push((cv, v));
        }
        if min_c == max_c {
            return trace; // uniform counts: no split
        }
        obs::bump(Counter::RefineSplitsPopcount);
        let spread = (max_c - min_c) as usize;
        if len >= RADIX_MIN_LEN && spread <= 4 * len {
            // Degree-bucket radix split: histogram the counts, then
            // place each member stably into its count bucket.
            self.hist.clear();
            self.hist.resize(spread + 1, 0);
            for &(cv, _) in &self.members {
                self.hist[(cv - min_c) as usize] += 1;
            }
            let mut run = 0u32;
            for h in &mut self.hist {
                let start = run;
                run += *h;
                *h = start;
            }
            self.sorted.clear();
            self.sorted.resize(len, (0, 0));
            for &(cv, v) in &self.members {
                let slot = self.hist[(cv - min_c) as usize];
                self.sorted[slot as usize] = (cv, v);
                self.hist[(cv - min_c) as usize] = slot + 1;
            }
            obs::bump(Counter::RadixSplits);
            p.split_touched(c, &self.sorted, trace)
        } else {
            // Small cell or counts too spread out for a histogram:
            // comparison sort.
            self.members.sort_unstable();
            p.split_touched(c, &self.members, trace)
        }
    }

    /// Word-parallel splitter pass: counts come from
    /// `popcount(adjacency row & splitter mask)` over every
    /// non-singleton cell (cells disjoint from the splitter's
    /// neighborhood count uniformly zero and split nothing, so skipping
    /// the scatter-based discovery is trace-neutral).
    fn split_by_popcount(&mut self, p: &mut Partition, g: &Graph, s: usize, len: usize, mut trace: u64) -> u64 {
        if self.adj.is_empty() {
            // Lazy row build: only runs that see a popcount-eligible
            // splitter pay for it.
            self.splitter_mask.clear();
            self.splitter_mask.resize(self.words, 0);
            self.adj.resize(self.n * self.words, 0);
            for u in 0..self.n {
                // dvicl-lint: allow(narrowing-cast) -- u < n <= V::MAX
                for &w in g.neighbors(u as V) {
                    self.adj[u * self.words + (w >> 6) as usize] |= 1u64 << (w & 63);
                }
            }
        }
        for w in &mut self.splitter_mask {
            *w = 0;
        }
        for &u in &p.lab[s..s + len] {
            self.splitter_mask[(u >> 6) as usize] |= 1u64 << (u & 63);
        }
        // Snapshot the non-singleton cell starts before any split moves
        // them — the same pre-split discovery discipline as the scatter
        // path (a split only subdivides a cell's own span, so the other
        // snapshot entries stay valid cell starts).
        self.affected.clear();
        let n = p.n();
        let mut c = 0usize;
        while c < n {
            let clen = p.cell_len[c] as usize;
            if clen > 1 {
                // dvicl-lint: allow(narrowing-cast) -- c < n <= V::MAX
                self.affected.push(c as u32);
            }
            c += clen;
        }
        for i in 0..self.affected.len() {
            let c = self.affected[i] as usize;
            let clen = p.cell_len[c] as usize;
            trace = self.split_cell(p, c, clen, trace);
        }
        trace
    }

    /// Scatter-counting splitter pass (same discovery order as the
    /// test oracle, persistent buffers). Work is O(touched) outside
    /// the per-cell sorts: the touched-aggregate filter drops uniform
    /// cells without scanning them, and each splitting cell hands only
    /// its touched members to [`Partition::split_touched`]. No splitter
    /// snapshot is taken: the scatter loop finishes before any split
    /// moves `lab`, so the splitter's span is stable while it is read.
    fn split_by_scatter(
        &mut self,
        p: &mut Partition,
        g: &Graph,
        s: usize,
        len: usize,
        mut trace: u64,
    ) -> u64 {
        self.touched.clear();
        for i in s..s + len {
            let u = p.lab[i];
            for &w in g.neighbors(u) {
                if p.cnt[w as usize] == 0 {
                    self.touched.push(w);
                }
                p.cnt[w as usize] += 1;
            }
        }
        if self.touched.is_empty() {
            return trace;
        }
        // Discover affected cells and aggregate their touched members
        // (counts are final once the scatter loop above completes).
        self.affected.clear();
        for i in 0..self.touched.len() {
            let w = self.touched[i];
            let c = p.cell_start[w as usize] as usize;
            if p.cell_len[c] <= 1 {
                continue;
            }
            if !p.in_affected[c] {
                p.in_affected[c] = true;
                // dvicl-lint: allow(narrowing-cast) -- c < n <= V::MAX
                self.affected.push(c as u32);
            }
            let cv = p.cnt[w as usize];
            self.touched_cnt[c] += 1;
            self.touched_min[c] = self.touched_min[c].min(cv);
            self.touched_max[c] = self.touched_max[c].max(cv);
        }
        self.affected.sort_unstable();
        // Keep only the cells that split (`in_affected` stays set on
        // them), turning each one's touched count into the start of its
        // bucket in `members`, in ascending cell order.
        let mut total = 0u32;
        self.affected.retain(|&c| {
            let c = c as usize;
            let tc = self.touched_cnt[c];
            let (lo, hi) = (self.touched_min[c], self.touched_max[c]);
            self.touched_min[c] = u32::MAX;
            self.touched_max[c] = 0;
            // Uniform iff every member was touched and with the same
            // count (untouched members count zero, touched are >= 1) —
            // skip such cells without scanning them, matching the
            // oracle's uniform no-op exactly.
            if tc == p.cell_len[c] && lo == hi {
                self.touched_cnt[c] = 0;
                p.in_affected[c] = false;
                return false;
            }
            self.touched_cnt[c] = total;
            total += tc;
            true
        });
        // Bucket the touched members of the splitting cells by cell;
        // afterwards each cell's cursor is the end of its bucket.
        self.members.clear();
        self.members.resize(total as usize, (0, 0));
        for &w in &self.touched {
            let c = p.cell_start[w as usize] as usize;
            if p.in_affected[c] {
                let slot = self.touched_cnt[c];
                self.members[slot as usize] = (p.cnt[w as usize], w);
                self.touched_cnt[c] = slot + 1;
            }
        }
        let mut start = 0usize;
        for &c in &self.affected {
            let c = c as usize;
            let end = self.touched_cnt[c] as usize;
            self.touched_cnt[c] = 0;
            p.in_affected[c] = false;
            let bucket = &mut self.members[start..end];
            bucket.sort_unstable();
            trace = p.split_touched(c, bucket, trace);
            start = end;
        }
        for &w in &self.touched {
            p.cnt[w as usize] = 0;
        }
        trace
    }
}

impl RefineKernel for BitsetKernel {
    fn reset(&mut self, g: &Graph) {
        let n = g.n();
        self.n = n;
        self.words = n.div_ceil(64);
        self.adj.clear();
        // Scatter-path aggregate arrays, at their resting state (no
        // touched members recorded); the per-splitter loop in
        // `split_by_scatter` restores this state after each use.
        self.touched_cnt.clear();
        self.touched_cnt.resize(n, 0);
        self.touched_min.clear();
        self.touched_min.resize(n, u32::MAX);
        self.touched_max.clear();
        self.touched_max.resize(n, 0);
    }

    fn split_by(&mut self, p: &mut Partition, g: &Graph, s: u32, trace: u64) -> u64 {
        let len = p.cell_len[s as usize] as usize;
        let s = s as usize;
        // Popcount pays when the splitter is large and the graph dense
        // enough: scatter costs the splitter's degree sum
        // (≈ len · 2m/n), popcount one masked row scan per vertex
        // (≈ n · words). Small (typically singleton) splitters — the
        // bulk of every run — stay on the scatter path even when rows
        // are available.
        if self.n <= POPCOUNT_MAX_N && 2 * len * g.m() >= self.n * self.n * self.words {
            self.split_by_popcount(p, g, s, len, trace)
        } else {
            self.split_by_scatter(p, g, s, len, trace)
        }
    }
}

#[cfg(test)]
mod tests {
    // Kernel parity: the `Refiner` must be observationally identical to a
    // plain sorting-based oracle — same equitable coloring *in the same cell
    // order* and same trace hash — on any colored graph. Everything
    // downstream (node invariants, certificates, orbit pruning) consumes
    // those two outputs, so this equality is what lets the kernel's
    // counting paths be pure wall-clock choices.
    //
    // The strategies deliberately straddle the kernel's internal thresholds:
    // small dense graphs exercise the popcount counting path, graphs with
    // few colors and ≥32-vertex cells exercise the radix (counting-sort)
    // split, and sparse scatterings exercise the adjacency-list path with
    // the touched-aggregate uniformity test and touched-only splits — large
    // sparse cells in particular, where most splits leave a big untouched
    // count-0 fragment in place and swap touched members out of its head.

    use super::RefineKernel;
    use crate::partition::Partition;
    use crate::{RefineResult, Refiner};
    use dvicl_govern::Budget;
    use dvicl_graph::{named, Coloring, Graph, V};
    use proptest::prelude::*;

    /// The oracle kernel: scatter counts, then comparison-sort each *whole*
    /// affected cell by `(count, vertex)`. Stateless — its scratch is
    /// allocated per splitter — and O(|cell|) per split, so it is simple
    /// enough to trust and slow enough to keep out of the runtime.
    struct GeneralKernel;

    impl RefineKernel for GeneralKernel {
        fn reset(&mut self, _g: &Graph) {}

        fn split_by(&mut self, p: &mut Partition, g: &Graph, s: u32, mut trace: u64) -> u64 {
            let len = p.cell_len[s as usize] as usize;
            let s = s as usize;
            // Snapshot the splitter's members (cells can move during splitting).
            let splitter: Vec<V> = p.lab[s..s + len].to_vec();
            // Count neighbors in the splitter.
            let mut touched: Vec<V> = Vec::new();
            for &u in &splitter {
                for &w in g.neighbors(u) {
                    if p.cnt[w as usize] == 0 {
                        touched.push(w);
                    }
                    p.cnt[w as usize] += 1;
                }
            }
            if touched.is_empty() {
                return trace;
            }
            // Group the touched vertices by their cell (flag-array dedup).
            let mut affected_cells: Vec<u32> = Vec::new();
            for &w in &touched {
                let c = p.cell_start[w as usize];
                if p.cell_len[c as usize] > 1 && !p.in_affected[c as usize] {
                    p.in_affected[c as usize] = true;
                    affected_cells.push(c);
                }
            }
            affected_cells.sort_unstable();
            for &c in &affected_cells {
                p.in_affected[c as usize] = false;
            }
            for c in affected_cells {
                // Gather (count, vertex) and sort; ties on equal counts sort
                // by vertex id, fixing the output representation.
                let c = c as usize;
                let clen = p.cell_len[c] as usize;
                let mut members: Vec<(u32, V)> = p.lab[c..c + clen]
                    .iter()
                    .map(|&v| (p.cnt[v as usize], v))
                    .collect();
                members.sort_unstable();
                trace = p.split_touched(c, &members, trace);
            }
            // Clear counts.
            for &w in &touched {
                p.cnt[w as usize] = 0;
            }
            trace
        }
    }

    /// The oracle's [`Refiner::refine`].
    fn oracle_refine(g: &Graph, pi: &Coloring) -> RefineResult {
        let mut p = Partition::default();
        p.reset_from_coloring(g.n(), pi);
        let trace = p.refine(g, &mut GeneralKernel);
        p.result(trace)
    }

    /// The oracle's [`Refiner::try_individualize`] after refining `pi`.
    fn oracle_individualized(g: &Graph, pi: &Coloring, v: V) -> RefineResult {
        let mut p = Partition::default();
        p.reset_from_coloring(g.n(), pi);
        p.refine(g, &mut GeneralKernel);
        let trace = p
            .try_individualize_and_refine(g, &mut GeneralKernel, v, &Budget::unlimited())
            .expect("unlimited refinement cannot fail");
        p.result(trace)
    }

    /// Individualizes `v` in place on `refiner` and reads the result.
    fn individualized(refiner: &mut Refiner, g: &Graph, v: V) -> RefineResult {
        let trace = refiner
            .try_individualize(g, v, &Budget::unlimited())
            .expect("unlimited refinement cannot fail");
        RefineResult {
            coloring: refiner.partition().to_coloring(),
            trace,
        }
    }

    /// Random colored graphs around the scatter/popcount boundary.
    fn arb_colored_graph() -> impl Strategy<Value = (Graph, Coloring)> {
        (2usize..40).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..120),
                proptest::collection::vec(0u32..4, n),
            )
                .prop_map(move |(edges, labels)| {
                    (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
                })
        })
    }

    /// Dense graphs (m ≈ n²/4) small enough for the popcount gate.
    fn arb_dense_graph() -> impl Strategy<Value = (Graph, Coloring)> {
        (8usize..48).prop_flat_map(|n| {
            let m = n * n / 4;
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), m..m + n),
                proptest::collection::vec(0u32..3, n),
            )
                .prop_map(move |(edges, labels)| {
                    (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
                })
        })
    }

    /// Large near-monochrome graphs: the initial cells hold ≥32 vertices,
    /// so splits take the radix (degree-bucket counting sort) path.
    fn arb_big_cell_graph() -> impl Strategy<Value = (Graph, Coloring)> {
        (64usize..140).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), n..4 * n),
                proptest::collection::vec(0u32..2, n),
            )
                .prop_map(move |(edges, labels)| {
                    (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
                })
        })
    }

    /// Large sparse graphs (m ≈ n, 1–2 colors): big cells that each
    /// splitter grazes, so touched-only splits run with touched members on
    /// both sides of the untouched/touched boundary, and later splits see
    /// the non-ascending spans earlier ones left behind.
    fn arb_large_sparse_graph() -> impl Strategy<Value = (Graph, Coloring)> {
        (200usize..2000).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), n - n / 8..n + n / 8),
                proptest::collection::vec(0u32..2, n),
            )
                .prop_map(move |(edges, labels)| {
                    (Graph::from_edges(n, &edges), Coloring::from_labels(&labels))
                })
        })
    }

    fn assert_parity(g: &Graph, pi: &Coloring) -> Result<(), String> {
        let a = oracle_refine(g, pi);
        let mut refiner = Refiner::new();
        let b = refiner.refine(g, pi);
        // Full structural equality: coloring (cells AND their order) and
        // trace. `Coloring::to_string` is cell-order-sensitive, so compare
        // it too for a readable failure message.
        prop_assert_eq!(
            a.coloring.to_string(),
            b.coloring.to_string(),
            "cell order diverged"
        );
        prop_assert_eq!(&a, &b);
        // Individualize the first and last vertices of the first
        // non-singleton cell in place: the swapped, non-ascending cell
        // layouts and the incremental splitter queue must agree with the
        // oracle, and undo must restore the refined cells exactly, so the
        // second child refines as if it were the first.
        if let Some(cell) = a.coloring.cells().iter().find(|c| c.len() > 1) {
            for v in [cell[0], cell[cell.len() - 1]] {
                let ai = oracle_individualized(g, pi, v);
                let bi = individualized(&mut refiner, g, v);
                prop_assert_eq!(&ai, &bi);
                refiner.undo();
                prop_assert_eq!(&refiner.partition().to_coloring(), &b.coloring);
            }
        }
        Ok(())
    }

    proptest! {
        /// Oracle vs refiner on random colored graphs: same partition, same
        /// cell order, same trace, same singleton order.
        #[test]
        fn kernels_agree_on_random_graphs((g, pi) in arb_colored_graph()) {
            assert_parity(&g, &pi)?;
        }

        /// Parity through the popcount counting path (dense, small n).
        #[test]
        fn kernels_agree_on_dense_graphs((g, pi) in arb_dense_graph()) {
            assert_parity(&g, &pi)?;
        }

        /// Parity through the radix split path (cells ≥ 32 vertices).
        #[test]
        fn kernels_agree_on_big_cells((g, pi) in arb_big_cell_graph()) {
            assert_parity(&g, &pi)?;
        }

        /// A refiner that already refined one graph gives a second graph
        /// the same result a fresh refiner does: the lazily built adjacency
        /// rows and the scatter aggregates are reset per run, never reused
        /// across graphs.
        #[test]
        fn refiner_reuse_matches_fresh_refiner(
            (g1, pi1) in arb_dense_graph(),
            (g2, pi2) in arb_dense_graph(),
        ) {
            let mut warm = Refiner::new();
            warm.refine(&g1, &pi1);
            prop_assert_eq!(warm.refine(&g2, &pi2), Refiner::new().refine(&g2, &pi2));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Parity through touched-only splits of large sparse cells.
        #[test]
        fn kernels_agree_on_large_sparse_graphs((g, pi) in arb_large_sparse_graph()) {
            assert_parity(&g, &pi)?;
        }
    }

    #[test]
    fn kernels_agree_on_named_graphs() {
        // The named families the engine actually refines: trees stay on
        // the scatter path, while the dense and regular graphs' large
        // splitters take the popcount path.
        for g in [
            named::fig1_example(),
            named::fig3_example(),
            named::petersen(),
            named::frucht(),
            named::hypercube(4),
            named::hypercube(5),
            named::rary_tree(3, 3),
            named::rary_tree(2, 6),
            named::complete_bipartite(7, 9),
        ] {
            let pi = Coloring::unit(g.n());
            assert_eq!(oracle_refine(&g, &pi), Refiner::new().refine(&g, &pi));
        }
    }
}
