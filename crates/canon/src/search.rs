//! The backtrack search over the individualization-refinement tree.

use crate::tree::{NodeRecord, SearchTree};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{as_vertex, CanonForm, Coloring, Graph, Perm, V};
use dvicl_group::Orbits;
use dvicl_obs::{self as obs, Counter, Phase};
use dvicl_refine::{PartitionView, Refiner};
use std::cmp::{Ordering, Reverse};

/// Target cell selector `T` (Section 4): which non-singleton cell of the
/// node's coloring to individualize. All choices are functions of cell
/// *positions and sizes* only, hence isomorphism-invariant as required by
/// property (iii) of `T`. Ties are broken by position (the cell's start,
/// its color), as each variant states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetCell {
    /// The first (lowest-position) non-singleton cell — the choice of \[18\],
    /// used by bliss and in the paper's Fig. 1(b).
    FirstNonSingleton,
    /// The first *smallest* non-singleton cell: least length, then least
    /// start — nauty's classic choice \[26\].
    SmallestFirst,
    /// The *last* largest non-singleton cell: greatest length, then
    /// greatest start — stands in for traces' preference for large cells
    /// in this reproduction.
    LargestFirst,
    /// The first most-constrained non-singleton cell: the one adjacent
    /// to the largest number of *distinct* cells, then least start — a
    /// DSATUR-style saturation choice. Individualizing inside a
    /// highly-saturated cell tends to split the most cells in the next
    /// refinement. In an equitable coloring every member of a cell sees
    /// the same multiset of neighbor colors, so one member's neighborhood
    /// determines the whole cell's saturation and the choice stays
    /// isomorphism-invariant.
    MostConstrained,
}

impl TargetCell {
    /// Applies the selector to an equitable partition of `g` loaded for
    /// a search ([`Refiner::try_refine_in_place`]); `None` if discrete.
    /// Reads only the partition's non-singleton cells. The returned cell
    /// lists its members in no particular order.
    pub fn select<'a>(&self, g: &Graph, pi: PartitionView<'a>) -> Option<&'a [V]> {
        let starts = pi.non_singleton().iter().copied();
        let len = |c: V| pi.cell(c).len();
        let start = match self {
            TargetCell::FirstNonSingleton => starts.min(),
            TargetCell::SmallestFirst => starts.min_by_key(|&c| (len(c), c)),
            TargetCell::LargestFirst => starts.max_by_key(|&c| (len(c), c)),
            TargetCell::MostConstrained => {
                let mut cols: Vec<V> = Vec::new();
                starts.max_by_key(|&c| {
                    cols.clear();
                    cols.extend(g.neighbors(pi.cell(c)[0]).iter().map(|&w| pi.color_of(w)));
                    cols.sort_unstable();
                    cols.dedup();
                    (cols.len(), Reverse(c))
                })
            }
        }?;
        Some(pi.cell(start))
    }

    /// The selector's stable name
    /// (`first`/`smallest`/`largest`/`most-constrained`), which keys the
    /// rows of the search goldens.
    pub fn name(self) -> &'static str {
        match self {
            TargetCell::FirstNonSingleton => "first",
            TargetCell::SmallestFirst => "smallest",
            TargetCell::LargestFirst => "largest",
            TargetCell::MostConstrained => "most-constrained",
        }
    }
}

/// Engine configuration: the knobs the paper attributes to the three
/// baseline tools.
///
/// A certificate is canonical for one configuration only: two graphs
/// labeled under different configurations are not comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Target cell selector.
    pub target_cell: TargetCell,
    /// Use refinement traces as the node invariant `φ` (pruning `P_A`,
    /// `P_B`). Without it only automorphism pruning `P_C` applies.
    pub use_invariant: bool,
    /// Record the search tree (for figures/examples; small graphs only).
    pub record_tree: bool,
}

impl Config {
    /// The bliss-like configuration (first non-singleton cell, invariants
    /// on) — the default, and the labeler `DviCL+b` delegates to.
    pub fn bliss_like() -> Self {
        Config {
            target_cell: TargetCell::FirstNonSingleton,
            use_invariant: true,
            record_tree: false,
        }
    }

    /// The nauty-like configuration (smallest cell first, weaker pruning:
    /// no trace invariant).
    pub fn nauty_like() -> Self {
        Config {
            target_cell: TargetCell::SmallestFirst,
            use_invariant: false,
            record_tree: false,
        }
    }

    /// The traces-like configuration (the last largest cell, invariants
    /// on).
    pub fn traces_like() -> Self {
        Config {
            target_cell: TargetCell::LargestFirst,
            use_invariant: true,
            record_tree: false,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::bliss_like()
    }
}

/// Search statistics (tree size, pruning effectiveness).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Tree nodes visited.
    pub nodes: u64,
    /// Leaves reached.
    pub leaves: u64,
    /// Subtrees pruned by the node invariant (`P_A`/`P_B`).
    pub pruned_invariant: u64,
    /// Branches skipped by discovered automorphisms (`P_C`).
    pub pruned_orbit: u64,
    /// Automorphism generators recorded.
    pub generators_found: u64,
    /// Maximum depth reached.
    pub max_depth: u32,
}

/// The output of a canonical labeling run.
pub struct CanonResult {
    /// The canonical labeling `γ*`: vertex → canonical position.
    pub labeling: Perm,
    /// The certificate `C(G, π) = (G, π)^{γ*}`.
    pub form: CanonForm,
    /// Generators of `Aut(G, π)` discovered during the search. Together
    /// they generate the full automorphism group (every automorphism maps
    /// the first leaf's path to some unpruned leaf with an equal
    /// certificate).
    pub generators: Vec<Perm>,
    /// Orbit partition of the generated group.
    pub orbits: Orbits,
    /// Statistics.
    pub stats: SearchStats,
    /// The recorded search tree, if `Config::record_tree` was set.
    pub tree: Option<SearchTree>,
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of every quotient hash.
const QUOTIENT_BASE: u64 = 0x900d_0a90_0000_0000;

/// The hash of one edge whose endpoints have colors `a` and `b`.
#[inline]
fn edge_hash(a: V, b: V) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    mix(0x0ed9_e0ed_9e0e_d9e0, u64::from(lo) << 32 | u64::from(hi))
}

/// Quotient-graph invariant: a commutative hash over the multiset of
/// color-pairs of all edges under the node's coloring,
/// `QUOTIENT_BASE + Σ_edges edge_hash` (wrapping). Two tree nodes with
/// different quotient multisets cannot lead to equal leaves, so this prunes
/// the "dead subtrees" (invariant-identical until the bottom) that plain
/// refinement traces miss on geometric graphs; at a *discrete* coloring it
/// hashes the full certificate, which is what makes the automorphism
/// jump-back reliable (bliss's certificate-hash idea).
///
/// This is the definition, an O(m) edge scan; the search computes the
/// same value with [`quotient_hash_by_cells`] or [`quotient_hash_delta`],
/// and the tests check both against it.
#[cfg(test)]
fn quotient_hash(g: &Graph, pi: &Coloring) -> u64 {
    let mut acc = QUOTIENT_BASE;
    for u in g.vertices() {
        for &w in g.neighbors(u) {
            if w > u {
                // Commutative combination: edge enumeration order is not
                // isomorphism-invariant, a sum of strong per-edge hashes is.
                acc = acc.wrapping_add(edge_hash(pi.color_of(u), pi.color_of(w)));
            }
        }
    }
    acc
}

/// [`quotient_hash`] of an *equitable* partition from its quotient graph:
/// every member of cell `i` has the same number `d_ij` of neighbors in
/// cell `j`, so `e_ij = |C_i|·d_ij` edges join the two cells (half that
/// for `i = j`), and the edge sum is `Σ_{i ≤ j} e_ij · edge_hash(i, j)`.
/// Reads one representative's neighbors per cell.
// dvicl-lint: allow(budget-reachability) -- O(cells + m) hash of one refined partition; the refinement before it spends per splitter, and dfs() one unit per node
fn quotient_hash_by_cells(g: &Graph, pi: PartitionView<'_>) -> u64 {
    let mut acc = QUOTIENT_BASE;
    for cell in pi.cells() {
        let ci = pi.color_of(cell[0]);
        let mut above = 0u64;
        let mut inside = 0u64;
        for &w in g.neighbors(cell[0]) {
            let cw = pi.color_of(w);
            if cw > ci {
                above = above.wrapping_add(edge_hash(ci, cw));
            } else if cw == ci {
                inside += 1;
            }
        }
        let size = cell.len() as u64;
        acc = acc.wrapping_add(size.wrapping_mul(above));
        acc = acc.wrapping_add((size * inside / 2).wrapping_mul(edge_hash(ci, ci)));
    }
    acc
}

/// The [`quotient_hash`] of the refiner's partition right after an
/// individualization, given the parent's hash, and the child's leaf
/// certificate when the hash was taken from it. Chooses per node:
///
/// * when the child is discrete and the recolored vertices' degrees sum
///   to more than `m / 2`, builds the child's certificate
///   ([`leaf_edges`]), which its leaf visit reuses, and hashes it with
///   [`leaf_quotient_hash`];
/// * otherwise, when the degrees sum to at most `m`,
///   [`quotient_hash_delta`];
/// * otherwise [`quotient_hash_by_cells`], which never reads more than
///   `2m` neighbor entries.
fn child_quotient_hash(g: &Graph, refiner: &Refiner, parent: u64) -> (u64, Option<Vec<(V, V)>>) {
    let degrees: usize = refiner.recolored().iter().map(|&(v, _)| g.degree(v)).sum();
    let pi = refiner.partition();
    if pi.non_singleton().is_empty() && 2 * degrees > g.m() {
        let cert = leaf_edges(g, pi.colors(), pi.vertices());
        (leaf_quotient_hash(&cert), Some(cert))
    } else if degrees > g.m() {
        (quotient_hash_by_cells(g, pi), None)
    } else {
        (quotient_hash_delta(g, refiner, parent), None)
    }
}

/// The [`quotient_hash`] of a discrete coloring from its certificate
/// edges ([`leaf_edges`]): at a discrete coloring every color is a label,
/// so the certificate lists each edge as its endpoints' colors.
fn leaf_quotient_hash(cert: &[(V, V)]) -> u64 {
    cert.iter().fold(QUOTIENT_BASE, |acc, &(a, b)| {
        acc.wrapping_add(edge_hash(a, b))
    })
}

/// The [`quotient_hash`] of the refiner's partition from its parent's,
/// `parent`: an edge's hash moves only if an endpoint's color does, so the
/// change is summed over the edges of the vertices the latest
/// individualization recolored.
// dvicl-lint: allow(budget-reachability) -- O(degrees of the recolored vertices) <= O(m) per search node; try_individualize spent per splitter just before, and dfs() spends one unit per node
fn quotient_hash_delta(g: &Graph, refiner: &Refiner, parent: u64) -> u64 {
    let pi = refiner.partition();
    let mut acc = parent;
    for &(u, old_u) in refiner.recolored() {
        let new_u = pi.color_of(u);
        for &w in g.neighbors(u) {
            let new_w = pi.color_of(w);
            let old_w = match refiner.recolored_from(w) {
                // Both ends moved: count the edge from its lower end.
                Some(_) if w < u => continue,
                Some(old_w) => old_w,
                None => new_w,
            };
            acc = acc
                .wrapping_add(edge_hash(new_u, new_w))
                .wrapping_sub(edge_hash(old_u, old_w));
        }
    }
    acc
}

/// The certificate edges of the labeled graph whose vertex `v` has label
/// `label[v]` and whose label-`b` vertex is `at[b]`, in row order: row
/// `a` is the vertex labeled `a` and holds the labels above `a` of its
/// neighbors, ascending. A counting pass sizes the rows; a second pass
/// walks the columns `b` in label order and appends `(a, b)` to the row
/// of every neighbor labeled `a < b`, so each row fills in ascending
/// order with no comparison sort. O(n + m), against the O(m log m)
/// relabel-and-sort of `CanonForm::new` that it equals.
// dvicl-lint: allow(budget-reachability) -- O(n + m) readout of one leaf; dfs() spends one unit for the node before visiting it
fn leaf_edges(g: &Graph, label: &[V], at: &[V]) -> Vec<(V, V)> {
    let mut row_start = vec![0; g.n() + 1];
    for (v, &a) in (0..).zip(label) {
        row_start[a as usize + 1] = g
            .neighbors(v)
            .iter()
            .filter(|&&w| label[w as usize] > a)
            .count();
    }
    for a in 1..row_start.len() {
        row_start[a] += row_start[a - 1];
    }
    let mut out = vec![(0, 0); row_start[g.n()]];
    for (b, &v) in (0..).zip(at) {
        for &w in g.neighbors(v) {
            let a = label[w as usize];
            if a < b {
                out[row_start[a as usize]] = (a, b);
                row_start[a as usize] += 1;
            }
        }
    }
    out
}

/// The sorted `(color, multiplicity)` runs of `pi`'s colors — the
/// `colors` half of every certificate over `pi`. A color is its cell's
/// start offset, so the cells already list the runs in order.
fn color_runs(pi: &Coloring) -> Vec<(V, V)> {
    pi.cells()
        .map(|cell| (pi.color_of(cell[0]), as_vertex(cell.len())))
        .collect()
}

/// Canonically labels `(g, pi)` with the given configuration, aborting
/// with a typed error when the budget runs out or its cancel token fires.
/// One work unit is spent per search-tree node and per refinement
/// splitter, so short deadlines are honoured even on graphs whose single
/// refinement is expensive.
///
/// ```
/// use dvicl_graph::{named, Coloring, Perm};
/// use dvicl_canon::{try_canonical_form, Budget, Config};
/// let g = named::petersen();
/// let shuffled = g.permuted(&Perm::from_cycles(10, &[&[0, 6, 2]]).unwrap());
/// let pi = Coloring::unit(10);
/// let cfg = Config::bliss_like();
/// let unlimited = Budget::unlimited();
/// assert_eq!(
///     try_canonical_form(&g, &pi, &cfg, &unlimited)?.form,
///     try_canonical_form(&shuffled, &pi, &cfg, &unlimited)?.form,
/// );
/// # Ok::<(), dvicl_canon::DviclError>(())
/// ```
pub fn try_canonical_form(
    g: &Graph,
    pi: &Coloring,
    config: &Config,
    budget: &Budget,
) -> Result<CanonResult, DviclError> {
    try_canonical_form_with(g, pi, config, budget, &mut Refiner::new())
}

/// [`try_canonical_form`] reusing a caller-owned [`Refiner`], so a
/// driver labeling many (sub)graphs — `core::Builder::combine_cl` runs
/// one per leaf — pays for the refiner's scratch allocations once
/// instead of once per call.
pub fn try_canonical_form_with(
    g: &Graph,
    pi: &Coloring,
    config: &Config,
    budget: &Budget,
    refiner: &mut Refiner,
) -> Result<CanonResult, DviclError> {
    if g.n() != pi.n() {
        return Err(DviclError::invalid(format!(
            "graph has {} vertices but the coloring covers {}",
            g.n(),
            pi.n()
        )));
    }
    // An already-expired deadline or a pre-cancelled token must fail even
    // on graphs small enough to finish inside the first clock stride.
    budget.check()?;
    let _span = obs::span(Phase::CanonSearch);
    let mut s = Search {
        g,
        config: config.clone(),
        budget,
        first_path: Vec::new(),
        first_leaf: None,
        first_seq: Vec::new(),
        best_path: Vec::new(),
        best_leaf: None,
        best_seq: Vec::new(),
        unwind_to: None,
        generators: Vec::new(),
        orbits: Orbits::identity(g.n()),
        stats: SearchStats::default(),
        tree: if config.record_tree {
            Some(SearchTree::default())
        } else {
            None
        },
        refiner,
        rank: Vec::new(),
    };
    if g.n() == 0 {
        return Ok(CanonResult {
            labeling: Perm::identity(0),
            form: CanonForm::new(g, &[], &[]),
            generators: Vec::new(),
            orbits: Orbits::identity(0),
            stats: s.stats,
            tree: s.tree,
        });
    }
    let root_trace = s.refiner.try_refine_in_place(g, pi, budget)?;
    let root_hash = quotient_hash_by_cells(g, s.refiner.partition());
    let mut fixed: Vec<V> = Vec::new();
    s.dfs(
        root_hash,
        mix(root_trace, root_hash),
        None,
        0,
        true,
        Ordering::Equal,
        None,
        &mut fixed,
    )?;
    #[expect(
        clippy::expect_used,
        reason = "dfs reaches at least one leaf before returning Ok, and the first leaf seeds best_leaf"
    )]
    let (edges, labeling) = s.best_leaf.expect("search always reaches a leaf");
    Ok(CanonResult {
        labeling,
        form: CanonForm {
            colors: color_runs(pi),
            edges,
        },
        generators: s.generators,
        orbits: s.orbits,
        stats: s.stats,
        tree: s.tree,
    })
}

struct Search<'a> {
    g: &'a Graph,
    config: Config,
    budget: &'a Budget,
    /// Invariant sequence along the leftmost path (the reference node).
    first_path: Vec<u64>,
    /// The first leaf's certificate edges and labeling. Every leaf's
    /// certificate has the color runs of the input coloring, so leaves
    /// compare by their edges alone.
    first_leaf: Option<(Vec<(V, V)>, Perm)>,
    /// Individualized-vertex sequence of the first leaf.
    first_seq: Vec<V>,
    /// Invariant sequence along the current-best path.
    best_path: Vec<u64>,
    best_leaf: Option<(Vec<(V, V)>, Perm)>,
    /// Individualized-vertex sequence of the best leaf.
    best_seq: Vec<V>,
    /// When set, unwind the DFS to this sequence length (McKay's jump-back
    /// after an automorphism discovery: the abandoned subtrees are images
    /// of already-explored ones under the discovered group).
    unwind_to: Option<usize>,
    generators: Vec<Perm>,
    orbits: Orbits,
    stats: SearchStats,
    tree: Option<SearchTree>,
    /// The search's one partition: each child individualizes and refines
    /// it in place, and backtracking undoes that. Borrowed from the caller
    /// ([`try_canonical_form_with`]) so the buffers also survive across
    /// searches.
    refiner: &'a mut Refiner,
    /// `rank[v]` is `v`'s index in the sorted target cell of the node
    /// that last absorbed generators (P_C), valid for that cell's members
    /// only; sized `n` by the first absorb.
    rank: Vec<V>,
}

impl<'a> Search<'a> {
    /// DFS over the IR tree. The node's coloring is the refiner's
    /// partition.
    ///
    /// `quotient` is the node's [`quotient_hash`] and `inv` its node
    /// invariant (the refinement trace mixed with `quotient`); `leaf` is
    /// the node's certificate when [`child_quotient_hash`] built it, and is
    /// dropped if the node is pruned; `on_first` says whether the path so
    /// far matches the leftmost path's invariants; `best_cmp` is the
    /// lexicographic status of the current path against the best path
    /// (`Equal` while tracking, `Less` once this path has strictly beaten
    /// the recorded best prefix).
    #[expect(
        clippy::too_many_arguments,
        reason = "one search node's state: its hashes, its certificate, its depth, its status against the first and best paths, its parent edge and the individualized prefix"
    )]
    fn dfs(
        &mut self,
        quotient: u64,
        inv: u64,
        leaf: Option<Vec<(V, V)>>,
        depth: u32,
        mut on_first: bool,
        mut best_cmp: Ordering,
        parent_edge: Option<(usize, V)>,
        fixed: &mut Vec<V>,
    ) -> Result<(), DviclError> {
        self.stats.nodes += 1;
        obs::bump(Counter::SearchNodes);
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.budget.spend(1)?;
        let node_id = self.record_node(depth, parent_edge);
        let d = depth as usize;

        // Maintain the first-path status.
        if self.first_path.len() == d {
            // We are extending the leftmost path.
            self.first_path.push(inv);
        } else if on_first {
            on_first = d < self.first_path.len() && self.first_path[d] == inv;
        }

        // Maintain the best-path comparison (only meaningful once some best
        // exists; while the best is being *established* on the leftmost
        // descent, best_path mirrors first_path).
        if self.config.use_invariant {
            if best_cmp == Ordering::Equal {
                if d < self.best_path.len() {
                    match inv.cmp(&self.best_path[d]) {
                        Ordering::Less => {
                            // Everything below beats the recorded best.
                            self.best_path.truncate(d);
                            self.best_path.push(inv);
                            self.best_leaf = None;
                            best_cmp = Ordering::Equal;
                        }
                        Ordering::Greater => best_cmp = Ordering::Greater,
                        Ordering::Equal => {}
                    }
                } else if self.best_leaf.is_some() {
                    // The best leaf lies at a shallower depth with an equal
                    // invariant prefix: by the shorter-prefix-wins rule this
                    // path is worse.
                    best_cmp = Ordering::Greater;
                } else {
                    self.best_path.push(inv);
                }
            }
            // Prune: cannot contain the canonical leaf and cannot contain an
            // automorphism image of the reference (first) leaf.
            if best_cmp == Ordering::Greater && !on_first {
                self.stats.pruned_invariant += 1;
                obs::bump(Counter::PrunedInvariant);
                return Ok(());
            }
        }

        let Some(cell) = self
            .config
            .target_cell
            .select(self.g, self.refiner.partition())
        else {
            return self.visit_leaf(d, on_first, best_cmp, fixed, leaf);
        };
        // Candidates in ascending vertex id: the order decides the first
        // leaf, the jump-back and P_C, so it must not depend on how the
        // partition happens to order a cell's members.
        let mut target = cell.to_vec();
        target.sort_unstable();

        // P_C: two sibling branches individualizing vertices in one orbit
        // of the subgroup of discovered automorphisms that fixes the whole
        // individualized sequence `ν` lead to equivalent subtrees (the
        // stabilizer element maps one onto the other, preserving both the
        // certificate order and the automorphisms discoverable below).
        // Such an automorphism maps every cell of this node's equitable
        // coloring onto itself, so its orbits are tracked on the target
        // cell alone: `orbits` acts on indices into `target`. They are
        // grown *incrementally* and *lazily*: most nodes only ever explore
        // their first candidate (the jump-back abandons the rest), so no
        // orbit work happens until a second candidate is actually
        // examined.
        let mut orbits: Option<Orbits> = None;
        let mut gens_seen = 0usize;
        let mut explored: Vec<V> = Vec::with_capacity(4);
        for (i, &v) in (0..).zip(&target) {
            if !explored.is_empty() {
                let orbits = orbits.get_or_insert_with(|| Orbits::identity(target.len()));
                self.absorb_new_generators(&target, orbits, &mut gens_seen, fixed);
                if explored.iter().any(|&j| orbits.same(i, j)) {
                    self.stats.pruned_orbit += 1;
                    obs::bump(Counter::PrunedOrbit);
                    continue;
                }
            }
            explored.push(i);
            let trace = self.refiner.try_individualize(self.g, v, self.budget)?;
            let (child_hash, child_leaf) = child_quotient_hash(self.g, self.refiner, quotient);
            fixed.push(v);
            let r = self.dfs(
                child_hash,
                mix(trace, child_hash),
                child_leaf,
                depth + 1,
                on_first,
                best_cmp,
                Some((node_id, v)),
                fixed,
            );
            fixed.pop();
            r?;
            self.refiner.undo();
            // Jump-back: an automorphism discovered below proves the
            // remaining siblings' subtrees are images of explored ones.
            if let Some(t) = self.unwind_to {
                if t < d {
                    return Ok(());
                }
                self.unwind_to = None;
            }
        }
        Ok(())
    }

    /// Joins in `orbits`, which acts on indices into the sorted target
    /// cell `target`, every member with its image under each generator
    /// found since `gens_seen` that fixes `fixed` pointwise. Such a
    /// generator maps the target cell onto itself, so an image's index is
    /// its entry in the rank table, filled from `target` once per call
    /// that absorbs: each absorb costs O(|cell|), not O(n).
    // dvicl-lint: allow(budget-reachability) -- O(|cell| + new generators x |cell|) per candidate; dfs() spends one unit per node it visits
    fn absorb_new_generators(
        &mut self,
        target: &[V],
        orbits: &mut Orbits,
        gens_seen: &mut usize,
        fixed: &[V],
    ) {
        let mut ranked = false;
        for gen in &self.generators[*gens_seen..] {
            if !fixed.iter().all(|&x| gen.apply(x) == x) {
                continue;
            }
            if !ranked {
                self.rank.resize(self.g.n(), 0);
                for (r, &u) in (0..).zip(target) {
                    self.rank[u as usize] = r;
                }
                ranked = true;
            }
            for (r, &u) in (0..).zip(target) {
                let w = gen.apply(u);
                let image = self.rank[w as usize];
                debug_assert_eq!(
                    target.get(image as usize),
                    Some(&w),
                    "a generator fixing the prefix left the target cell"
                );
                orbits.union(r, image);
            }
        }
        *gens_seen = self.generators.len();
    }

    fn visit_leaf(
        &mut self,
        d: usize,
        on_first: bool,
        best_cmp: Ordering,
        fixed: &[V],
        leaf: Option<Vec<(V, V)>>,
    ) -> Result<(), DviclError> {
        self.stats.leaves += 1;
        obs::bump(Counter::SearchLeaves);
        let pi = self.refiner.partition();
        #[expect(
            clippy::expect_used,
            reason = "visit_leaf is only called when target_cell found no non-singleton cell, so the colors are the positions 0..n"
        )]
        let lambda = Perm::from_image(pi.colors().to_vec())
            .expect("a node with no non-singleton cell is discrete");
        let cert = leaf.unwrap_or_else(|| leaf_edges(self.g, pi.colors(), pi.vertices()));

        if self.first_leaf.is_none() {
            // The reference leaf; it also seeds the best.
            self.first_leaf = Some((cert.clone(), lambda.clone()));
            self.best_leaf = Some((cert, lambda));
            self.first_seq = fixed.to_vec();
            self.best_seq = fixed.to_vec();
            debug_assert!(!self.config.use_invariant || self.best_path.len() == d + 1);
            return Ok(());
        }

        let mut found_auto = false;
        let mut matched_first = false;
        // Automorphism against the reference leaf (γ' γ₀⁻¹ in the paper).
        if on_first {
            #[expect(
                clippy::expect_used,
                reason = "first_leaf is assigned a few lines above when None, so it is always Some here"
            )]
            let (first_cert, first_lambda) = self.first_leaf.as_ref().expect("set above");
            if cert == *first_cert {
                matched_first = true;
                let auto = lambda.then(&first_lambda.inverse());
                found_auto |= self.add_automorphism(auto);
            }
        }

        match best_cmp {
            Ordering::Equal => match &self.best_leaf {
                None => {
                    // This subtree established a new best prefix; the first
                    // leaf reached under it becomes the candidate.
                    if self.best_path.len() > d + 1 {
                        self.best_path.truncate(d + 1);
                    }
                    self.best_leaf = Some((cert, lambda));
                    self.best_seq = fixed.to_vec();
                }
                Some((best_cert, best_lambda)) => match cert.cmp(best_cert) {
                    Ordering::Less => {
                        self.best_path.truncate(d + 1);
                        self.best_leaf = Some((cert, lambda));
                        self.best_seq = fixed.to_vec();
                    }
                    // While the best leaf is still the first leaf, the
                    // comparison above already recorded this automorphism.
                    Ordering::Equal if !(matched_first && self.best_seq == self.first_seq) => {
                        let auto = lambda.then(&best_lambda.inverse());
                        found_auto |= self.add_automorphism(auto);
                    }
                    Ordering::Equal | Ordering::Greater => {}
                },
            },
            Ordering::Greater => {}
            #[expect(
                clippy::unreachable,
                reason = "dfs only ever passes Equal or Greater: a Less invariant resets best_path and keeps best_cmp = Equal"
            )]
            Ordering::Less => unreachable!("Less is never propagated"),
        }
        if found_auto {
            // McKay's jump-back: return to the deepest ancestor shared with
            // the first or best path; everything between is an image of an
            // explored subtree under the (now extended) discovered group.
            let lcp = |a: &[V], b: &[V]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
            let target = lcp(fixed, &self.first_seq).max(lcp(fixed, &self.best_seq));
            if target < fixed.len() {
                self.unwind_to = Some(target);
            }
        }
        Ok(())
    }

    /// Records a discovered automorphism; returns true if non-trivial.
    fn add_automorphism(&mut self, auto: Perm) -> bool {
        if auto.is_identity() {
            return false;
        }
        debug_assert_eq!(self.g.permuted(&auto), *self.g, "non-automorphism found");
        self.orbits.absorb(&auto);
        self.generators.push(auto);
        self.stats.generators_found += 1;
        obs::bump(Counter::AutFound);
        true
    }

    fn record_node(&mut self, depth: u32, parent: Option<(usize, V)>) -> usize {
        match &mut self.tree {
            Some(tree) => tree.push(NodeRecord {
                coloring: self.refiner.partition().to_coloring().to_string(),
                depth,
                parent: parent.map(|(p, _)| p),
                individualized: parent.map(|(_, v)| v),
            }),
            None => 0,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]
mod tests {
    use super::*;
    use dvicl_graph::named;
    use dvicl_group::{brute, BigUint, StabChain};

    fn canonical_form(g: &Graph, pi: &Coloring, config: &Config) -> CanonResult {
        try_canonical_form(g, pi, config, &Budget::unlimited())
            .expect("unlimited search cannot fail")
    }

    fn check_graph(g: &Graph) {
        let pi = Coloring::unit(g.n());
        for config in [
            Config::bliss_like(),
            Config::nauty_like(),
            Config::traces_like(),
        ] {
            let r = canonical_form(g, &pi, &config);
            // Certificate invariance under relabeling.
            let gamma = pseudo_random_perm(g.n());
            let gg = g.permuted(&gamma);
            let r2 = canonical_form(&gg, &pi, &config);
            assert_eq!(r.form, r2.form, "{config:?} not relabeling-invariant");
            // The labeling actually produces the certificate.
            let direct = CanonForm::new(g, pi.colors(), r.labeling.as_slice());
            assert_eq!(direct, r.form);
            // Group order matches brute force (small graphs only).
            if g.n() <= 10 {
                let expected = brute::automorphism_count(g, &pi);
                let chain = StabChain::try_new(g.n(), &r.generators, &Budget::unlimited())
                    .expect("an unlimited budget never trips");
                assert_eq!(
                    chain.order(),
                    BigUint::from_u64(expected),
                    "{config:?} group order mismatch"
                );
            }
        }
    }

    /// A fixed "random-looking" permutation (deterministic tests).
    fn pseudo_random_perm(n: usize) -> Perm {
        let mut image: Vec<V> = (0..n as V).collect();
        let mut state = 0x243f6a8885a308d3u64 ^ n as u64;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            image.swap(i, j);
        }
        Perm::from_image(image).expect("shuffle is a bijection")
    }

    #[test]
    fn named_graphs_all_configs() {
        for g in [
            named::complete(5),
            named::cycle(6),
            named::path(5),
            named::star(5),
            named::complete_bipartite(3, 3),
            named::petersen(),
            named::hypercube(3),
            named::frucht(),
            named::fig1_example(),
            named::fig3_example(),
        ] {
            check_graph(&g);
        }
    }

    #[test]
    fn distinguishes_non_isomorphic_same_degree_sequence() {
        // C6 vs 2×C3: both 2-regular on 6 vertices.
        let c6 = named::cycle(6);
        let cc = named::cycle(3).disjoint_union(&named::cycle(3));
        let pi = Coloring::unit(6);
        let cfg = Config::bliss_like();
        assert_ne!(
            canonical_form(&c6, &pi, &cfg).form,
            canonical_form(&cc, &pi, &cfg).form
        );
        // K3,3 vs the prism (both 3-regular on 6 vertices).
        let k33 = named::complete_bipartite(3, 3);
        let prism = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        );
        assert_ne!(
            canonical_form(&k33, &pi, &cfg).form,
            canonical_form(&prism, &pi, &cfg).form
        );
    }

    #[test]
    fn respects_initial_coloring() {
        // A 4-cycle with one vertex pinned has |Aut| = 2, not 8.
        let g = named::cycle(4);
        let pi = Coloring::from_cells(vec![vec![1, 2, 3], vec![0]]).unwrap();
        let r = canonical_form(&g, &pi, &Config::bliss_like());
        let chain = StabChain::try_new(4, &r.generators, &Budget::unlimited()).unwrap();
        assert_eq!(chain.order().to_u64(), Some(2));
    }

    #[test]
    fn orbits_match_brute_force() {
        let g = named::fig1_example();
        let pi = Coloring::unit(8);
        let mut r = canonical_form(&g, &pi, &Config::bliss_like());
        let cells = r.orbits.cells();
        assert_eq!(cells, vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]);
    }

    #[test]
    fn work_budget_aborts() {
        // The 4x4 rook's graph-ish torus has a big search tree relative to
        // a 2-unit work budget.
        let g = named::torus2(4, 4);
        let pi = Coloring::unit(g.n());
        let r = try_canonical_form(&g, &pi, &Config::bliss_like(), &Budget::with_max_work(2));
        assert!(matches!(
            r,
            Err(DviclError::BudgetExceeded {
                resource: dvicl_govern::Resource::WorkUnits,
                ..
            })
        ));
    }

    #[test]
    fn expired_deadline_aborts() {
        let g = named::torus2(4, 4);
        let pi = Coloring::unit(g.n());
        let budget = Budget::with_deadline(std::time::Duration::from_nanos(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let r = try_canonical_form(&g, &pi, &Config::bliss_like(), &budget);
        assert!(matches!(
            r,
            Err(DviclError::BudgetExceeded {
                resource: dvicl_govern::Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_aborts() {
        let g = named::torus2(4, 4);
        let pi = Coloring::unit(g.n());
        let budget = Budget::new(None, None);
        budget.cancel_token().cancel();
        let r = try_canonical_form(&g, &pi, &Config::bliss_like(), &budget);
        assert_eq!(r.err(), Some(DviclError::Cancelled));
    }

    #[test]
    fn search_tree_recording() {
        let g = named::fig1_example();
        let pi = Coloring::unit(8);
        let mut cfg = Config::bliss_like();
        cfg.record_tree = true;
        let r = canonical_form(&g, &pi, &cfg);
        let tree = r.tree.expect("recording requested");
        let rendered = tree.render();
        assert_eq!(rendered.lines().count() as u64, r.stats.nodes);
        assert!(rendered.starts_with("(0) "));
    }

    #[test]
    fn stats_reflect_pruning() {
        let g = named::complete(6);
        let pi = Coloring::unit(6);
        let r = canonical_form(&g, &pi, &Config::bliss_like());
        // K6: without P_C the tree would have 6! leaves; with orbit pruning
        // the leftmost path dominates.
        assert!(r.stats.leaves < 720);
        assert!(r.stats.pruned_orbit > 0);
        let chain = StabChain::try_new(6, &r.generators, &Budget::unlimited()).unwrap();
        assert_eq!(chain.order(), BigUint::factorial(6));
    }

    #[test]
    fn colored_graph_isomorphism_semantics() {
        // Same graph, different colorings that are NOT related by any
        // automorphism: certificates must differ.
        let g = named::path(3); // 0-1-2
        let pi_end = Coloring::from_cells(vec![vec![1, 2], vec![0]]).unwrap();
        let pi_mid = Coloring::from_cells(vec![vec![0, 2], vec![1]]).unwrap();
        let cfg = Config::bliss_like();
        assert_ne!(
            canonical_form(&g, &pi_end, &cfg).form,
            canonical_form(&g, &pi_mid, &cfg).form
        );
        // ...but pinning the other end gives an isomorphic colored graph.
        let pi_end2 = Coloring::from_cells(vec![vec![0, 1], vec![2]]).unwrap();
        assert_eq!(
            canonical_form(&g, &pi_end, &cfg).form,
            canonical_form(&g, &pi_end2, &cfg).form
        );
    }

    /// A graph on `n` vertices keeping each pair with probability
    /// `density / 8`, and a permutation of `0..n`, both from `keys`.
    fn random_graph_and_perm(n: usize, density: u64, keys: &[u64]) -> (Graph, Perm) {
        let key = |i: usize| keys[i % keys.len()].rotate_left(i as u32 % 64) ^ i as u64;
        let mut edges: Vec<(V, V)> = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if mix(key(u), key(v)) % 8 < density {
                    edges.push((u as V, v as V));
                }
            }
        }
        let mut image: Vec<V> = (0..n as V).collect();
        image.sort_unstable_by_key(|&v| (mix(key(v as usize), 7), v));
        let perm = Perm::from_image(image).expect("sorted 0..n is a permutation");
        (Graph::from_edges(n, &edges), perm)
    }

    /// Each selector's tie-break on tied non-singleton cells of lengths
    /// [3, 2, 3, 2] at starts 0, 3, 5 and 8: first takes the least start,
    /// smallest the least (length, start), largest the greatest (length,
    /// start) and most-constrained the highest saturation, then the least
    /// start. Only the cells at 3 and 8 are joined (a complete bipartite
    /// pair), so both have saturation 1 and the others 0.
    #[test]
    fn selectors_break_ties_by_position() {
        let g = Graph::from_edges(10, &[(3, 8), (3, 9), (4, 8), (4, 9)]);
        let pi = Coloring::from_cells(vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7], vec![8, 9]])
            .unwrap();
        let mut refiner = Refiner::new();
        refiner
            .try_refine_in_place(&g, &pi, &Budget::unlimited())
            .unwrap();
        let view = refiner.partition();
        let mut starts = view.non_singleton().to_vec();
        starts.sort_unstable();
        assert_eq!(starts, [0, 3, 5, 8]);
        let chosen = |sel: TargetCell| {
            let mut cell = sel.select(&g, view).expect("not discrete").to_vec();
            cell.sort_unstable();
            view.color_of(cell[0])
        };
        assert_eq!(chosen(TargetCell::FirstNonSingleton), 0);
        assert_eq!(chosen(TargetCell::SmallestFirst), 3);
        assert_eq!(chosen(TargetCell::LargestFirst), 5);
        assert_eq!(chosen(TargetCell::MostConstrained), 3);
    }

    #[test]
    fn row_ordered_leaf_certificate_edge_cases() {
        let graphs = [
            Graph::from_edges(0, &[]),
            Graph::from_edges(4, &[]),
            named::complete(7),
            named::star(6),
        ];
        for g in graphs {
            let perm = pseudo_random_perm(g.n());
            let edges = leaf_edges(&g, perm.as_slice(), perm.inverse().as_slice());
            let unit = Coloring::unit(g.n());
            let oracle = CanonForm::new(&g, unit.colors(), perm.as_slice());
            assert_eq!(edges, oracle.edges);
            assert_eq!(color_runs(&unit), oracle.colors);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn row_ordered_leaf_certificate_matches_the_sort_oracle(
            n in 0usize..48,
            density in 0u64..9,
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 8),
            cells in 1u64..5,
        ) {
            // Density 0 leaves every vertex isolated, 8 gives K_n's full rows.
            let (g, perm) = random_graph_and_perm(n, density, &keys);
            let edges = leaf_edges(&g, perm.as_slice(), perm.inverse().as_slice());
            // The input coloring is arbitrary; its runs are the `colors`
            // half of every leaf certificate.
            let input: Vec<V> = (0..n).map(|v| (keys[v % 8] % cells) as V).collect();
            let pi0 = Coloring::from_labels(&input);
            let oracle = CanonForm::new(&g, pi0.colors(), perm.as_slice());
            proptest::prop_assert_eq!(&edges, &oracle.edges);
            proptest::prop_assert_eq!(color_runs(&pi0), oracle.colors);
        }

        /// The three node-hash methods equal the O(m) edge scan at every
        /// node of a random individualization path where they apply (the
        /// certificate-derived one at discrete nodes), and so does their
        /// per-node choice, whose certificate is the leaf's.
        #[test]
        fn node_hashes_match_the_edge_scan(
            n in 1usize..40,
            density in 0u64..9,
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 8),
            cells in 1u64..4,
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..8),
        ) {
            let (g, _) = random_graph_and_perm(n, density, &keys);
            let input: Vec<V> = (0..n).map(|v| (keys[v % 8] % cells) as V).collect();
            let budget = Budget::unlimited();
            let mut refiner = Refiner::new();
            refiner.try_refine_in_place(&g, &Coloring::from_labels(&input), &budget).unwrap();
            let mut hash = quotient_hash_by_cells(&g, refiner.partition());
            proptest::prop_assert_eq!(hash, quotient_hash(&g, &refiner.partition().to_coloring()));
            for pick in picks {
                let targets: Vec<V> = refiner
                    .partition()
                    .cells()
                    .filter(|c| c.len() > 1)
                    .map(|c| c[pick as usize % c.len()])
                    .collect();
                if targets.is_empty() {
                    break;
                }
                let v = targets[(pick >> 32) as usize % targets.len()];
                refiner.try_individualize(&g, v, &budget).unwrap();
                let scan = quotient_hash(&g, &refiner.partition().to_coloring());
                proptest::prop_assert_eq!(quotient_hash_by_cells(&g, refiner.partition()), scan);
                proptest::prop_assert_eq!(quotient_hash_delta(&g, &refiner, hash), scan);
                let pi = refiner.partition();
                let leaf = pi
                    .non_singleton()
                    .is_empty()
                    .then(|| leaf_edges(&g, pi.colors(), pi.vertices()));
                if let Some(cert) = &leaf {
                    proptest::prop_assert_eq!(leaf_quotient_hash(cert), scan);
                }
                let (chosen, chosen_leaf) = child_quotient_hash(&g, &refiner, hash);
                proptest::prop_assert_eq!(chosen, scan);
                if chosen_leaf.is_some() {
                    proptest::prop_assert_eq!(chosen_leaf, leaf);
                }
                hash = scan;
            }
        }
    }
}
