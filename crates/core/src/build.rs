//! `DviCL` (Algorithm 1): building the AutoTree by divide-and-conquer, and
//! the combine steps `CombineCL` (Algorithm 4) and `CombineST`
//! (Algorithm 5).

use crate::arena::SubArena;
use crate::sub::{Division, Sub};
use crate::tree::{AutoTree, Node, NodeId, NodeKind, PoolRange, EMPTY, NO_PARENT};
use dvicl_canon::{try_canonical_form_with as ir_try_canonical_form_with, CanonResult, Config};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{vertex_range, CanonForm, Coloring, FormRef, Graph, V};
use dvicl_obs::{self as obs, Counter, Phase};
use dvicl_refine::Refiner;

/// Options for the DviCL run. Resource limits are *not* options: they
/// are carried by the [`Budget`] passed to [`try_build_autotree`], one
/// global allowance covering the whole recursion and every leaf-labeler
/// call inside it.
#[derive(Clone, Debug)]
pub struct DviclOptions {
    /// The IR engine configuration used for non-singleton leaves — the `X`
    /// of the paper's `DviCL+X` (bliss-like, nauty-like or traces-like).
    pub leaf_config: Config,
    /// Apply `DivideS` (clique / complete-bipartite edge removal). Turning
    /// this off is the ablation benchmarked in `dvicl-bench`.
    pub use_divide_s: bool,
}

impl Default for DviclOptions {
    fn default() -> Self {
        DviclOptions {
            leaf_config: Config::bliss_like(),
            use_divide_s: true,
        }
    }
}

/// Runs `DviCL` on the colored graph `(g, pi0)` and returns the AutoTree.
///
/// The input coloring is first refined to an equitable coloring by the
/// refinement function `R` (Algorithm 1, lines 1–2); every subgraph in the
/// recursion then uses the *projection* of that single coloring
/// (Theorem 6.1 shows projections stay equitable and orbit-compatible).
///
/// `budget` is one *global* allowance covering the whole
/// divide-and-conquer recursion, every leaf-labeler invocation inside
/// it, and the refinement loops those run — not a per-leaf limit. Aborts
/// with [`DviclError::BudgetExceeded`] or [`DviclError::Cancelled`] when
/// any limit runs out, a work cap included.
///
/// ```
/// use dvicl_graph::{named, Coloring};
/// use dvicl_core::{aut, try_build_autotree, Budget, DviclOptions};
/// // The paper's Fig. 1(a)/Fig. 4 example: 7 tree nodes, |Aut| = 48.
/// let g = named::fig1_example();
/// let unlimited = Budget::unlimited();
/// let tree = try_build_autotree(&g, &Coloring::unit(8), &DviclOptions::default(), &unlimited)?;
/// assert_eq!(tree.stats().total_nodes, 7);
/// assert_eq!(aut::try_group_order(&tree, &unlimited)?.to_u64(), Some(48));
/// # Ok::<(), dvicl_core::DviclError>(())
/// ```
pub fn try_build_autotree(
    g: &Graph,
    pi0: &Coloring,
    opts: &DviclOptions,
    budget: &Budget,
) -> Result<AutoTree, DviclError> {
    run_build(&mut Scratch::new(), g, pi0, opts, budget)
}

/// The one build every entry point runs, against caller-owned
/// [`Scratch`] (`core::Session` reuses its buffers through it): check
/// the coloring's size, refine it to the equitable `π` (Algorithm 1,
/// lines 1–2), then divide and conquer from the root.
pub(crate) fn run_build(
    scratch: &mut Scratch,
    g: &Graph,
    pi0: &Coloring,
    opts: &DviclOptions,
    budget: &Budget,
) -> Result<AutoTree, DviclError> {
    if g.n() != pi0.n() {
        return Err(DviclError::invalid(format!(
            "graph has {} vertices but the coloring covers {}",
            g.n(),
            pi0.n()
        )));
    }
    budget.check()?;
    let pi = scratch.refiner.try_refine(g, pi0, budget)?.coloring;
    let _span = obs::span(Phase::CoreBuild);
    // One build = one arena epoch: empty segments (buffers keep their
    // capacity from earlier builds) and fresh peak/reuse stats, so the
    // `sub_bytes_peak` / `arena_reuses` counters below stay per-build
    // even when one Scratch serves a whole session.
    scratch.arena.reset();
    if g.n() == 0 {
        let mut t = TreePools::default();
        t.nodes.push(Node {
            verts: EMPTY,
            fcolors: EMPTY,
            fedges: EMPTY,
            children: EMPTY,
            classes: EMPTY,
            gens: EMPTY,
            kind: NodeKind::NonSingletonLeaf,
            depth: 0,
            parent: NO_PARENT,
        });
        return Ok(t.into_tree(pi, 0));
    }
    // Pre-size the pools from the empirical shape of DviCL trees (about
    // one node per vertex, about 3n pooled vertex entries): a tree of
    // tens of thousands of nodes then fills them without doubling
    // spikes, which is where the naive growth schedule pays 1.5× the
    // final footprint in transient peak.
    let mut pools = TreePools::default();
    pools.nodes.reserve(g.n() + 16);
    pools.verts.reserve(3 * g.n());
    pools.labels.reserve(3 * g.n());
    pools.form_colors.reserve(2 * g.n());
    pools.form_edges.reserve(g.m() + g.n());
    pools.children.reserve(g.n() + 16);

    let mut b = Builder {
        t: pools,
        pi: &pi,
        opts,
        budget,
        scratch,
    };
    let whole = b.scratch.arena.whole(g);
    let root = b.build(whole, 0, NO_PARENT)?;
    obs::add(Counter::SubBytesPeak, b.scratch.arena.bytes_peak() as u64);
    obs::add(Counter::ArenaReuses, b.scratch.arena.reuses());
    let t = b.t;
    Ok(t.into_tree(pi, root))
}

/// Appends `items` to `pool` and returns the `(start, len)` range.
fn push_range<T: Copy>(pool: &mut Vec<T>, items: &[T]) -> PoolRange {
    let start = pool.len();
    pool.extend_from_slice(items);
    range_since(pool, start)
}

/// The `(start, len)` range of everything appended to `pool` since its
/// length was `start`.
fn range_since<T>(pool: &[T], start: usize) -> PoolRange {
    (pool_index(start), pool_index(pool.len() - start))
}

/// A pool position or length, or a node id, as the tree's `u32` index.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the tree has fewer than 2n nodes and its pools O(n * depth + m) entries, far below u32::MAX for any graph the arena's u32 offsets can hold"
)]
fn pool_index(i: usize) -> u32 {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "tree pool index {i} overflows u32"
    );
    i as u32
}

/// The reusable working state of a build, separable from the tree it
/// produces: the subgraph arena, the refiner and the `CombineST`
/// arrays. One-shot entry points ([`try_build_autotree`] and friends)
/// create a transient `Scratch` per call; `core::Session` owns one
/// across many builds so buffer capacity amortizes over a whole corpus.
/// A `Scratch` carries no result from one build to the next, only
/// buffer capacity.
pub(crate) struct Scratch {
    /// Flat CSR storage for every working subgraph of a recursion.
    pub(crate) arena: SubArena,
    /// Refinement kernel state: the root refinement and every
    /// `CombineCL` leaf labeling of a build run through this refiner, so
    /// kernel scratch (partitions, bitset masks, radix buffers) is
    /// allocated once per scratch, like the arena beside it.
    pub(crate) refiner: Refiner,
    /// `CombineST` working arrays.
    combine: CombineScratch,
}

impl Scratch {
    pub(crate) fn new() -> Scratch {
        Scratch {
            arena: SubArena::new(),
            refiner: Refiner::new(),
            combine: CombineScratch::default(),
        }
    }
}

/// The arrays `Builder::combine_st` works in. `seen` and `relabel` are
/// indexed by global color / label (`0..π.n()`), `part_of` by the
/// node's local vertex index; all three only grow, so one allocation
/// serves a whole session.
#[derive(Default)]
struct CombineScratch {
    /// Members of cell `c` in the children combined so far. All zero
    /// between calls: a call resets exactly the colors it lists in
    /// `colors`.
    seen: Vec<V>,
    /// The distinct colors of the node being combined.
    colors: Vec<V>,
    /// Child label → parent label, for the child being translated.
    relabel: Vec<V>,
    /// The part (child) each local vertex belongs to.
    part_of: Vec<u32>,
}

impl CombineScratch {
    /// Grows the arrays for a graph of `graph_n` vertices and a node of
    /// `node_n`.
    fn fit(&mut self, graph_n: usize, node_n: usize) {
        if self.seen.len() < graph_n {
            self.seen.resize(graph_n, 0);
            self.relabel.resize(graph_n, 0);
        }
        if self.part_of.len() < node_n {
            self.part_of.resize(node_n, 0);
        }
    }
}

/// The eight node-payload pools of an AutoTree under construction —
/// [`AutoTree`] minus the coloring and root id.
#[derive(Debug, Default)]
struct TreePools {
    nodes: Vec<Node>,
    verts: Vec<V>,
    labels: Vec<V>,
    form_colors: Vec<(V, V)>,
    form_edges: Vec<(V, V)>,
    children: Vec<NodeId>,
    classes: Vec<(u32, u32)>,
    gen_ranges: Vec<PoolRange>,
    gen_pairs: Vec<(V, V)>,
}

fn pool_span(r: PoolRange) -> std::ops::Range<usize> {
    r.0 as usize..(r.0 + r.1) as usize
}

fn pool_slice<T>(pool: &[T], r: PoolRange) -> &[T] {
    &pool[pool_span(r)]
}

impl TreePools {
    /// The certificate of node `id` (what `CombineST` sorts by).
    fn form_of(&self, id: NodeId) -> FormRef<'_> {
        let n = &self.nodes[id];
        FormRef {
            colors: pool_slice(&self.form_colors, n.fcolors),
            edges: pool_slice(&self.form_edges, n.fedges),
        }
    }

    /// Seals the pools into an [`AutoTree`].
    fn into_tree(self, pi: Coloring, root: NodeId) -> AutoTree {
        AutoTree {
            pi,
            nodes: self.nodes,
            root,
            verts: self.verts,
            labels: self.labels,
            form_colors: self.form_colors,
            form_edges: self.form_edges,
            children: self.children,
            classes: self.classes,
            gen_ranges: self.gen_ranges,
            gen_pairs: self.gen_pairs,
        }
    }
}

/// What the divide phase made of a node.
enum Divided {
    /// A divide rule applied: the parts are the children's vertex sets.
    Parts(Division),
    /// No rule applied: the node is a non-singleton leaf, and this is its
    /// projection `π_g` for `CombineCL`.
    Leaf(Coloring),
}

struct Builder<'a> {
    /// The tree under construction: node records plus the
    /// pooled per-node payloads they point into (tree.rs module docs).
    t: TreePools,
    /// The refined equitable root coloring `π` every subgraph projects.
    pi: &'a Coloring,
    opts: &'a DviclOptions,
    budget: &'a Budget,
    /// The borrowed working state: the stack-disciplined subgraph arena
    /// (a child's segment is released, and its buffer space reused, as
    /// soon as its subtree has combined), the refiner every leaf search
    /// runs on, and the `CombineST` arrays.
    scratch: &'a mut Scratch,
}

impl Builder<'_> {
    /// Procedure `cl` of Algorithm 1.
    fn build(&mut self, sub: Sub, depth: u32, parent: u32) -> Result<NodeId, DviclError> {
        self.budget.spend(1)?;
        let id = self.t.nodes.len();
        let vrange = push_range(&mut self.t.verts, self.scratch.arena.verts(&sub));
        // Labels are written at combine time; keep the pool parallel.
        self.t.labels.resize(self.t.verts.len(), 0);
        self.t.nodes.push(Node {
            verts: vrange,
            fcolors: EMPTY,
            fedges: EMPTY,
            children: EMPTY,
            classes: EMPTY,
            gens: EMPTY,
            kind: NodeKind::Internal,
            depth,
            parent,
        });

        // Base case: a one-vertex subgraph (Algorithm 1 lines 7–8).
        if sub.n() == 1 {
            let color = self.pi.color_of(self.scratch.arena.verts(&sub)[0]);
            self.t.labels[vrange.0 as usize] = color;
            // The paper's singleton certificate C({v}) = (π(v), π(v)).
            let fcolors = push_range(&mut self.t.form_colors, &[(color, 1)]);
            let node = &mut self.t.nodes[id];
            node.kind = NodeKind::SingletonLeaf;
            node.fcolors = fcolors;
            return Ok(id);
        }

        match self.divide(&sub) {
            Divided::Leaf(pi_g) => self.combine_cl(id, &sub, &pi_g)?,
            Divided::Parts(d) => {
                let parent_id = pool_index(id);
                let children = self.build_children(&sub, &d, depth, parent_id)?;
                self.combine_st(id, &sub, &d, &children);
            }
        }
        Ok(id)
    }

    /// The divide phase of a node with more than one vertex: components
    /// (the trivial divide), then `DivideI`, then `DivideS` (Algorithm 1
    /// lines 11–12). The node's projection `π_g` is grouped once, when
    /// the component divide fails, and serves both rules and `CombineCL`.
    fn divide(&mut self, sub: &Sub) -> Divided {
        let arena = &mut self.scratch.arena;
        let _span = obs::span(Phase::CoreDivide);
        if let Some(d) = arena.divide_components(sub) {
            return Divided::Parts(d);
        }
        let pi_g = self.pi.project(arena.verts(sub));
        let d = arena.divide_i(sub, &pi_g).or_else(|| {
            if self.opts.use_divide_s {
                arena.divide_s(sub, &pi_g)
            } else {
                None
            }
        });
        d.map_or(Divided::Leaf(pi_g), Divided::Parts)
    }

    /// The child loop of Algorithm 1: carve each part on top of the
    /// arena, build its subtree, and release the carve again.
    ///
    /// Stack discipline: each child's arena segment is carved on top of
    /// the parent's, consumed by the recursive call, and released
    /// before the next sibling is carved — peak residency is one
    /// root-to-leaf chain, and siblings reuse the same buffer space.
    /// The release happens on the error path too, so an abort (budget
    /// trip, cancellation) deep in the recursion unwinds the arena all
    /// the way back to the caller's mark.
    // dvicl-lint: allow(budget-reachability) -- one carve per division part; Builder::build spends one unit per child before anything else
    fn build_children(
        &mut self,
        sub: &Sub,
        d: &Division,
        depth: u32,
        parent_id: u32,
    ) -> Result<Vec<NodeId>, DviclError> {
        let mut children: Vec<NodeId> = Vec::with_capacity(d.len());
        for part in d.parts() {
            children.push(SubArena::scoped(
                self,
                |b| &mut b.scratch.arena,
                |b| {
                    let child = b.scratch.arena.induced_child(sub, part);
                    b.build(child, depth + 1, parent_id)
                },
            )?);
        }
        Ok(children)
    }

    /// `CombineCL` (Algorithm 4): label a non-singleton leaf `(g, π_g)`
    /// with the IR engine, then rank the vertices of each (global) cell by
    /// the IR order so symmetric leaves elsewhere in the tree get equal
    /// labels (Lemma 6.7).
    fn combine_cl(&mut self, id: NodeId, sub: &Sub, pi_g: &Coloring) -> Result<(), DviclError> {
        let _span = obs::span(Phase::CoreLeafIr);
        let local_g = self.scratch.arena.to_local_graph(sub);
        let colors: Vec<V> = self
            .scratch
            .arena
            .verts(sub)
            .iter()
            .map(|&v| self.pi.color_of(v))
            .collect();
        // Only the labeling and generators are kept: the search's own
        // certificate, orbits and stats are dropped here, before the
        // leaf's certificate is built beside them.
        let CanonResult {
            labeling,
            generators,
            ..
        } = ir_try_canonical_form_with(
            &local_g,
            pi_g,
            &self.opts.leaf_config,
            self.budget,
            &mut self.scratch.refiner,
        )?;
        // The IR labeling λ keeps every vertex inside its cell of π_g, so
        // λ(i) − π_g(i) is i's rank in that cell by λ, and its global cell
        // starts at π(v_i).
        let labels: Vec<V> = (0..)
            .zip(&colors)
            .map(|(i, &c)| c + labeling.apply(i) - pi_g.color_of(i))
            .collect();
        let form = CanonForm::new(&local_g, &colors, &labels);
        let fcolors = push_range(&mut self.t.form_colors, &form.colors);
        let fedges = push_range(&mut self.t.form_edges, &form.edges);
        let verts = self.scratch.arena.verts(sub);
        let gstart = self.t.gen_ranges.len();
        for gen in &generators {
            let pstart = self.t.gen_pairs.len();
            for i in vertex_range(sub.n()) {
                if gen.apply(i) != i {
                    self.t
                        .gen_pairs
                        .push((verts[i as usize], verts[gen.apply(i) as usize]));
                }
            }
            let pairs = range_since(&self.t.gen_pairs, pstart);
            self.t.gen_ranges.push(pairs);
        }
        let vrange = self.t.nodes[id].verts;
        self.t.labels[vrange.0 as usize..(vrange.0 + vrange.1) as usize].copy_from_slice(&labels);
        let node = &mut self.t.nodes[id];
        node.kind = NodeKind::NonSingletonLeaf;
        node.fcolors = fcolors;
        node.fedges = fedges;
        node.gens = range_since(&self.t.gen_ranges, gstart);
        Ok(())
    }

    /// `CombineST` (Algorithm 5): sort children by certificate; order the
    /// vertices of each (global) cell by (child position, child label);
    /// the rank within the cell gives `γ_g(v) = π(v) + rank`.
    ///
    /// Every node labels the members of cell `c` with `c, c + 1, …`, so
    /// that rank is the child's own rank shifted by the members of `c`
    /// in earlier children: `γ_g(v) = γ_c(v) + seen[c]`. The shift is
    /// strictly increasing on each child's labels, so it maps the
    /// child's sorted certificate edges to a sorted run of this node's;
    /// the edges between parts are the only ones still to relabel, and
    /// one run-adaptive sort merges it all (DESIGN.md §10.3).
    /// `children` are the built children in part order.
    // dvicl-lint: allow(budget-reachability) -- O(n + m log m) combine of one internal node; Builder::build spent one unit on the node before dividing it
    fn combine_st(&mut self, id: NodeId, sub: &Sub, d: &Division, children: &[NodeId]) {
        let _span = obs::span(Phase::CoreCombine);
        let t = &mut self.t;
        let pi = self.pi;
        let Scratch {
            arena, combine: cs, ..
        } = &mut *self.scratch;
        // Line 1: non-descending certificate order; the stable sort keeps
        // equal certificates in part order.
        let mut order: Vec<usize> = (0..children.len()).collect();
        order.sort_by(|&a, &b| t.form_of(children[a]).cmp(&t.form_of(children[b])));
        let ch_start = t.children.len();
        t.children.extend(order.iter().map(|&i| children[i]));
        let crange = range_since(&t.children, ch_start);
        // Runs of equal certificates = classes of symmetric siblings.
        let mut sibling_classes: Vec<(u32, u32)> = Vec::new();
        let sorted = &t.children[ch_start..];
        let mut start = 0u32;
        for (i, end) in (1..=sorted.len()).zip(1u32..) {
            if i == sorted.len() || t.form_of(sorted[i]) != t.form_of(sorted[start as usize]) {
                sibling_classes.push((start, end));
                start = end;
            }
        }
        // Lines 2–5, one pass over the parts in certificate order: label
        // each member, then translate the child's certificate edges.
        cs.fit(pi.n(), sub.n());
        cs.colors.clear();
        let base = t.nodes[id].verts.0 as usize;
        let fe_start = t.form_edges.len();
        for &i in &order {
            let child = t.nodes[children[i]];
            let cbase = child.verts.0 as usize;
            for (j, &local) in d.part(i).iter().enumerate() {
                let x = t.labels[cbase + j];
                let label = x + cs.seen[pi.color_of(t.verts[cbase + j]) as usize];
                t.labels[base + local as usize] = label;
                cs.relabel[x as usize] = label;
            }
            let run = t.form_edges.len();
            t.form_edges.extend_from_within(pool_span(child.fedges));
            for e in &mut t.form_edges[run..] {
                *e = (cs.relabel[e.0 as usize], cs.relabel[e.1 as usize]);
            }
            for &(c, k) in pool_slice(&t.form_colors, child.fcolors) {
                if cs.seen[c as usize] == 0 {
                    cs.colors.push(c);
                }
                cs.seen[c as usize] += k;
            }
        }
        // Line 6: C(g, π_g) = (g, π_g)^{γ_g} over the *induced* subgraph.
        // The children hold every edge inside a part; the rest — edges
        // the divide cut, deleted or not — run between parts.
        if t.form_edges.len() - fe_start < sub.m() {
            for (p, part) in (0u32..).zip(d.parts()) {
                for &local in part {
                    cs.part_of[local as usize] = p;
                }
            }
            let labels = &t.labels[base..base + sub.n()];
            for (u, &pu) in (0u32..).zip(&cs.part_of[..sub.n()]) {
                for &w in arena.neighbors(sub, u) {
                    if u < w && cs.part_of[w as usize] != pu {
                        let (a, b) = (labels[u as usize], labels[w as usize]);
                        t.form_edges.push((a.min(b), a.max(b)));
                    }
                }
            }
        }
        t.form_edges[fe_start..].sort();
        let fedges = range_since(&t.form_edges, fe_start);
        cs.colors.sort_unstable();
        let fc_start = t.form_colors.len();
        t.form_colors.extend(
            cs.colors
                .iter()
                .map(|&c| (c, std::mem::take(&mut cs.seen[c as usize]))),
        );
        let fcolors = range_since(&t.form_colors, fc_start);
        let classes = push_range(&mut t.classes, &sibling_classes);
        let node = &mut t.nodes[id];
        node.kind = NodeKind::Internal;
        node.children = crange;
        node.classes = classes;
        node.fcolors = fcolors;
        node.fedges = fedges;
    }
}

/// The AutoTree of `g` under the unit coloring, default options and an
/// unlimited budget: the tree most unit tests start from.
#[cfg(test)]
pub(crate) fn tree_of(g: &Graph) -> AutoTree {
    let opts = DviclOptions::default();
    try_build_autotree(g, &Coloring::unit(g.n()), &opts, &Budget::unlimited())
        .expect("unlimited build cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;
    use dvicl_graph::{named, Perm};

    fn pseudo_random_perm(n: usize, salt: u64) -> Perm {
        let mut image: Vec<V> = vertex_range(n).collect();
        let mut state = 0x9e3779b97f4a7c15u64 ^ salt ^ (n as u64) << 32;
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
    fn fig1_autotree_matches_paper_fig4() {
        // Fig. 4: the hub 7 is the axis; children are {7}, the 4-cycle
        // {0,1,2,3} (a non-singleton leaf, labeled by the IR engine), and
        // the triangle {4,5,6} (divided further into three singletons).
        let g = named::fig1_example();
        let t = tree_of(&g);
        let stats = t.stats();
        assert_eq!(stats.total_nodes, 7);
        assert_eq!(stats.singleton_leaves, 4);
        assert_eq!(stats.non_singleton_leaves, 1);
        assert_eq!(stats.avg_non_singleton_size, 4.0);
        assert_eq!(stats.depth, 2);
        // The triangle's three singleton children are one sibling class.
        let tri = t.nodes().find(|n| n.verts() == [4, 5, 6]).unwrap();
        assert_eq!(tri.children().len(), 3);
        assert_eq!(tri.sibling_classes(), vec![(0, 3)]);
    }

    #[test]
    fn root_labels_are_a_permutation() {
        for g in [
            named::fig1_example(),
            named::petersen(),
            named::rary_tree(2, 3),
            named::complete(5),
        ] {
            let t = tree_of(&g);
            let perm = t.canonical_labeling();
            assert_eq!(perm.len(), g.n());
        }
    }

    #[test]
    fn certificate_invariant_under_relabeling() {
        for (salt, g) in [
            named::fig1_example(),
            named::fig3_example(),
            named::petersen(),
            named::hypercube(3),
            named::rary_tree(3, 2),
            named::complete_bipartite(3, 4),
            named::star(6),
            named::frucht(),
            named::cycle(9),
            named::path(7),
        ]
        .into_iter()
        .enumerate()
        {
            let n = g.n();
            let t1 = tree_of(&g);
            for round in 0..3u64 {
                let gamma = pseudo_random_perm(n, salt as u64 * 17 + round);
                let t2 = tree_of(&g.permuted(&gamma));
                assert_eq!(
                    t1.canonical_form(),
                    t2.canonical_form(),
                    "salt {salt} round {round}"
                );
                // Theorem 6.6: isomorphic graphs get identical tree shapes.
                assert_eq!(t1.stats(), t2.stats());
            }
        }
    }

    #[test]
    fn certificate_separates_non_isomorphic() {
        let pairs = [
            (
                named::cycle(6),
                named::cycle(3).disjoint_union(&named::cycle(3)),
            ),
            (
                named::complete_bipartite(3, 3),
                Graph::from_edges(
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
                ),
            ),
            (named::path(5), named::star(4)),
        ];
        for (a, b) in pairs {
            assert_ne!(tree_of(&a).canonical_form(), tree_of(&b).canonical_form());
        }
    }

    #[test]
    fn labeling_produces_the_certificate() {
        for g in [
            named::fig1_example(),
            named::rary_tree(2, 3),
            named::petersen(),
        ] {
            let t = tree_of(&g);
            let perm = t.canonical_labeling();
            let direct = CanonForm::new(&g, t.pi.colors(), perm.as_slice());
            assert_eq!(direct.view(), t.canonical_form());
        }
    }

    #[test]
    fn leaf_labels_fill_their_cells() {
        // Petersen with vertex 0 pre-colored: DivideI isolates 0, and the
        // remaining 9 vertices stay one IR leaf whose π_g has two cells,
        // 0's neighbors and the rest. CombineCL must label the members of
        // each global cell c with c, c + 1, …
        let g = named::petersen();
        let pi0 = Coloring::from_cells(vec![vec![0], (1..10).collect()]).unwrap();
        let t =
            try_build_autotree(&g, &pi0, &DviclOptions::default(), &Budget::unlimited()).unwrap();
        let leaf = t
            .nodes()
            .find(|n| n.kind() == NodeKind::NonSingletonLeaf)
            .expect("the remainder is one leaf");
        let mut labeled: Vec<(V, V)> = leaf
            .verts()
            .iter()
            .zip(leaf.labels())
            .map(|(&v, &label)| (t.pi.color_of(v), label))
            .collect();
        labeled.sort_unstable();
        let cells: Vec<&[(V, V)]> = labeled.chunk_by(|a, b| a.0 == b.0).collect();
        assert_eq!(cells.len(), 2);
        for cell in cells {
            for (rank, &(color, label)) in (0..).zip(cell) {
                assert_eq!(label, color + rank);
            }
        }
    }

    #[test]
    fn regular_graph_is_one_leaf() {
        // Petersen: unit equitable coloring, no divide applies — the tree
        // is a single non-singleton leaf (the benchmark-graph situation of
        // Table 4).
        let t = tree_of(&named::petersen());
        let s = t.stats();
        assert_eq!(s.total_nodes, 1);
        assert_eq!(s.non_singleton_leaves, 1);
        assert_eq!(s.depth, 0);
        assert_eq!(t.node(t.root()).kind(), NodeKind::NonSingletonLeaf);
    }

    #[test]
    fn balanced_tree_divides_fully() {
        // A balanced binary tree divides into singletons only: no IR calls.
        let t = tree_of(&named::rary_tree(2, 3));
        let s = t.stats();
        assert_eq!(s.non_singleton_leaves, 0);
        assert_eq!(s.singleton_leaves, 15);
    }

    #[test]
    fn divide_s_ablation_still_correct() {
        let opts = DviclOptions {
            use_divide_s: false,
            ..DviclOptions::default()
        };
        let g = named::fig1_example();
        let unlimited = Budget::unlimited();
        let t1 = try_build_autotree(&g, &Coloring::unit(8), &opts, &unlimited).unwrap();
        let gamma = pseudo_random_perm(8, 99);
        let t2 =
            try_build_autotree(&g.permuted(&gamma), &Coloring::unit(8), &opts, &unlimited).unwrap();
        assert_eq!(t1.canonical_form(), t2.canonical_form());
        // Without DivideS the triangle stays a non-singleton leaf.
        assert!(t1.stats().non_singleton_leaves >= 1);

        // The ablation on the NotreDame analog: DivideS divides where
        // color cells are fully joined; without it those cells reach the
        // IR engine inside non-singleton leaves, so switching it off more
        // than doubles those leaves and quadruples the search. A change
        // that moves these counts must restate them here.
        let g = (dvicl_data::social_suite()
            .into_iter()
            .find(|d| d.name == "NotreDame")
            .expect("registered")
            .build)();
        assert_eq!((g.n(), g.m()), (11_114, 35_311));
        let counts = |use_divide_s| {
            let opts = DviclOptions {
                use_divide_s,
                ..DviclOptions::default()
            };
            let before = obs::snapshot();
            let t = try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited).unwrap();
            let d = obs::snapshot().diff(&before);
            let leaves = t.stats().non_singleton_leaves;
            (
                leaves,
                d.get(Counter::SearchNodes),
                d.get(Counter::DivideSApplied),
            )
        };
        let (on, off) = (counts(true), counts(false));
        assert_eq!(on, (12, 72, 14));
        assert_eq!(off, (26, 308, 0));
        assert!(on.0 < off.0 && on.1 < off.1);
    }

    #[test]
    fn respects_initial_colors() {
        // Two 3-cycles: with unit coloring they are symmetric; coloring one
        // cycle differently must break the symmetry (different
        // certificates).
        let g = named::cycle(3).disjoint_union(&named::cycle(3));
        let unit = Coloring::unit(6);
        let split = Coloring::from_cells(vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let (opts, unlimited) = (DviclOptions::default(), Budget::unlimited());
        let t_unit = try_build_autotree(&g, &unit, &opts, &unlimited).unwrap();
        let t_split = try_build_autotree(&g, &split, &opts, &unlimited).unwrap();
        assert_ne!(t_unit.canonical_form(), t_split.canonical_form());
        // And the two cycles are one sibling class only under unit colors.
        assert_eq!(t_unit.node(t_unit.root()).sibling_classes().len(), 1);
        assert_eq!(t_split.node(t_split.root()).sibling_classes().len(), 2);
    }

    #[test]
    fn disconnected_graphs_work() {
        let g = named::petersen().disjoint_union(&named::petersen());
        let t = tree_of(&g);
        assert_eq!(t.node(t.root()).children().len(), 2);
        assert_eq!(t.node(t.root()).sibling_classes(), vec![(0, 2)]);
        let gamma = pseudo_random_perm(20, 5);
        let t2 = tree_of(&g.permuted(&gamma));
        assert_eq!(t.canonical_form(), t2.canonical_form());
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let t0 = tree_of(&Graph::from_edges(0, &[]));
        assert_eq!(t0.len(), 1);
        let t1 = tree_of(&Graph::from_edges(1, &[]));
        assert_eq!(t1.stats().singleton_leaves, 1);
        let t2 = tree_of(&Graph::from_edges(3, &[]));
        // Three isolated same-color vertices: one class of three singleton
        // children.
        assert_eq!(t2.node(t2.root()).sibling_classes(), vec![(0, 3)]);
        let k2 = tree_of(&named::complete(2));
        assert_eq!(k2.stats().singleton_leaves, 2);
    }
}
