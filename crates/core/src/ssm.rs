//! Symmetric subgraph matching over the AutoTree (`SSM-AT`, Algorithm 6),
//! plus the two primitives the paper's application studies are built on:
//!
//! * [`try_symmetric_key`] — a canonical key for a vertex set `S` such
//!   that two sets have equal keys **iff** some automorphism of `(G, π)`
//!   maps one onto the other (the clustering key of Table 7).
//! * [`try_count_images`] — the exact number of distinct images of `S`
//!   under `Aut(G, π)` (the seed-set counts of Table 6), as a [`BigUint`]
//!   because real counts reach `10^88`.
//! * [`try_enumerate_images`] — the actual matches (Algorithm 6): the
//!   first `limit` images of one fixed order, since counts are often
//!   astronomically large, with [`SsmMatches::truncated`] marking a
//!   prefix.
//!
//! Every primitive takes a [`Budget`], which meters the recursion (one
//! work unit per tree node or orbit image) and aborts with a typed
//! [`DviclError`] on exhaustion or cancellation, and rejects an empty or
//! out-of-range query set as [`DviclError::InvalidInput`].
//!
//! All three read one analysis of the set. It partitions the set over a
//! node's children; within a sibling class the per-child *patterns*
//! (recursive keys) may be assigned to any distinct children of the
//! class, because `Aut(g)` restricted to a class is the full wreath
//! product `Aut(child) ≀ S_k` (see `crate::aut`). A non-singleton leaf
//! answers from what the build stored for it: the set's orbit under the
//! leaf's automorphism generators gives the count and the images, and
//! the orbit's least image in the leaf's canonical labels gives the key,
//! so no query runs an IR search.

use crate::tree::{AutoTree, NodeId, NodeKind, NodeRef};
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{as_vertex, V};
use dvicl_group::BigUint;
use dvicl_obs::{Counter, Phase};
use rustc_hash::{FxBuildHasher, FxHashMap};
use std::hash::BuildHasher;
use std::ops::ControlFlow;

/// Precomputed navigation over an AutoTree: vertex → leaf, child → position
/// in parent. Build once, share across many SSM queries.
pub struct SsmIndex {
    leaf_of: Vec<NodeId>,
    pos_in_parent: Vec<u32>,
}

impl SsmIndex {
    /// Builds the index for `tree`.
    // dvicl-lint: allow(budget-reachability) -- one pass over a finished tree, linear in what the metered try_build_autotree produced; the try_* queries it serves spend per node
    pub fn new(tree: &AutoTree) -> Self {
        let n = tree.pi.n();
        let mut leaf_of = vec![usize::MAX; n];
        let mut pos_in_parent = vec![0u32; tree.len()];
        for node in tree.nodes() {
            for (pos, &c) in (0..).zip(node.children()) {
                pos_in_parent[c] = pos;
            }
            if node.children().is_empty() {
                for &v in node.verts() {
                    leaf_of[v as usize] = node.id();
                }
            }
        }
        SsmIndex {
            leaf_of,
            pos_in_parent,
        }
    }

    /// The child of `node` whose subtree contains `v` (`v` must be in the
    /// node's subgraph but `node` must not be `v`'s leaf).
    // dvicl-lint: allow(budget-reachability) -- walks one leaf-to-node path, O(tree depth); analyze calls it once per query vertex at each node it spends a unit on
    fn child_under(&self, tree: &AutoTree, node: NodeId, v: V) -> NodeId {
        let mut cur = self.leaf_of[v as usize];
        loop {
            #[expect(
                clippy::expect_used,
                reason = "the caller guarantees v lies strictly below node, so the walk hits node before the root"
            )]
            let parent = tree.node(cur).parent().expect("v lies under node");
            if parent == node {
                return cur;
            }
            cur = parent;
        }
    }
}

fn validate_set(tree: &AutoTree, set: &[V]) -> Result<Vec<V>, DviclError> {
    if set.is_empty() {
        return Err(DviclError::invalid(
            "SSM queries need a non-empty vertex set",
        ));
    }
    let n = tree.pi.n();
    let mut s: Vec<V> = set.to_vec();
    s.sort_unstable();
    s.dedup();
    if let Some(&v) = s.iter().find(|&&v| (v as usize) >= n) {
        return Err(DviclError::invalid(format!(
            "SSM query vertex {v} out of range for a {n}-vertex graph"
        )));
    }
    Ok(s)
}

/// The per-query record [`analyze`] makes of a set inside one node.
struct Analysis {
    node: NodeId,
    /// The set, sorted.
    set: Vec<V>,
    /// Canonical pattern key: equal keys ⇔ sets symmetric inside `node`.
    key: Vec<u8>,
    /// Number of distinct images of the set inside `node`.
    count: BigUint,
    /// At an internal node, each occupied sibling class (its index in
    /// [`NodeRef::sibling_classes`]) with its parts, one per occupied
    /// child, stably sorted by key; empty at a leaf.
    classes: Vec<(usize, Vec<Analysis>)>,
}

fn push_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Canonical key of `set` under `Aut(G, π)`: equal keys ⇔ symmetric sets.
/// Rejects invalid query sets as [`DviclError::InvalidInput`] and meters
/// the recursion against `budget`.
pub fn try_symmetric_key(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    budget: &Budget,
) -> Result<Vec<u8>, DviclError> {
    let set = validate_set(tree, set)?;
    Ok(analyze(tree, index, tree.root(), set, budget)?.key)
}

/// Exact number of distinct images of `set` under `Aut(G, π)` (including
/// `set` itself).
///
/// ```
/// use dvicl_graph::{named, Coloring};
/// use dvicl_core::{try_build_autotree, Budget, DviclOptions};
/// use dvicl_core::ssm::{try_count_images, SsmIndex};
/// // A pair of star leaves has C(5, 2) = 10 symmetric images.
/// let g = named::star(5);
/// let unlimited = Budget::unlimited();
/// let tree = try_build_autotree(&g, &Coloring::unit(6), &DviclOptions::default(), &unlimited)?;
/// let index = SsmIndex::new(&tree);
/// assert_eq!(try_count_images(&tree, &index, &[1, 2], &unlimited)?.to_u64(), Some(10));
/// # Ok::<(), dvicl_core::DviclError>(())
/// ```
pub fn try_count_images(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    budget: &Budget,
) -> Result<BigUint, DviclError> {
    let _span = dvicl_obs::span(Phase::CoreSsm);
    let set = validate_set(tree, set)?;
    Ok(analyze(tree, index, tree.root(), set, budget)?.count)
}

/// The one recursion over the tree: the record of `set`, sorted and
/// entirely inside `node`. Each part finds its sibling class by binary
/// search, so the work follows the set, not the node's classes. Spends
/// one work unit per visited tree node and orbit image.
fn analyze(
    tree: &AutoTree,
    index: &SsmIndex,
    node: NodeId,
    set: Vec<V>,
    gov: &Budget,
) -> Result<Analysis, DviclError> {
    dvicl_obs::bump(Counter::SsmStates);
    gov.spend(1)?;
    let n = tree.node(node);
    let mut key = Vec::new();
    let mut count = BigUint::one();
    let mut classes: Vec<(usize, Vec<Analysis>)> = Vec::new();
    match n.kind() {
        NodeKind::SingletonLeaf => key.push(0x01),
        NodeKind::NonSingletonLeaf => {
            // The least orbit image in canonical labels: symmetric
            // sibling leaves share one certificate, so their labels carry
            // one leaf's orbits onto the other's.
            let mut least: Option<Vec<V>> = None;
            let mut size = 0u64;
            // The visitor never breaks, so the BFS visits the whole orbit.
            let _ = orbit_of_set(n, &set, gov, |image| {
                let mut l: Vec<V> = image.iter().map(|&i| n.labels()[i as usize]).collect();
                l.sort_unstable();
                if least.as_ref().is_none_or(|m| l < *m) {
                    least = Some(l);
                }
                size += 1;
                Ok(ControlFlow::Continue(()))
            })?;
            key.push(0x5A);
            for l in least.unwrap_or_default() {
                push_u32(&mut key, l);
            }
            count = BigUint::from_u64(size);
        }
        NodeKind::Internal => {
            let mut located: Vec<(u32, NodeId, V)> = set
                .iter()
                .map(|&v| {
                    let c = index.child_under(tree, node, v);
                    (index.pos_in_parent[c], c, v)
                })
                .collect();
            located.sort_unstable();
            let sibling_classes = n.sibling_classes();
            for in_child in located.chunk_by(|a, b| a.1 == b.1) {
                let (pos, child, _) = in_child[0];
                let class = sibling_classes.partition_point(|&(_, end)| end <= pos);
                let subset = in_child.iter().map(|&(_, _, v)| v).collect();
                let part = analyze(tree, index, child, subset, gov)?;
                match classes.last_mut() {
                    Some((last, parts)) if *last == class => parts.push(part),
                    _ => classes.push((class, vec![part])),
                }
            }
            for (class, parts) in &mut classes {
                parts.sort_by(|a, b| a.key.cmp(&b.key));
                push_u32(&mut key, 0xA5A5_0000 | as_vertex(*class));
                push_u32(&mut key, as_vertex(parts.len())); // occupied children
                for p in parts.iter() {
                    key.extend_from_slice(&(p.key.len() as u64).to_le_bytes());
                    key.extend_from_slice(&p.key);
                }
                // Assignments × within-child images, where #assignments
                // = C(c, k_1)·C(c-k_1, k_2)·… over the runs k_i of equal
                // keys in a class of c children.
                let (start, end) = sibling_classes[*class];
                let mut remaining = u64::from(end - start);
                for run in parts.chunk_by(|a, b| a.key == b.key) {
                    count *= &BigUint::binomial(remaining, run.len() as u64);
                    remaining -= run.len() as u64;
                }
                for p in parts.iter() {
                    count *= &p.count;
                }
            }
        }
    }
    Ok(Analysis {
        node,
        set,
        key,
        count,
        classes,
    })
}

/// Whether a walk goes on, or stops because its consumer has enough.
type Flow = Result<ControlFlow<()>, DviclError>;

/// A consumer of images, each a vertex list.
type Emit<'e> = &'e mut dyn FnMut(&[V]) -> Flow;

/// One BFS over the images of `set` under the generators a non-singleton
/// leaf `n` stored: passes each image, in discovery order, to `visit` as
/// sorted positions in [`NodeRef::verts`] until `visit` breaks. Spends
/// one work unit per image visited.
///
/// Each image is stored once: `found` holds the images found so far in
/// discovery order, `k` positions apiece, so it is both the BFS queue
/// and the seen set. `last` maps an image's hash to the latest image
/// with that hash, and `prior[i]` chains image `i` to the one before.
fn orbit_of_set(
    n: NodeRef<'_>,
    set: &[V],
    gov: &Budget,
    mut visit: impl FnMut(&[u32]) -> Flow,
) -> Flow {
    let local: FxHashMap<V, u32> = (0..).zip(n.verts()).map(|(i, &v)| (v, i)).collect();
    let gens: Vec<FxHashMap<u32, u32>> = n
        .leaf_generators()
        .map(|sparse| {
            sparse
                .iter()
                .map(|&(a, b)| (local[&a], local[&b]))
                .collect()
        })
        .collect();
    let mut found: Vec<u32> = set.iter().map(|v| local[v]).collect();
    found.sort_unstable();
    let k = found.len();
    let hash = |image: &[u32]| FxBuildHasher::default().hash_one(image);
    let mut last: FxHashMap<u64, usize> = FxHashMap::default();
    last.insert(hash(&found), 0);
    let mut prior: Vec<Option<usize>> = vec![None];
    let mut img: Vec<u32> = Vec::with_capacity(k);
    let mut head = 0;
    while head < prior.len() {
        dvicl_obs::bump(Counter::SsmStates);
        gov.spend(1)?;
        let image = head * k..(head + 1) * k;
        if visit(&found[image.clone()])?.is_break() {
            return Ok(ControlFlow::Break(()));
        }
        for gen in &gens {
            img.clear();
            img.extend(
                found[image.clone()]
                    .iter()
                    .map(|v| gen.get(v).copied().unwrap_or(*v)),
            );
            img.sort_unstable();
            let h = hash(&img);
            let mut at = last.get(&h).copied();
            while let Some(i) = at {
                if found[i * k..(i + 1) * k] == img[..] {
                    break;
                }
                at = prior[i];
            }
            if at.is_none() {
                prior.push(last.insert(h, prior.len()));
                found.extend_from_slice(&img);
            }
        }
        head += 1;
    }
    Ok(ControlFlow::Continue(()))
}

/// Result of a [`try_enumerate_images`] run.
#[derive(Clone, Debug)]
pub struct SsmMatches {
    /// The first `limit` distinct images (each sorted ascending) in the
    /// walk's order; the query itself comes first.
    pub matches: Vec<Vec<V>>,
    /// True iff `count` exceeds the number of matches returned.
    pub truncated: bool,
    /// Exact number of distinct images, as [`try_count_images`] gives it.
    pub count: BigUint,
}

/// Enumerates the images of `set` under `Aut(G, π)` — the symmetric
/// subgraphs of Algorithm 6 — and returns the first `limit` of them with
/// their count. The order is fixed: sibling classes in order; within a
/// class, every placement of its parts on distinct children (ascending
/// within a run of equal keys), and for each placement every choice of
/// the parts' images, earlier parts outermost. Reaching `limit` is
/// reported in the result, not as an error; the [`Budget`] meters the
/// walk itself and aborts with a typed error on exhaustion or
/// cancellation.
pub fn try_enumerate_images(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    limit: usize,
    budget: &Budget,
) -> Result<SsmMatches, DviclError> {
    let _span = dvicl_obs::span(Phase::CoreSsm);
    let set = validate_set(tree, set)?;
    let analysis = analyze(tree, index, tree.root(), set, budget)?;
    let mut matches: Vec<Vec<V>> = Vec::new();
    if limit > 0 {
        // The walk stops at `limit` matches; whether it stopped early is
        // `count > limit`.
        let _ = Walk { tree, gov: budget }.images(&analysis, &mut |image| {
            matches.push(image.to_vec());
            Ok(if matches.len() < limit {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            })
        })?;
    }
    Ok(SsmMatches {
        truncated: analysis.count > BigUint::from_u64(matches.len() as u64),
        matches,
        count: analysis.count,
    })
}

/// The enumeration walk over an [`Analysis`]: depth-first, so it holds
/// one partial image per level and stops as soon as its consumer does.
struct Walk<'a> {
    tree: &'a AutoTree,
    gov: &'a Budget,
}

impl Walk<'_> {
    /// Passes each image of the analyzed set, sorted, to `f`.
    fn images(&self, a: &Analysis, f: Emit<'_>) -> Flow {
        dvicl_obs::bump(Counter::SsmStates);
        self.gov.spend(1)?;
        let n = self.tree.node(a.node);
        let mut sorted = |mut image: Vec<V>| {
            image.sort_unstable();
            f(&image)
        };
        match n.kind() {
            NodeKind::SingletonLeaf => f(&a.set),
            NodeKind::NonSingletonLeaf => orbit_of_set(n, &a.set, self.gov, |image| {
                sorted(image.iter().map(|&i| n.verts()[i as usize]).collect())
            }),
            NodeKind::Internal => self.product(
                &a.classes,
                &|(class, parts), g| self.place(n, *class, parts, &mut Vec::new(), g),
                &mut Vec::new(),
                &mut |image| sorted(image.to_vec()),
            ),
        }
    }

    /// Places the parts of one sibling class of `n`, in order, on unused
    /// children of the class; a part that repeats its predecessor's key
    /// takes a later child, so each run of equal keys fills its children
    /// in ascending order. Once all are placed, passes that placement's
    /// images to `f`: each part moves the images of its run's first part
    /// to its child by the sibling isomorphism.
    fn place(
        &self,
        n: NodeRef<'_>,
        class: usize,
        parts: &[Analysis],
        placed: &mut Vec<usize>,
        f: Emit<'_>,
    ) -> Flow {
        dvicl_obs::bump(Counter::SsmStates);
        self.gov.spend(1)?;
        let (start, end) = n.sibling_classes()[class];
        let children = &n.children()[start as usize..end as usize];
        let i = placed.len();
        let Some(part) = parts.get(i) else {
            let moves: Vec<(&Analysis, Option<FxHashMap<V, V>>)> = parts
                .iter()
                .zip(placed.iter())
                .map(|(part, &slot)| {
                    let home = &parts[parts.partition_point(|p| p.key < part.key)];
                    let target = children[slot];
                    let iso = (home.node != target).then(|| {
                        self.tree
                            .sibling_isomorphism(home.node, target)
                            .into_iter()
                            .collect()
                    });
                    (home, iso)
                })
                .collect();
            return self.product(
                &moves,
                &|(home, iso), g| {
                    self.images(home, &mut |image| match iso {
                        None => g(image),
                        Some(iso) => g(&image.iter().map(|v| iso[v]).collect::<Vec<V>>()),
                    })
                },
                &mut Vec::new(),
                f,
            );
        };
        let from = match i.checked_sub(1) {
            Some(prev) if parts[prev].key == part.key => placed[prev] + 1,
            _ => 0,
        };
        for slot in from..children.len() {
            if placed.contains(&slot) {
                continue;
            }
            placed.push(slot);
            let flow = self.place(n, class, parts, placed, f);
            placed.pop();
            if flow?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Calls `f` once per choice of one option from each factor, with the
    /// options appended to `buf` in factor order; earlier factors are the
    /// outer loops.
    fn product<T>(
        &self,
        factors: &[T],
        options: &dyn Fn(&T, Emit<'_>) -> Flow,
        buf: &mut Vec<V>,
        f: Emit<'_>,
    ) -> Flow {
        self.gov.spend(1)?;
        let Some((first, rest)) = factors.split_first() else {
            return f(buf);
        };
        options(first, &mut |option| {
            let len = buf.len();
            buf.extend_from_slice(option);
            let flow = self.product(rest, options, buf, f);
            buf.truncate(len);
            flow
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::tree_of;
    use dvicl_graph::{named, Coloring, Graph};
    use dvicl_group::brute;
    use rustc_hash::FxHashSet;

    fn setup(g: &Graph) -> (AutoTree, SsmIndex) {
        let t = tree_of(g);
        let i = SsmIndex::new(&t);
        (t, i)
    }

    fn count_images(t: &AutoTree, i: &SsmIndex, set: &[V]) -> BigUint {
        try_count_images(t, i, set, &Budget::unlimited()).expect("valid query set")
    }

    fn enumerate_images(t: &AutoTree, i: &SsmIndex, set: &[V], limit: usize) -> SsmMatches {
        try_enumerate_images(t, i, set, limit, &Budget::unlimited()).expect("valid query set")
    }

    /// Ground truth: distinct images of `set` under brute-force Aut(G).
    fn brute_images(g: &Graph, set: &[V]) -> Vec<Vec<V>> {
        let pi = Coloring::unit(g.n());
        let mut out: FxHashSet<Vec<V>> = FxHashSet::default();
        for gamma in brute::automorphisms(g, &pi) {
            let mut img: Vec<V> = set.iter().map(|&v| gamma.apply(v)).collect();
            img.sort_unstable();
            out.insert(img);
        }
        let mut v: Vec<Vec<V>> = out.into_iter().collect();
        v.sort();
        v
    }

    #[test]
    fn counts_match_brute_force() {
        let cases: Vec<(Graph, Vec<V>)> = vec![
            (named::fig1_example(), vec![4]),        // orbit {4,5,6}: 3
            (named::fig1_example(), vec![0, 4]),     // 4 × 3 = 12
            (named::fig1_example(), vec![4, 5]),     // pairs in triangle: 3
            (named::fig1_example(), vec![0, 1]),     // cycle edges: 4
            (named::fig1_example(), vec![0, 2]),     // cycle diagonal: 2
            (named::star(5), vec![1, 2]),            // C(5,2) = 10
            (named::rary_tree(2, 2), vec![3]),       // 4 grandchildren
            (named::rary_tree(2, 2), vec![3, 4]),    // sibling pairs: 2
            (named::rary_tree(2, 2), vec![3, 5]),    // cross pairs: 4
            (named::petersen(), vec![0, 1]),         // edges: 15
            (named::petersen(), vec![0, 2]),         // non-edges: 30
            (named::hypercube(3), vec![0, 3, 5, 6]), // one tetrahedral class: 2
        ];
        for (g, set) in cases {
            let (t, i) = setup(&g);
            let expected = brute_images(&g, &set).len() as u64;
            assert_eq!(
                count_images(&t, &i, &set).to_u64(),
                Some(expected),
                "count mismatch for {g:?} set {set:?}"
            );
        }
    }

    #[test]
    fn enumeration_matches_brute_force() {
        let cases: Vec<(Graph, Vec<V>)> = vec![
            (named::fig1_example(), vec![4]),
            (named::fig1_example(), vec![0, 4]),
            (named::fig1_example(), vec![0, 1, 4]),
            (named::star(5), vec![1, 2]),
            (named::rary_tree(2, 2), vec![3, 5]),
            (named::petersen(), vec![0, 1, 2]),
        ];
        for (g, set) in cases {
            let (t, i) = setup(&g);
            let mut truth = brute_images(&g, &set);
            let res = enumerate_images(&t, &i, &set, 10_000);
            assert!(!res.truncated, "{g:?} {set:?} truncated");
            let mut got = res.matches.clone();
            got.sort();
            got.dedup();
            truth.sort();
            assert_eq!(got, truth, "enumeration mismatch for {g:?} set {set:?}");
        }
    }

    #[test]
    fn keys_classify_symmetry_like_brute_force() {
        // All 2-subsets of fig1: keys equal iff brute-force symmetric.
        let g = named::fig1_example();
        let (t, i) = setup(&g);
        let pi = Coloring::unit(8);
        let autos = brute::automorphisms(&g, &pi);
        let sets: Vec<Vec<V>> = (0..8)
            .flat_map(|a| ((a + 1)..8).map(move |b| vec![a as V, b as V]))
            .collect();
        for s1 in &sets {
            for s2 in &sets {
                let truly = autos.iter().any(|gamma| {
                    let mut img: Vec<V> = s1.iter().map(|&v| gamma.apply(v)).collect();
                    img.sort_unstable();
                    img == *s2
                });
                let key = |s| try_symmetric_key(&t, &i, s, &Budget::unlimited()).unwrap();
                assert_eq!(
                    truly,
                    key(s1) == key(s2),
                    "key disagreement on {s1:?} vs {s2:?}"
                );
            }
        }
    }

    #[test]
    fn example_6_11_shape() {
        // The paper's Example 6.11 runs on the Fig. 3 graph: a query path
        // of (pendant, clique-member, other-clique-member) has 6 images
        // inside one wing-triple and 6 more... our fig3 analog: query the
        // 2-path (pendant p, clique member c) plus one other clique member.
        // We verify the SSM result against brute force instead of the
        // paper's absolute listing (our fig3 differs in the second level).
        let g = named::fig3_example();
        let (t, i) = setup(&g);
        let query: Vec<V> = vec![3, 2, 4]; // pendant 3 - clique 2 - clique 4
        let truth = brute_images(&g, &query);
        let res = enumerate_images(&t, &i, &query, 1000);
        assert!(!res.truncated);
        let mut got = res.matches.clone();
        got.sort();
        assert_eq!(got, truth);
        assert_eq!(
            count_images(&t, &i, &query).to_u64(),
            Some(truth.len() as u64)
        );
    }

    /// Every limit returns a prefix of the unlimited walk: exactly
    /// min(L, count) distinct genuine images, truncated iff count > L.
    #[test]
    fn limit_returns_a_prefix_of_the_walk() {
        let cases: Vec<(Graph, Vec<V>)> = vec![
            (named::fig1_example(), vec![4]),
            (named::fig1_example(), vec![0, 4]),
            (named::fig1_example(), vec![0, 1, 4]),
            (named::star(5), vec![1, 2]),
            (named::rary_tree(2, 2), vec![3, 5]),
            (named::petersen(), vec![0, 1, 2]),
            // One non-singleton leaf: 10 and 30 images.
            (named::petersen(), vec![0]),
            (named::petersen(), vec![0, 2]),
        ];
        for (g, set) in cases {
            let (t, i) = setup(&g);
            let truth = brute_images(&g, &set);
            let count = truth.len();
            let full = enumerate_images(&t, &i, &set, count);
            assert_eq!(full.count.to_u64(), Some(count as u64));
            for limit in 0..=count + 1 {
                let res = enumerate_images(&t, &i, &set, limit);
                let want = limit.min(count);
                assert_eq!(
                    res.matches,
                    full.matches[..want],
                    "{g:?} {set:?} at limit {limit}"
                );
                let distinct: FxHashSet<&Vec<V>> = res.matches.iter().collect();
                assert_eq!(distinct.len(), want, "{g:?} {set:?} at limit {limit}");
                assert!(res.matches.iter().all(|m| truth.binary_search(m).is_ok()));
                assert_eq!(res.truncated, count > limit);
                assert_eq!(res.count, full.count);
            }
        }
    }

    #[test]
    fn whole_vertex_set_is_rigid() {
        let g = named::fig1_example();
        let (t, i) = setup(&g);
        let all: Vec<V> = (0..8).collect();
        assert_eq!(count_images(&t, &i, &all).to_u64(), Some(1));
    }

    #[test]
    fn asymmetric_graph_all_counts_one() {
        let g = named::frucht();
        let (t, i) = setup(&g);
        for v in 0..12 {
            assert_eq!(count_images(&t, &i, &[v]).to_u64(), Some(1));
        }
        assert_eq!(count_images(&t, &i, &[0, 5, 9]).to_u64(), Some(1));
    }

    #[test]
    fn large_counts_use_bigint() {
        // A star with 70 leaves: C(70, 35) ≈ 1.1E20 > u64 for the orbit of
        // a 35-leaf subset.
        let g = named::star(70);
        let (t, i) = setup(&g);
        let set: Vec<V> = (1..=35).collect();
        let c = count_images(&t, &i, &set);
        assert_eq!(c, BigUint::binomial(70, 35));
        assert!(c.to_u64().is_none());
    }

    #[test]
    fn invalid_queries_are_typed_errors() {
        let g = named::star(5);
        let (t, i) = setup(&g);
        let b = Budget::unlimited();
        assert!(matches!(
            try_count_images(&t, &i, &[], &b),
            Err(DviclError::InvalidInput(_))
        ));
        assert!(matches!(
            try_symmetric_key(&t, &i, &[99], &b),
            Err(DviclError::InvalidInput(_))
        ));
    }

    #[test]
    fn work_budget_aborts_enumeration() {
        use dvicl_govern::Resource;
        let g = named::star(8);
        let (t, i) = setup(&g);
        let tight = Budget::with_max_work(2);
        let err = try_enumerate_images(&t, &i, &[1, 2, 3], 1000, &tight).unwrap_err();
        assert!(matches!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            }
        ));
    }
}
