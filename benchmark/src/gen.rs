//! Seeded randomness: relabelings and the service workload's small-graph
//! corpus.
//!
//! Everything the program sees is made here or by the `dvicl-data`
//! generators, from the `--seed` argument alone.

use dvicl_graph::{Graph, GraphBuilder, Perm, V};
use std::collections::HashSet;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one benchmark seed, so the
    /// workloads draw independent sequences from the same `--seed`.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut Rng) -> Perm {
    let mut image: Vec<V> = (0..n as V).collect();
    for i in (1..n).rev() {
        image.swap(i, rng.below(i + 1));
    }
    Perm::from_image(image).expect("a shuffle of 0..n is a permutation")
}

/// `g` under a fresh random relabeling.
pub fn relabel(g: &Graph, rng: &mut Rng) -> Graph {
    g.permuted(&permutation(g.n(), rng))
}

/// The five shapes of the service corpus.
const FAMILIES: usize = 5;

/// One corpus candidate on `n` vertices from family `family`.
fn candidate(family: usize, n: usize, rng: &mut Rng) -> Graph {
    let mut b = GraphBuilder::new(n);
    let v = |x: usize| x as V;
    match family {
        // Sparse random graph, average degree 2 to 4.
        0 => {
            let m = rng.range(n, 2 * n);
            for _ in 0..m {
                b.add_edge(v(rng.below(n)), v(rng.below(n)));
            }
        }
        // Random recursive tree.
        1 => {
            for i in 1..n {
                b.add_edge(v(rng.below(i)), v(i));
            }
        }
        // Double broom: a path with `a` leaves on one end, `c` on the other.
        2 => {
            let a = rng.range(1, n / 3);
            let c = rng.range(1, n / 3);
            let path = n - a - c;
            for i in 1..path {
                b.add_edge(v(i - 1), v(i));
            }
            for j in 0..a {
                b.add_edge(0, v(path + j));
            }
            for j in 0..c {
                b.add_edge(v(path - 1), v(path + a + j));
            }
        }
        // Circulant C_n(S), |S| in 1..=3.
        3 => {
            for _ in 0..rng.range(1, 3) {
                let s = rng.range(1, n / 2);
                for i in 0..n {
                    b.add_edge(v(i), v((i + s) % n));
                }
            }
        }
        // Disjoint union of cycles, each of length at least 3.
        _ => {
            let mut start = 0;
            while start < n {
                let left = n - start;
                let len = if left < 6 {
                    left
                } else {
                    rng.range(3, left - 3)
                };
                for i in 0..len {
                    b.add_edge(v(start + i), v(start + (i + 1) % len));
                }
                start += len;
            }
        }
    }
    b.build()
}

/// An isomorphism invariant: `n`, `m` and the sorted multiset of every
/// vertex's BFS layer sizes. Isomorphic graphs get equal signatures, so
/// graphs with distinct signatures are pairwise non-isomorphic.
fn signature(g: &Graph) -> u64 {
    let n = g.n();
    let mut profiles: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut dist = vec![u32::MAX; n];
    let mut queue: Vec<V> = Vec::with_capacity(n);
    for s in 0..n as V {
        dist.fill(u32::MAX);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut layers: Vec<u32> = vec![1];
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &w in g.neighbors(u) {
                if dist[w as usize] == u32::MAX {
                    let d = dist[u as usize] + 1;
                    dist[w as usize] = d;
                    if layers.len() <= d as usize {
                        layers.push(0);
                    }
                    layers[d as usize] += 1;
                    queue.push(w);
                }
            }
        }
        profiles.push(layers);
    }
    profiles.sort_unstable();
    // FNV-1a over the words; a collision only drops a candidate.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    feed(n as u64);
    feed(g.m() as u64);
    for layers in &profiles {
        feed(u64::MAX);
        layers.iter().for_each(|&c| feed(u64::from(c)));
    }
    h
}

/// `count` pairwise non-isomorphic graphs of even order in `12..=64`,
/// spread over the five families. A candidate whose [`signature`] was
/// already taken is dropped, which may drop a graph that was not
/// isomorphic to any kept one but never keeps two isomorphic graphs.
pub fn corpus(count: usize, rng: &mut Rng) -> Vec<Graph> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut attempt = 0usize;
    while out.len() < count {
        let n = 2 * rng.range(6, 32);
        let g = candidate(attempt % FAMILIES, n, rng);
        attempt += 1;
        assert!(
            attempt < 50 * count,
            "the corpus families ran out of shapes"
        );
        if seen.insert(signature(&g)) {
            out.push(g);
        }
    }
    out
}

/// A sparse random graph of odd order in `13..=63`. No corpus graph has
/// odd order, so no lookup of it may hit.
pub fn odd_graph(rng: &mut Rng) -> Graph {
    candidate(0, 2 * rng.range(6, 31) + 1, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_dependent() {
        let draw = |seed, name| {
            let mut r = Rng::stream(seed, name);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "social"), draw(1, "social"));
        assert_ne!(draw(1, "social"), draw(2, "social"));
        assert_ne!(draw(1, "social"), draw(1, "search"));
    }

    #[test]
    fn below_and_permutation_stay_in_range() {
        let mut r = Rng::stream(7, "t");
        for n in 1..50 {
            assert!(r.below(n) < n);
            let p = permutation(n, &mut r);
            let mut img = p.as_slice().to_vec();
            img.sort_unstable();
            assert_eq!(img, (0..n as V).collect::<Vec<_>>());
        }
    }

    #[test]
    fn signature_is_a_relabeling_invariant() {
        let mut r = Rng::stream(3, "sig");
        for family in 0..FAMILIES {
            let g = candidate(family, 20, &mut r);
            assert_eq!(signature(&g), signature(&relabel(&g, &mut r)));
        }
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge(i, (i + 1) % 6);
        }
        let hexagon = b.build();
        let mut b = GraphBuilder::new(6);
        for (u, w) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(u, w);
        }
        assert_ne!(signature(&hexagon), signature(&b.build()));
    }

    #[test]
    fn corpus_is_deterministic_even_ordered_and_seed_dependent() {
        let a = corpus(120, &mut Rng::stream(1, "service"));
        let b = corpus(120, &mut Rng::stream(1, "service"));
        let c = corpus(120, &mut Rng::stream(2, "service"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|g| g.n() % 2 == 0 && (12..=64).contains(&g.n())));
        let sigs: HashSet<u64> = a.iter().map(signature).collect();
        assert_eq!(sigs.len(), a.len());
        let odd = odd_graph(&mut Rng::stream(1, "odd"));
        assert!(odd.n() % 2 == 1);
    }
}
