//! Vertex orbits of a permutation group given by generators.
//!
//! The orbits of `⟨g₁, …, g_k⟩` acting on `0..n` are exactly the connected
//! components of the union of the functional graphs `v → v^{gᵢ}`, so a
//! union-find closure over the generators computes them without enumerating
//! the group. This yields the paper's *orbit coloring* (each cell = one
//! orbit; Table 1's `cells` / `singleton` columns).

use dvicl_graph::{vertex_range, Perm, V};

/// The orbit partition of `0..n` under a generated permutation group.
#[derive(Clone, Debug)]
pub struct Orbits {
    parent: Vec<u32>,
}

impl Orbits {
    /// The trivial partition (every vertex its own orbit).
    pub fn identity(n: usize) -> Self {
        Orbits {
            parent: vertex_range(n).collect(),
        }
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Unions `v` with `v^g` for every vertex: adds a generator to the
    /// group incrementally.
    pub fn absorb(&mut self, g: &Perm) {
        assert_eq!(g.len(), self.parent.len(), "generator size mismatch");
        for v in vertex_range(self.parent.len()) {
            let a = self.find(v);
            let b = self.find(g.apply(v));
            if a != b {
                // Union by smaller root id so representatives are minima.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                self.parent[hi as usize] = lo;
            }
        }
    }

    /// Merges two vertices directly (used when a consumer knows `u ~ v`
    /// without materializing a permutation).
    pub fn union(&mut self, u: V, v: V) {
        let a = self.find(u);
        let b = self.find(v);
        if a != b {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            self.parent[hi as usize] = lo;
        }
    }

    /// True iff `u` and `v` are in the same orbit.
    pub fn same(&mut self, u: V, v: V) -> bool {
        self.find(u) == self.find(v)
    }

    /// Number of orbits.
    pub fn count(&mut self) -> usize {
        vertex_range(self.parent.len())
            .filter(|&v| self.find(v) == v)
            .count()
    }

    /// Number of singleton orbits.
    pub fn count_singletons(&mut self) -> usize {
        let mut size = vec![0u32; self.parent.len()];
        for v in vertex_range(self.parent.len()) {
            size[self.find(v) as usize] += 1;
        }
        size.iter().filter(|&&s| s == 1).count()
    }

    /// The orbits as sorted cells, ordered by their minimum member.
    pub fn cells(&mut self) -> Vec<Vec<V>> {
        let n = self.parent.len();
        let mut by_rep: Vec<Vec<V>> = vec![Vec::new(); n];
        for v in vertex_range(n) {
            let r = self.find(v);
            by_rep[r as usize].push(v);
        }
        by_rep.into_iter().filter(|c| !c.is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_generators_means_trivial_orbits() {
        let mut o = Orbits::identity(5);
        assert_eq!(o.count(), 5);
        assert_eq!(o.count_singletons(), 5);
    }

    #[test]
    fn cycle_generator_fuses_its_support() {
        let g = Perm::from_cycles(6, &[&[0, 1, 2]]).unwrap();
        let mut o = Orbits::identity(6);
        o.absorb(&g);
        assert_eq!(o.count(), 4);
        assert!(o.same(0, 2));
        assert!(!o.same(0, 3));
        assert_eq!(o.cells()[0], vec![0, 1, 2]);
    }

    #[test]
    fn generated_closure_not_just_generators() {
        // (0,1) and (1,2) generate S3 on {0,1,2}: one orbit.
        let a = Perm::from_cycles(4, &[&[0, 1]]).unwrap();
        let b = Perm::from_cycles(4, &[&[1, 2]]).unwrap();
        let mut o = Orbits::identity(4);
        o.absorb(&a);
        o.absorb(&b);
        assert!(o.same(0, 2));
        assert_eq!(o.count(), 2);
        assert_eq!(o.count_singletons(), 1);
    }

    #[test]
    fn orbit_cells_are_sorted_by_min() {
        let g = Perm::from_cycles(5, &[&[1, 4], &[2, 3]]).unwrap();
        let mut o = Orbits::identity(5);
        o.absorb(&g);
        assert_eq!(o.cells(), vec![vec![0], vec![1, 4], vec![2, 3]]);
    }
}
