//! Dense vertex permutations (`γ` in the paper).

use crate::{vertex_range, V};
use std::fmt;

/// A permutation of `0..n`, stored as its image array: `image[v] = v^γ`.
///
/// The paper applies permutations as a right action (`v^γ`), and composes
/// left-to-right: `v^(γδ) = (v^γ)^δ`. [`Perm::then`] implements that
/// composition.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Perm {
    image: Vec<V>,
}

impl Perm {
    /// The identity permutation `ι` on `n` points.
    pub fn identity(n: usize) -> Self {
        Perm {
            image: vertex_range(n).collect(),
        }
    }

    /// Builds a permutation from its image array. Returns `None` if `image`
    /// is not a bijection on `0..image.len()`.
    pub fn from_image(image: Vec<V>) -> Option<Self> {
        let n = image.len();
        let mut seen = vec![false; n];
        for &x in &image {
            let x = x as usize;
            if x >= n || seen[x] {
                return None;
            }
            seen[x] = true;
        }
        Some(Perm { image })
    }

    /// Builds a permutation on `n` points from disjoint cycles; vertices not
    /// mentioned are fixed. Returns `None` on out-of-range or repeated
    /// entries.
    pub fn from_cycles(n: usize, cycles: &[&[V]]) -> Option<Self> {
        let mut image: Vec<V> = vertex_range(n).collect();
        let mut seen = vec![false; n];
        for cycle in cycles {
            for (i, &v) in cycle.iter().enumerate() {
                let v = v as usize;
                if v >= n || seen[v] {
                    return None;
                }
                seen[v] = true;
                image[v] = cycle[(i + 1) % cycle.len()];
            }
        }
        Some(Perm { image })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// True for the permutation on zero points.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// The image `v^γ`.
    #[inline]
    pub fn apply(&self, v: V) -> V {
        self.image[v as usize]
    }

    /// The raw image slice.
    pub fn as_slice(&self) -> &[V] {
        &self.image
    }

    /// Left-to-right composition: `(self.then(other))(v) = other(self(v))`,
    /// i.e. `v^(γδ)` with `γ = self`, `δ = other`.
    pub fn then(&self, other: &Perm) -> Perm {
        assert_eq!(self.len(), other.len(), "composing perms of unequal size");
        Perm {
            image: self.image.iter().map(|&v| other.apply(v)).collect(),
        }
    }

    /// The inverse permutation `γ⁻¹`.
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0; self.len()];
        for (v, &img) in (0..).zip(&self.image) {
            inv[img as usize] = v;
        }
        Perm { image: inv }
    }

    /// True iff this is the identity.
    pub fn is_identity(&self) -> bool {
        (0..).zip(&self.image).all(|(i, &v)| i == v)
    }

    /// Decomposes into non-trivial disjoint cycles, each rotated to start at
    /// its minimum element, ordered by that minimum.
    pub fn cycles(&self) -> Vec<Vec<V>> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        for start in vertex_range(self.len()) {
            if seen[start as usize] || self.apply(start) == start {
                continue;
            }
            let mut cycle = Vec::new();
            let mut v = start;
            while !seen[v as usize] {
                seen[v as usize] = true;
                cycle.push(v);
                v = self.apply(v);
            }
            out.push(cycle);
        }
        out
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Perm {
    /// Cycle notation, e.g. `(0,6)(1,5)(2,3,4)`; the identity prints as `()`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cycles = self.cycles();
        if cycles.is_empty() {
            return write!(f, "()");
        }
        for cycle in cycles {
            write!(f, "(")?;
            for (i, v) in cycle.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let id = Perm::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.inverse(), id);
        assert_eq!(id.then(&id), id);
        assert_eq!(id.to_string(), "()");
    }

    #[test]
    fn from_cycles_matches_paper_example() {
        // γ1 = (4,5,6) from Fig. 1(a): relabels 4 as 5, 5 as 6, 6 as 4.
        let g = Perm::from_cycles(8, &[&[4, 5, 6]]).unwrap();
        assert_eq!(g.apply(4), 5);
        assert_eq!(g.apply(5), 6);
        assert_eq!(g.apply(6), 4);
        assert_eq!(g.apply(0), 0);
        assert_eq!(g.to_string(), "(4,5,6)");
    }

    #[test]
    fn compose_is_left_to_right() {
        let a = Perm::from_cycles(3, &[&[0, 1]]).unwrap();
        let b = Perm::from_cycles(3, &[&[1, 2]]).unwrap();
        // v^(ab): 0 -a-> 1 -b-> 2
        assert_eq!(a.then(&b).apply(0), 2);
        assert_eq!(b.then(&a).apply(0), 1);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let g = Perm::from_cycles(8, &[&[0, 6], &[1, 5], &[2, 3, 4]]).unwrap();
        assert!(g.then(&g.inverse()).is_identity());
        assert!(g.inverse().then(&g).is_identity());
    }

    #[test]
    fn rejects_non_bijections() {
        assert!(Perm::from_image(vec![0, 0, 1]).is_none());
        assert!(Perm::from_image(vec![0, 3, 1]).is_none());
        assert!(Perm::from_cycles(3, &[&[0, 1], &[1, 2]]).is_none());
        assert!(Perm::from_cycles(3, &[&[0, 5]]).is_none());
    }

    #[test]
    fn cycles_skip_fixed_points() {
        let g = Perm::from_cycles(8, &[&[0, 6], &[2, 3, 4]]).unwrap();
        assert_eq!(g.cycles(), vec![vec![0, 6], vec![2, 3, 4]]);
    }

    #[test]
    fn display_is_sorted_by_min_element() {
        let g = Perm::from_cycles(8, &[&[5, 6], &[1, 2]]).unwrap();
        assert_eq!(g.to_string(), "(1,2)(5,6)");
    }
}
