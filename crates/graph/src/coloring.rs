//! Ordered partitions of the vertex set (the paper's colorings `π`).

use crate::{as_vertex, vertex_range, Graph, Perm, MAX_VERTICES, V};
use std::fmt;

/// A coloring `π = [V1 | V2 | ... | Vk]`: a disjoint ordered partition of
/// `0..n`.
///
/// Following Section 2 of the paper, the *color* of a vertex in cell `Vi` is
/// `Σ_{j<i} |Vj|`, i.e. the start offset of its cell — so a discrete
/// coloring is exactly a permutation. The cells are stored flat, the way
/// the refiner's partition stores them (nauty's `lab`): the vertices in
/// position order, so cell `Vi` is the span that starts at its color.
/// Within each cell, vertices are kept in ascending order (the internal
/// order never affects any algorithm; it only makes output deterministic).
#[derive(Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `color[v]`: the start position of `v`'s cell.
    color: Vec<V>,
    /// The vertices in position order, ascending inside each cell.
    order: Vec<V>,
}

impl Coloring {
    /// The unit coloring `[0..n]` (a single cell).
    pub fn unit(n: usize) -> Self {
        Coloring {
            color: vec![0; n],
            order: vertex_range(n).collect(),
        }
    }

    /// Builds a coloring from ordered cells. Returns `None` unless the cells
    /// form a disjoint partition of `0..n` for `n` = total size.
    // dvicl-lint: allow(nested-vec-adjacency) -- callers build the cells; the coloring stores them flat
    pub fn from_cells(cells: Vec<Vec<V>>) -> Option<Self> {
        let n: usize = cells.iter().map(Vec::len).sum();
        if n > MAX_VERTICES {
            return None;
        }
        let mut color = vec![V::MAX; n];
        let mut offset = 0;
        for cell in &cells {
            if cell.is_empty() {
                return None;
            }
            for &v in cell {
                let c = color.get_mut(v as usize)?;
                if *c != V::MAX {
                    return None;
                }
                *c = offset;
            }
            offset += as_vertex(cell.len());
        }
        Coloring::from_colors(color)
    }

    /// Builds the coloring whose per-vertex colors are `color`, laying the
    /// cells out with one counting pass, so each comes out ascending with
    /// no sort. Returns `None` unless every color is the start position of
    /// its cell: the vertices of color `c` must number exactly the gap to
    /// the next color in use, or to `n` after the last.
    pub fn from_colors(color: Vec<V>) -> Option<Self> {
        let n = color.len();
        if n > MAX_VERTICES {
            return None;
        }
        // `next[s]`: the size of the cell at `s`, then its next free slot.
        let mut next: Vec<V> = vec![0; n];
        for &c in &color {
            *next.get_mut(c as usize)? += 1;
        }
        let mut s = 0;
        while s < n {
            let size = next[s] as usize;
            if size == 0 {
                return None;
            }
            next[s] = as_vertex(s);
            s += size;
        }
        let mut order = vec![0; n];
        for (v, &c) in (0..).zip(&color) {
            let slot = &mut next[c as usize];
            order[*slot as usize] = v;
            *slot += 1;
        }
        Some(Coloring { color, order })
    }

    /// Builds a coloring from arbitrary per-vertex labels: cells are grouped
    /// by label and ordered by ascending label value.
    pub fn from_labels(labels: &[V]) -> Self {
        Coloring::grouped_by(labels.len(), |v| labels[v as usize])
    }

    /// The coloring of `0..n` that groups the vertices by `key`, cells in
    /// ascending key order.
    fn grouped_by(n: usize, key: impl Fn(V) -> V) -> Coloring {
        let mut keyed: Vec<(V, V)> = vertex_range(n).map(|v| (key(v), v)).collect();
        keyed.sort_unstable();
        let mut color = vec![0; n];
        let mut start = 0;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            for &(_, v) in run {
                color[v as usize] = start;
            }
            start += as_vertex(run.len());
        }
        Coloring {
            color,
            order: keyed.iter().map(|&(_, v)| v).collect(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.color.len()
    }

    /// The cells in order, each as the span of [`Coloring::vertices`] that
    /// starts at its color.
    pub fn cells(&self) -> impl Iterator<Item = &[V]> + '_ {
        self.order
            .chunk_by(|&a, &b| self.color[a as usize] == self.color[b as usize])
    }

    /// The vertices in position order: the cells one after the other, each
    /// ascending. On a discrete coloring this is the vertex at every
    /// position.
    pub fn vertices(&self) -> &[V] {
        &self.order
    }

    /// The color `π(v)` (start offset of `v`'s cell).
    #[inline]
    pub fn color_of(&self, v: V) -> V {
        self.color[v as usize]
    }

    /// The per-vertex color array.
    pub fn colors(&self) -> &[V] {
        &self.color
    }

    /// True iff `self ⪯ other`: every cell of `self` is a subset of a cell
    /// of `other`, and the cell order is compatible (colors are
    /// non-decreasing refinements).
    pub fn is_finer_or_equal(&self, other: &Coloring) -> bool {
        self.n() == other.n()
            && self.cells().all(|cell| {
                let c = other.color_of(cell[0]);
                cell.iter().all(|&v| other.color_of(v) == c)
            })
            && self
                .order
                .windows(2)
                .all(|w| other.color_of(w[0]) <= other.color_of(w[1]))
    }

    /// True iff `π` is equitable with respect to `g`: within every cell, all
    /// vertices have the same number of neighbors in every cell.
    pub fn is_equitable(&self, g: &Graph) -> bool {
        assert_eq!(self.n(), g.n());
        let n = self.n();
        let mut counts = vec![0usize; n];
        let mut reference = vec![0usize; n];
        for cell in self.cells() {
            if cell.len() == 1 {
                continue;
            }
            for (i, &v) in cell.iter().enumerate() {
                let store: &mut [usize] = if i == 0 { &mut reference } else { &mut counts };
                let mut touched = Vec::new();
                for &w in g.neighbors(v) {
                    let c = self.color[w as usize] as usize;
                    if store[c] == 0 {
                        touched.push(c);
                    }
                    store[c] += 1;
                }
                if i > 0 {
                    let ok = touched.iter().all(|&c| counts[c] == reference[c])
                        && g.degree(v) == g.degree(cell[0]);
                    for &c in &touched {
                        counts[c] = 0;
                    }
                    if !ok {
                        return false;
                    }
                }
            }
            for &w0 in g.neighbors(cell[0]) {
                reference[self.color[w0 as usize] as usize] = 0;
            }
        }
        true
    }

    /// The coloring `π^γ` with `π^γ(v) = π(v^γ)`: each cell `Vi` becomes
    /// `Vi^(γ⁻¹)`, in the same order.
    #[expect(
        clippy::expect_used,
        reason = "relabeling the vertices by a bijection keeps every cell's size and start"
    )]
    pub fn apply_perm(&self, gamma: &Perm) -> Coloring {
        assert_eq!(gamma.len(), self.n());
        let color = gamma.as_slice().iter().map(|&w| self.color_of(w)).collect();
        Coloring::from_colors(color).expect("permuted partition stays a partition")
    }

    /// Projects the coloring onto the vertex subset `verts` (the paper's
    /// `π_g`), relabeling to local indices `0..verts.len()` in the order
    /// given. Cells keep their relative order; empty intersections vanish.
    pub fn project(&self, verts: &[V]) -> Coloring {
        Coloring::grouped_by(verts.len(), |i| self.color_of(verts[i as usize]))
    }
}

impl fmt::Debug for Coloring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Coloring {
    /// Paper notation, e.g. `[0,1,2,3|4,5,6|7]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, cell) in self.cells().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            for (j, v) in cell.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn unit_and_discrete() {
        let u = Coloring::unit(4);
        assert_eq!(u.cells().count(), 1);
        assert_eq!(u.color_of(3), 0);
        let d = Coloring::from_labels(&[0, 1, 2, 3]);
        assert_eq!(d.cells().count(), 4);
        assert_eq!(d.color_of(3), 3);
        assert!(d.is_finer_or_equal(&u));
        assert!(!u.is_finer_or_equal(&d));
    }

    #[test]
    fn colors_are_cell_offsets() {
        // π2 = [0,1,2,3 | 4,5,6 | 7] from the paper.
        let pi = Coloring::from_cells(vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]).unwrap();
        assert_eq!(pi.color_of(2), 0);
        assert_eq!(pi.color_of(5), 4);
        assert_eq!(pi.color_of(7), 7);
        assert_eq!(pi.to_string(), "[0,1,2,3|4,5,6|7]");
    }

    #[test]
    fn rejects_bad_partitions() {
        assert!(Coloring::from_cells(vec![vec![0, 1], vec![1]]).is_none());
        assert!(Coloring::from_cells(vec![vec![0, 2]]).is_none());
        assert!(Coloring::from_cells(vec![vec![0], vec![]]).is_none());
        // A color must be the start of its cell, and the cells must tile 0..n.
        let pi = Coloring::from_colors(vec![0, 2, 0]).unwrap();
        assert_eq!(pi.to_string(), "[0,2|1]");
        assert!(Coloring::from_colors(vec![0, 0, 1]).is_none());
        assert!(Coloring::from_colors(vec![1, 1, 1]).is_none());
        assert!(Coloring::from_colors(vec![0, 3, 3]).is_none());
    }

    #[test]
    fn paper_equitability_examples() {
        let g = named::fig1_example();
        // π1 = [0,1,2,3,4,5,6|7] is equitable (paper, Section 2).
        let pi1 = Coloring::from_cells(vec![vec![0, 1, 2, 3, 4, 5, 6], vec![7]]).unwrap();
        assert!(pi1.is_equitable(&g));
        // π2 = [0,1,2,3|4,5,6|7] is equitable.
        let pi2 = Coloring::from_cells(vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]).unwrap();
        assert!(pi2.is_equitable(&g));
        // π3 = [0,1,2,3|4,5,6,7] is not equitable.
        let pi3 = Coloring::from_cells(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]).unwrap();
        assert!(!pi3.is_equitable(&g));
    }

    #[test]
    fn apply_perm_matches_paper_example() {
        // π3 = [0,1,2|3,4,5,6|7], γ3 = (1,3)(5,7) → π3^γ3 = [0,2,3|1,4,6,7|5].
        let pi3 = Coloring::from_cells(vec![vec![0, 1, 2], vec![3, 4, 5, 6], vec![7]]).unwrap();
        let g3 = Perm::from_cycles(8, &[&[1, 3], &[5, 7]]).unwrap();
        let out = pi3.apply_perm(&g3);
        assert_eq!(out.to_string(), "[0,2,3|1,4,6,7|5]");
    }

    #[test]
    fn projection_keeps_cell_order() {
        let pi = Coloring::from_cells(vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]).unwrap();
        // Project onto {2, 5, 7, 3} in that (local) order.
        let pg = pi.project(&[2, 5, 7, 3]);
        // Locals: 0 (=2, color 0), 3 (=3, color 0), 1 (=5, color 4), 2 (=7).
        assert_eq!(pg.to_string(), "[0,3|1|2]");
    }

    #[test]
    fn from_labels_groups_by_value() {
        let pi = Coloring::from_labels(&[9, 2, 9, 2, 5]);
        assert_eq!(pi.to_string(), "[1,3|4|0,2]");
        assert_eq!(pi.color_of(4), 2);
    }
}
