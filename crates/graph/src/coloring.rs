//! Ordered partitions of the vertex set (the paper's colorings `π`).

use crate::{vertex_range, Graph, Perm, MAX_VERTICES, V};
use std::fmt;

/// A coloring `π = [V1 | V2 | ... | Vk]`: a disjoint ordered partition of
/// `0..n`.
///
/// Following Section 2 of the paper, the *color* of a vertex in cell `Vi` is
/// `Σ_{j<i} |Vj|`, i.e. the start offset of its cell — so a discrete
/// coloring is exactly a permutation. Within each cell, vertices are kept in
/// ascending order (the internal order never affects any algorithm; it only
/// makes output deterministic).
#[derive(Clone, PartialEq, Eq)]
pub struct Coloring {
    color: Vec<V>,
    cells: Vec<Vec<V>>,
}

impl Coloring {
    /// The unit coloring `[0..n]` (a single cell).
    pub fn unit(n: usize) -> Self {
        if n == 0 {
            return Coloring {
                color: Vec::new(),
                cells: Vec::new(),
            };
        }
        Coloring {
            color: vec![0; n],
            cells: vec![vertex_range(n).collect()],
        }
    }

    /// Builds a coloring from ordered cells. Returns `None` unless the cells
    /// form a disjoint partition of `0..n` for `n` = total size.
    pub fn from_cells(cells: Vec<Vec<V>>) -> Option<Self> {
        let n: usize = cells.iter().map(|c| c.len()).sum();
        if n > MAX_VERTICES {
            return None;
        }
        let mut color = vec![V::MAX; n];
        // The position of the next vertex in cell order; a cell's color
        // is the position of its first vertex.
        let mut next: V = 0;
        let mut cells = cells;
        for cell in &mut cells {
            if cell.is_empty() {
                return None;
            }
            let offset = next;
            for &v in cell.iter() {
                let v = v as usize;
                if v >= n || color[v] != V::MAX {
                    return None;
                }
                color[v] = offset;
                next += 1;
            }
            cell.sort_unstable();
        }
        Some(Coloring { color, cells })
    }

    /// Builds a coloring from arbitrary per-vertex labels: cells are grouped
    /// by label and ordered by ascending label value.
    #[expect(
        clippy::expect_used,
        reason = "`order` is a permutation of 0..n and the grouping only splits it, so the cells partition 0..n"
    )]
    pub fn from_labels(labels: &[V]) -> Self {
        let mut order: Vec<V> = vertex_range(labels.len()).collect();
        order.sort_unstable_by_key(|&v| (labels[v as usize], v));
        let mut cells: Vec<Vec<V>> = Vec::new();
        for &v in &order {
            match cells.last_mut() {
                Some(cell) if labels[cell[0] as usize] == labels[v as usize] => cell.push(v),
                _ => cells.push(vec![v]),
            }
        }
        Coloring::from_cells(cells).expect("grouped labels always form a partition")
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.color.len()
    }

    /// The ordered cells.
    pub fn cells(&self) -> &[Vec<V>] {
        &self.cells
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
        if self.n() != other.n() {
            return false;
        }
        // Every cell of self must lie inside one cell of other...
        for cell in &self.cells {
            let c = other.color_of(cell[0]);
            if cell.iter().any(|&v| other.color_of(v) != c) {
                return false;
            }
        }
        // ...and splitting must preserve the relative order of other's cells.
        let mut pairs: Vec<(V, V)> = self
            .cells
            .iter()
            .map(|cell| (self.color_of(cell[0]), other.color_of(cell[0])))
            .collect();
        pairs.sort_unstable();
        pairs.windows(2).all(|w| w[0].1 <= w[1].1)
    }

    /// True iff `π` is equitable with respect to `g`: within every cell, all
    /// vertices have the same number of neighbors in every cell.
    pub fn is_equitable(&self, g: &Graph) -> bool {
        assert_eq!(self.n(), g.n());
        let n = self.n();
        let mut counts = vec![0usize; n];
        let mut reference = vec![0usize; n];
        for cell in &self.cells {
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
        reason = "applying a bijection to every member of a partition yields a partition"
    )]
    pub fn apply_perm(&self, gamma: &Perm) -> Coloring {
        assert_eq!(gamma.len(), self.n());
        let inv = gamma.inverse();
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let mut c: Vec<V> = cell.iter().map(|&v| inv.apply(v)).collect();
                c.sort_unstable();
                c
            })
            .collect();
        Coloring::from_cells(cells).expect("permuted partition stays a partition")
    }

    /// Projects the coloring onto the vertex subset `verts` (the paper's
    /// `π_g`), relabeling to local indices `0..verts.len()` in the order
    /// given. Cells keep their relative order; empty intersections vanish.
    #[expect(
        clippy::expect_used,
        reason = "the cells contain each local index 0..verts.len() exactly once, a partition by construction"
    )]
    pub fn project(&self, verts: &[V]) -> Coloring {
        let mut local: Vec<(V, V)> = (0..)
            .zip(verts)
            .map(|(i, &v)| (self.color_of(v), i))
            .collect();
        local.sort_unstable();
        let mut cells: Vec<Vec<V>> = Vec::new();
        let mut last = V::MAX;
        for (c, i) in local {
            match cells.last_mut() {
                Some(cell) if c == last => cell.push(i),
                _ => {
                    cells.push(vec![i]);
                    last = c;
                }
            }
        }
        Coloring::from_cells(cells).expect("projection forms a partition")
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
        for (i, cell) in self.cells.iter().enumerate() {
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
        assert_eq!(u.cells().len(), 1);
        assert_eq!(u.color_of(3), 0);
        let d = Coloring::from_labels(&[0, 1, 2, 3]);
        assert_eq!(d.cells().len(), 4);
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
