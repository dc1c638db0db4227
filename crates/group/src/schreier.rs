//! Deterministic Schreier–Sims: base, strong generating set, group order
//! and membership.
//!
//! The implementation keeps the textbook invariant that the strong
//! generating sets are *nested*: a strong generator placed at level `j`
//! (because it fixes the first `j` base points) participates in the basic
//! orbits of every level `i ≤ j`. Closure is reached by a fixpoint loop
//! that sifts all Schreier generators and adds the first non-trivial
//! residue, repeating until every Schreier generator sifts to the identity
//! — simple, obviously correct, and fast enough for the reproduction's uses
//! (AutoTree leaf groups and test oracles). The order of the automorphism
//! group of a *massive* graph is computed structurally from the AutoTree in
//! `dvicl-core` instead.
//!
//! The fixpoint restarts after every new strong generator, so on a large
//! leaf group (the 4 514-vertex `pg2-47` leaf) it runs for seconds. It is
//! metered like the searches that produced the generators: one unit of
//! the caller's [`Budget`] per Schreier generator sifted.

use crate::BigUint;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{vertex_range, Perm, V};
use rustc_hash::FxHashMap;

/// One level of the stabilizer chain.
struct Level {
    /// Base point of this level.
    point: V,
    /// Strong generators *placed* at this level (they fix all earlier base
    /// points). The effective generating set of level `i` is the union of
    /// `gens` over levels `i..`.
    gens: Vec<Perm>,
    /// `transversal[u]` = element `t` with `point^t = u`.
    transversal: FxHashMap<V, Perm>,
    /// Basic orbit in discovery order.
    orbit: Vec<V>,
}

impl Level {
    fn new(n: usize, point: V) -> Self {
        let mut transversal = FxHashMap::default();
        transversal.insert(point, Perm::identity(n));
        Level {
            point,
            gens: Vec::new(),
            transversal,
            orbit: vec![point],
        }
    }
}

/// A base and strong generating set for a permutation group on `0..n`.
pub struct StabChain {
    n: usize,
    levels: Vec<Level>,
}

impl StabChain {
    /// Builds a stabilizer chain for the group generated by `gens`,
    /// spending one unit of `budget` per Schreier generator it sifts.
    /// Aborts with [`DviclError::BudgetExceeded`] or
    /// [`DviclError::Cancelled`].
    pub fn try_new(n: usize, gens: &[Perm], budget: &Budget) -> Result<Self, DviclError> {
        let mut chain = StabChain {
            n,
            levels: Vec::new(),
        };
        for g in gens {
            chain.add_strong(g.clone());
        }
        // Fixpoint: keep adding Schreier-generator residues until closed.
        while chain.close_once(budget)? {}
        Ok(chain)
    }

    /// Exact group order: the product of the basic orbit lengths.
    pub fn order(&self) -> BigUint {
        let mut acc = BigUint::one();
        for level in &self.levels {
            acc.mul_u64_assign(level.orbit.len() as u64);
        }
        acc
    }

    /// Sifts `g` through the chain; `None` means it reduced to the
    /// identity, otherwise the level index where it got stuck plus the
    /// residue (which fixes all earlier base points).
    fn sift(&self, mut g: Perm) -> Option<(usize, Perm)> {
        for (i, level) in self.levels.iter().enumerate() {
            if g.is_identity() {
                return None;
            }
            let u = g.apply(level.point);
            match level.transversal.get(&u) {
                Some(t) => g = g.then(&t.inverse()),
                None => return Some((i, g)),
            }
        }
        if g.is_identity() {
            None
        } else {
            Some((self.levels.len(), g))
        }
    }

    /// Adds a strong generator (the residue of a sift), extending the base
    /// if needed, and rebuilds the affected basic orbits.
    fn add_strong(&mut self, g: Perm) {
        let (j, r) = match self.sift(g) {
            None => return,
            Some(x) => x,
        };
        if j == self.levels.len() {
            #[expect(
                clippy::expect_used,
                reason = "sift returns Some only for a non-identity residue, which moves at least one point"
            )]
            let point = vertex_range(self.n)
                .find(|&v| r.apply(v) != v)
                .expect("non-identity permutation moves a point");
            self.levels.push(Level::new(self.n, point));
        }
        self.levels[j].gens.push(r);
        for i in (0..=j).rev() {
            self.rebuild_level(i);
        }
    }

    /// Recomputes the basic orbit/transversal of level `i` under the
    /// effective generating set (gens of levels `i..`).
    fn rebuild_level(&mut self, i: usize) {
        let n = self.n;
        let point = self.levels[i].point;
        let gens: Vec<Perm> = self.levels[i..]
            .iter()
            .flat_map(|l| l.gens.iter().cloned())
            .collect();
        let level = &mut self.levels[i];
        level.transversal.clear();
        level.transversal.insert(point, Perm::identity(n));
        level.orbit.clear();
        level.orbit.push(point);
        let mut k = 0;
        while k < level.orbit.len() {
            let u = level.orbit[k];
            k += 1;
            let tu = level.transversal[&u].clone();
            for g in &gens {
                let w = g.apply(u);
                if let std::collections::hash_map::Entry::Vacant(e) = level.transversal.entry(w) {
                    e.insert(tu.then(g));
                    level.orbit.push(w);
                }
            }
        }
    }

    /// Scans all Schreier generators of all levels; on the first one that
    /// does not sift to the identity, adds its residue as a strong
    /// generator and returns `true`. Returns `false` when fully closed.
    fn close_once(&mut self, budget: &Budget) -> Result<bool, DviclError> {
        for i in 0..self.levels.len() {
            let gens: Vec<Perm> = self.levels[i..]
                .iter()
                .flat_map(|l| l.gens.iter().cloned())
                .collect();
            let orbit = self.levels[i].orbit.clone();
            for &u in &orbit {
                let tu = self.levels[i].transversal[&u].clone();
                for s in &gens {
                    let w = s.apply(u);
                    let tw = self.levels[i].transversal[&w].clone();
                    // Schreier generator t_u · s · t_{u^s}⁻¹ fixes point i.
                    let schreier = tu.then(s).then(&tw.inverse());
                    budget.spend(1)?;
                    if self.sift(schreier.clone()).is_some() {
                        self.add_strong(schreier);
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_govern::Resource;

    /// The chain of `gens` under an unlimited budget.
    fn chain(n: usize, gens: &[Perm]) -> StabChain {
        StabChain::try_new(n, gens, &Budget::unlimited()).expect("an unlimited budget never trips")
    }

    /// Membership: `g` sifts to the identity iff it is in the group.
    fn contains(c: &StabChain, g: &Perm) -> bool {
        c.sift(g.clone()).is_none()
    }

    fn sym_gens(n: usize) -> Vec<Perm> {
        // S_n = ⟨(0,1), (0,1,…,n-1)⟩.
        let swap = Perm::from_cycles(n, &[&[0, 1]]).unwrap();
        let cyc: Vec<V> = vertex_range(n).collect();
        let rot = Perm::from_cycles(n, &[&cyc]).unwrap();
        vec![swap, rot]
    }

    #[test]
    fn trivial_group() {
        let c = chain(5, &[]);
        assert_eq!(c.order().to_u64(), Some(1));
        assert!(contains(&c, &Perm::identity(5)));
        assert!(!contains(&c, &Perm::from_cycles(5, &[&[0, 1]]).unwrap()));
    }

    #[test]
    fn symmetric_group_order() {
        for n in 2..=7 {
            let c = chain(n, &sym_gens(n));
            assert_eq!(c.order(), BigUint::factorial(n as u64), "S_{n}");
        }
    }

    #[test]
    fn cyclic_group() {
        let cyc: Vec<V> = (0..6).collect();
        let rot = Perm::from_cycles(6, &[&cyc]).unwrap();
        let c = chain(6, std::slice::from_ref(&rot));
        assert_eq!(c.order().to_u64(), Some(6));
        assert!(contains(&c, &rot.then(&rot)));
        assert!(!contains(&c, &Perm::from_cycles(6, &[&[0, 1]]).unwrap()));
    }

    #[test]
    fn dihedral_group() {
        // D_6 on a hexagon: rotation + reflection.
        let cyc: Vec<V> = (0..6).collect();
        let rot = Perm::from_cycles(6, &[&cyc]).unwrap();
        let refl = Perm::from_cycles(6, &[&[1, 5], &[2, 4]]).unwrap();
        let c = chain(6, &[rot, refl]);
        assert_eq!(c.order().to_u64(), Some(12));
    }

    #[test]
    fn klein_four_group() {
        let a = Perm::from_cycles(4, &[&[0, 1], &[2, 3]]).unwrap();
        let b = Perm::from_cycles(4, &[&[0, 2], &[1, 3]]).unwrap();
        let c = chain(4, &[a.clone(), b.clone()]);
        assert_eq!(c.order().to_u64(), Some(4));
        assert!(contains(&c, &a.then(&b)));
    }

    #[test]
    fn membership_respects_subgroup() {
        // A_4 = ⟨(0,1,2), (1,2,3)⟩: order 12; the transposition (0,1) ∉ A_4.
        let a = Perm::from_cycles(4, &[&[0, 1, 2]]).unwrap();
        let b = Perm::from_cycles(4, &[&[1, 2, 3]]).unwrap();
        let c = chain(4, &[a, b]);
        assert_eq!(c.order().to_u64(), Some(12));
        assert!(!contains(&c, &Perm::from_cycles(4, &[&[0, 1]]).unwrap()));
        assert!(contains(
            &c,
            &Perm::from_cycles(4, &[&[0, 1], &[2, 3]]).unwrap()
        ));
    }

    #[test]
    fn direct_product_order() {
        // ⟨(0,1)⟩ × ⟨(2,3,4)⟩ has order 6.
        let a = Perm::from_cycles(5, &[&[0, 1]]).unwrap();
        let b = Perm::from_cycles(5, &[&[2, 3, 4]]).unwrap();
        let c = chain(5, &[a, b]);
        assert_eq!(c.order().to_u64(), Some(6));
    }

    #[test]
    fn work_cap_trips_inside_the_fixpoint() {
        // S_7 from two generators: the fixpoint sifts hundreds of
        // Schreier generators, one work unit each.
        let unlimited = Budget::unlimited();
        let c = StabChain::try_new(7, &sym_gens(7), &unlimited).expect("unlimited");
        assert_eq!(c.order(), BigUint::factorial(7));
        let needed = unlimited.work_spent();
        assert!(needed > 100, "S_7 sifted only {needed} Schreier generators");
        let capped = Budget::with_max_work(needed / 2);
        assert!(matches!(
            StabChain::try_new(7, &sym_gens(7), &capped),
            Err(DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            })
        ));
        let exact = Budget::with_max_work(needed);
        assert_eq!(
            StabChain::try_new(7, &sym_gens(7), &exact)
                .expect("the measured work suffices")
                .order(),
            BigUint::factorial(7)
        );
    }
}
