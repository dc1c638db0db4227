//! Property-based tests for the group machinery: BigUint arithmetic laws
//! against u128 reference, Schreier–Sims against brute-force enumeration,
//! and orbit closures.

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_govern::Budget;
use dvicl_graph::{Coloring, Graph, Perm, V};
use dvicl_group::{brute, BigUint, Orbits, StabChain};
use proptest::prelude::*;

proptest! {
    #[test]
    fn biguint_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (ba, bb) = (BigUint::from_u64(a), BigUint::from_u64(b));
        prop_assert_eq!((&ba + &bb).to_decimal(), (a as u128 + b as u128).to_string());
        prop_assert_eq!((&ba * &bb).to_decimal(), (a as u128 * b as u128).to_string());
        prop_assert_eq!(ba.cmp(&bb), a.cmp(&b));
    }

    #[test]
    fn biguint_mul_is_commutative_and_associative(a in any::<u64>(), b in any::<u64>(), c in 0u64..1_000_000) {
        let (ba, bb, bc) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        prop_assert_eq!(&ba * &bb, &bb * &ba);
        prop_assert_eq!(&(&ba * &bb) * &bc, &ba * &(&bb * &bc));
        // Distributivity over addition.
        prop_assert_eq!(&(&ba + &bb) * &bc, &(&ba * &bc) + &(&bb * &bc));
    }

    #[test]
    fn biguint_decimal_digits(a in any::<u64>(), k in 1u64..8) {
        let mut x = BigUint::from_u64(a);
        for _ in 0..k {
            x.mul_u64_assign(1_000_000_007);
        }
        // to_scientific agrees with to_decimal's leading digits.
        let dec = x.to_decimal();
        let sci = x.to_scientific();
        if dec.len() > 7 {
            prop_assert!(sci.starts_with(&dec[0..1]));
            let suffix = format!("E{}", dec.len() - 1);
            let ok = sci.ends_with(&suffix);
            prop_assert!(ok, "sci {} lacks suffix {}", sci, suffix);
        } else {
            prop_assert_eq!(sci, dec);
        }
    }

    /// Schreier–Sims order and membership against exhaustive enumeration
    /// of the automorphism group of a random small graph.
    #[test]
    fn schreier_sims_matches_enumeration(n in 2usize..7, edges in proptest::collection::vec((0u32..7, 0u32..7), 0..12)) {
        let edges: Vec<(V, V)> = edges.into_iter().map(|(a, b)| (a % n as u32, b % n as u32)).collect();
        let g = Graph::from_edges(n, &edges);
        let autos = brute::automorphisms(&g, &Coloring::unit(n));
        let chain = StabChain::try_new(n, &autos, &Budget::unlimited()).unwrap();
        prop_assert_eq!(chain.order().to_u64(), Some(autos.len() as u64));
        // Adding a generator keeps the order of the full group iff it is
        // a member: an automorphism is, a non-automorphism isn't.
        for cand_seed in 0..3u64 {
            let mut image: Vec<V> = (0..n as V).collect();
            let mut state = cand_seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                image.swap(i, (state >> 33) as usize % (i + 1));
            }
            let cand = Perm::from_image(image).unwrap();
            let is_auto = g.permuted(&cand) == g;
            let mut with_cand = autos.clone();
            with_cand.push(cand);
            prop_assert_eq!(StabChain::try_new(n, &with_cand, &Budget::unlimited()).unwrap().order() == chain.order(), is_auto);
        }
    }

    /// Orbit closure equals orbits of the enumerated group.
    #[test]
    fn orbit_closure_is_exact(n in 2usize..7, edges in proptest::collection::vec((0u32..7, 0u32..7), 0..12)) {
        let edges: Vec<(V, V)> = edges.into_iter().map(|(a, b)| (a % n as u32, b % n as u32)).collect();
        let g = Graph::from_edges(n, &edges);
        let autos = brute::automorphisms(&g, &Coloring::unit(n));
        // Closure from a (possibly partial) generating set: use every
        // third element — still generates a subgroup; orbits of the
        // closure of ALL elements equal the by-definition orbits.
        let mut from_all = Orbits::identity(n);
        for a in &autos {
            from_all.absorb(a);
        }
        let mut truth = Orbits::identity(n);
        for u in 0..n as V {
            for a in &autos {
                truth.union(u, a.apply(u));
            }
        }
        prop_assert_eq!(from_all.cells(), truth.cells());
    }
}

#[test]
fn factorial_cross_check() {
    // n! via BigUint equals |S_n| via Schreier–Sims on K_n's group.
    for n in 2..7usize {
        let g = dvicl_graph::named::complete(n);
        let autos = brute::automorphisms(&g, &Coloring::unit(n));
        let chain = StabChain::try_new(n, &autos, &Budget::unlimited()).unwrap();
        assert_eq!(chain.order(), BigUint::factorial(n as u64));
    }
}
