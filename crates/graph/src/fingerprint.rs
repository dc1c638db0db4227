//! 128-bit fingerprints of canonical forms.
//!
//! A [`Fingerprint`] condenses a [`CanonForm`] into two 64-bit lanes so
//! that iso-testing a query against a corpus of `N` graphs is one
//! canonicalization plus one hash probe instead of `N` pairwise runs
//! (the index workload of `dvicl-index`). Equal forms always produce
//! equal fingerprints; unequal forms collide with probability about
//! 2⁻¹²⁸, and the index confirms every probe against the *stored* form,
//! so a collision can cost a comparison but never a wrong answer.
//!
//! The hash is hand-rolled (no external deps, per the workspace's
//! vendored-shims precedent): two independent lanes of a
//! multiply-xorshift sponge over the form's color runs and edge list,
//! finalized with a SplitMix64-style avalanche. The function is **part
//! of the on-disk index format** (`DVIX1`): changing any constant below
//! invalidates persisted indexes, so treat them as frozen.

use crate::form::{CanonForm, FormRef};
use crate::V;
use std::fmt;

/// Lane seeds and multipliers: large odd constants (golden-ratio and
/// SplitMix64 increments) chosen so the two lanes never agree on a
/// rotation of each other.
const SEED_HI: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_LO: u64 = 0x6a09_e667_f3bc_c909;
const MUL_HI: u64 = 0xff51_afd7_ed55_8ccd;
const MUL_LO: u64 = 0xc4ce_b9fe_1a85_ec53;

/// A 128-bit fingerprint of a canonical form, split into two 64-bit
/// lanes. The derived `Ord`/`Hash` make it directly usable as an index
/// key; [`fmt::Display`] renders the 32-hex-digit form that the CLI
/// `batch`/`serve` responses print.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

/// One absorb-and-mix step of a lane.
#[inline]
fn absorb(state: u64, word: u64, mul: u64) -> u64 {
    let mut x = state ^ word.wrapping_mul(mul);
    x = x.rotate_left(31).wrapping_mul(mul | 1);
    x ^ (x >> 27)
}

/// SplitMix64 finalizer: full avalanche over one lane.
#[inline]
fn finish(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Fingerprint {
    /// Fingerprints a borrowed canonical form. The digest covers, in
    /// order: the number of color runs, each `(color, multiplicity)`
    /// run, the number of edges, and each `(u, v)` edge — exactly the
    /// data that defines form equality, each field absorbed as its own
    /// word so `[(1,2)]` and `[(2,1)]` cannot alias.
    pub fn of_form_ref(form: FormRef<'_>) -> Fingerprint {
        let mut hi = SEED_HI;
        let mut lo = SEED_LO;
        let mut feed = |word: u64| {
            hi = absorb(hi, word, MUL_HI);
            lo = absorb(lo, word, MUL_LO);
        };
        feed(form.colors.len() as u64);
        for &(c, mult) in form.colors {
            feed(pack(c, mult));
        }
        feed(form.edges.len() as u64);
        for &(u, v) in form.edges {
            feed(pack(u, v));
        }
        Fingerprint {
            hi: finish(hi),
            lo: finish(lo),
        }
    }

    /// Fingerprints an owned canonical form (see [`Self::of_form_ref`]).
    pub fn of_form(form: &CanonForm) -> Fingerprint {
        Fingerprint::of_form_ref(form.view())
    }
}

/// Packs a `(V, V)` pair into one digest word.
#[inline]
fn pack(a: V, b: V) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    fn fp_of(g: &crate::Graph) -> Fingerprint {
        let labels: Vec<V> = g.vertices().collect();
        Fingerprint::of_form(&CanonForm::new(g, &vec![0; g.n()], &labels))
    }

    #[test]
    fn equal_forms_equal_fingerprints() {
        let a = fp_of(&named::petersen());
        let b = fp_of(&named::petersen());
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_forms_differ() {
        let mut seen = std::collections::HashSet::new();
        for g in [
            named::petersen(),
            named::cycle(10),
            named::path(10),
            named::star(9),
            named::complete(5),
            named::hypercube(3),
            named::frucht(),
        ] {
            assert!(seen.insert(fp_of(&g)), "collision on {} vertices", g.n());
        }
    }

    #[test]
    fn colors_and_edges_both_participate() {
        let g = crate::Graph::from_edges(2, &[]);
        let f1 = CanonForm::new(&g, &[0, 0], &[0, 1]);
        let f2 = CanonForm::new(&g, &[0, 1], &[0, 1]);
        assert_ne!(Fingerprint::of_form(&f1), Fingerprint::of_form(&f2));
        // Field boundaries: a (1,2) run must not alias a (2,1) run.
        let r1 = CanonForm {
            colors: vec![(1, 2)],
            edges: vec![],
        };
        let r2 = CanonForm {
            colors: vec![(2, 1)],
            edges: vec![],
        };
        assert_ne!(Fingerprint::of_form(&r1), Fingerprint::of_form(&r2));
    }

    #[test]
    fn digest_is_frozen() {
        // The fingerprint function is part of the DVIX1 on-disk format:
        // this vector pins the exact output so an accidental constant
        // change cannot silently orphan persisted indexes.
        let f = CanonForm {
            colors: vec![(0, 3)],
            edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(
            Fingerprint::of_form(&f).to_string(),
            "da64e6eb8eb87d52730cd1cb16ed3f17",
        );
        // Determinism across calls and across an owned/borrowed split.
        assert_eq!(Fingerprint::of_form(&f), Fingerprint::of_form_ref(f.view()));
    }
}
