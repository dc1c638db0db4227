//! `dvicl-index` — the canonical-fingerprint index.
//!
//! The DviCL certificate turns isomorphism testing into equality
//! testing: two graphs are isomorphic iff their canonical forms are
//! equal. This crate exploits that at corpus scale. A
//! [`FingerprintIndex`] stores one [`IsoClass`] per distinct canonical
//! form, keyed by the form's 128-bit [`Fingerprint`]; testing a query
//! against N indexed graphs is then **one canonicalization plus one
//! hash probe** instead of N pairwise runs (ROADMAP item 2).
//!
//! Correctness does not rest on the hash: every probe that lands in a
//! fingerprint bucket is confirmed against the **stored canonical
//! form** byte for byte. A 2⁻¹²⁸ fingerprint collision therefore costs
//! one extra comparison (counted by `index_collisions`) and can never
//! produce a wrong answer.
//!
//! The index persists in the `DVIX1` binary format ([`disk`]): magic,
//! class count, then each class as varint-coded fingerprint, member
//! count, color runs and delta-coded edges. Loads are hardened the same
//! way the graph parsers are — typed [`DviclError::Parse`] errors,
//! declared counts validated against the remaining input before any
//! allocation — and both load and insert carry `govern::fault`
//! checkpoints (`index.load`, `index.insert`) so the fault sweep can
//! drive their error paths.
//!
//! Observability: `index_probes` counts every consulted probe,
//! `index_hits` the probes confirmed by an exact form match, and
//! `index_collisions` the stored-form comparisons that failed under an
//! equal fingerprint.

#![warn(missing_docs)]

pub mod disk;

use dvicl_govern::fault::{self, Site};
use dvicl_govern::DviclError;
use dvicl_graph::{CanonForm, Fingerprint};
use dvicl_obs::{self as obs, Counter};
use rustc_hash::FxHashMap;

/// One isomorphism class of the indexed corpus: the canonical form all
/// members share, its fingerprint, and how many graphs were inserted
/// into the class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IsoClass {
    /// The class's 128-bit probe key, as supplied at insert time.
    pub fingerprint: Fingerprint,
    /// The canonical form every member of the class shares. Stored in
    /// full so probes are confirmed exactly, never by hash alone.
    pub form: CanonForm,
    /// How many graphs have been inserted into this class.
    pub members: u64,
}

/// The result of [`FingerprintIndex::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The class the graph landed in (stable for the index's lifetime;
    /// save/load preserves class order).
    pub class: usize,
    /// The class's member count *after* this insert.
    pub members: u64,
    /// True when this insert created the class (no prior member of the
    /// corpus was isomorphic to the inserted graph).
    pub fresh: bool,
}

/// An in-memory fingerprint index over canonical forms. See the crate
/// docs for the probe/confirm contract and [`disk`] for persistence.
///
/// ```
/// use dvicl_graph::{named, Fingerprint};
/// use dvicl_index::FingerprintIndex;
/// # use dvicl_core::canonical_form;
/// let mut index = FingerprintIndex::new();
/// let form = canonical_form(&named::petersen());
/// let fp = Fingerprint::of_form(&form);
/// let out = index.insert(fp, form.clone(), false).unwrap();
/// assert!(out.fresh);
/// // A second isomorphic insert joins the class instead of growing the index.
/// assert_eq!(index.insert(fp, form.clone(), false).unwrap().members, 2);
/// assert_eq!(index.lookup(fp, &form), Some(0));
/// ```
#[derive(Debug, Default)]
pub struct FingerprintIndex {
    /// Classes in insertion order; `buckets` indexes into this.
    classes: Vec<IsoClass>,
    /// Fingerprint → classes carrying it. More than one entry means a
    /// fingerprint collision between non-isomorphic graphs (astronomically
    /// rare for the real hash, routine in collision-path tests).
    buckets: FxHashMap<Fingerprint, Vec<u32>>,
}

impl FingerprintIndex {
    /// An empty index.
    pub fn new() -> FingerprintIndex {
        FingerprintIndex::default()
    }

    /// Number of distinct isomorphism classes held.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no class is held.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total member count across all classes (= successful inserts).
    pub fn members_total(&self) -> u64 {
        self.classes.iter().map(|c| c.members).sum()
    }

    /// The classes in insertion order.
    pub fn classes(&self) -> &[IsoClass] {
        &self.classes
    }

    /// Inserts a graph by its `(fingerprint, canonical form)` pair. An
    /// exact-form match with an existing class increments that class's
    /// member count; otherwise a new class is appended — even when the
    /// fingerprint is already present (a collision, counted).
    ///
    /// The fingerprint is caller-supplied rather than recomputed so
    /// that the canonicalizing session computes it once per graph;
    /// `paranoid` re-derives it from `form` and rejects a mismatch with
    /// a typed [`DviclError::WitnessFailure`] — the witness check that
    /// catches corruption (or an injected fault) between
    /// canonicalization and insert.
    pub fn insert(
        &mut self,
        fingerprint: Fingerprint,
        form: CanonForm,
        paranoid: bool,
    ) -> Result<InsertOutcome, DviclError> {
        fault::checkpoint(Site::IndexInsert)?;
        if paranoid {
            obs::bump(Counter::VerifyChecks);
            let recomputed = Fingerprint::of_form(&form);
            if recomputed != fingerprint {
                obs::bump(Counter::VerifyFailures);
                return Err(DviclError::witness(
                    "index_insert",
                    format!(
                        "fingerprint {fingerprint} does not match the form's {recomputed}"
                    ),
                ));
            }
        }
        if let Some(class) = self.probe(fingerprint, &form) {
            self.classes[class].members += 1;
            return Ok(InsertOutcome {
                class,
                members: self.classes[class].members,
                fresh: false,
            });
        }
        let class = self.classes.len();
        self.classes.push(IsoClass {
            fingerprint,
            form,
            members: 1,
        });
        self.buckets
            .entry(fingerprint)
            .or_default()
            // dvicl-lint: allow(narrowing-cast) -- class count is bounded by inserts, far below u32::MAX before the Vec itself exhausts memory
            .push(class as u32);
        Ok(InsertOutcome {
            class,
            members: 1,
            fresh: true,
        })
    }

    /// Finds the class whose stored form equals `form`, probing by
    /// fingerprint first. `None` means no indexed graph is isomorphic
    /// to the query. Counts `index_probes`, and `index_hits` /
    /// `index_collisions` per confirmed / refuted stored-form
    /// comparison.
    pub fn lookup(&self, fingerprint: Fingerprint, form: &CanonForm) -> Option<usize> {
        self.probe(fingerprint, form)
    }

    /// The member count of the query's isomorphism class, or `None`
    /// when no indexed graph is isomorphic to it. Same probe/confirm
    /// path (and counters) as [`FingerprintIndex::lookup`].
    pub fn group_size(&self, fingerprint: Fingerprint, form: &CanonForm) -> Option<u64> {
        self.probe(fingerprint, form)
            .map(|class| self.classes[class].members)
    }

    /// The shared probe: one `index_probes` bump, then the exact
    /// stored-form confirmation over every class in the fingerprint's
    /// bucket.
    fn probe(&self, fingerprint: Fingerprint, form: &CanonForm) -> Option<usize> {
        obs::bump(Counter::IndexProbes);
        let bucket = self.buckets.get(&fingerprint)?;
        for &class in bucket {
            let class = class as usize;
            if self.classes[class].form == *form {
                obs::bump(Counter::IndexHits);
                return Some(class);
            }
            // Equal fingerprint, unequal form: the collision path. The
            // exact check just prevented a wrong "isomorphic" answer.
            obs::bump(Counter::IndexCollisions);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_core::canonical_form;
    use dvicl_graph::named;

    fn keyed(g: &dvicl_graph::Graph) -> (Fingerprint, CanonForm) {
        let form = canonical_form(g);
        (Fingerprint::of_form(&form), form)
    }

    #[test]
    fn insert_groups_isomorphic_graphs() {
        let mut idx = FingerprintIndex::new();
        let (fp, form) = keyed(&named::petersen());
        // Petersen is the Kneser graph K(5,2): an isomorphic but
        // differently constructed copy must land in the same class.
        let (fp2, form2) = keyed(&named::kneser(5, 2));
        assert_eq!((fp, &form), (fp2, &form2));
        assert!(idx.insert(fp, form, false).expect("insert").fresh);
        let out = idx.insert(fp2, form2, false).expect("insert");
        assert!(!out.fresh);
        assert_eq!(out.members, 2);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.members_total(), 2);
    }

    #[test]
    fn lookup_and_group_size() {
        let mut idx = FingerprintIndex::new();
        let (fp_c, form_c) = keyed(&named::cycle(8));
        let (fp_p, form_p) = keyed(&named::path(8));
        idx.insert(fp_c, form_c.clone(), false).expect("insert");
        idx.insert(fp_c, form_c.clone(), false).expect("insert");
        assert_eq!(idx.lookup(fp_c, &form_c), Some(0));
        assert_eq!(idx.group_size(fp_c, &form_c), Some(2));
        assert_eq!(idx.lookup(fp_p, &form_p), None);
        assert_eq!(idx.group_size(fp_p, &form_p), None);
    }

    #[test]
    fn collision_resolved_by_stored_form() {
        // Force two non-isomorphic forms under ONE fingerprint: the
        // exact check must keep them apart and count the collision.
        let mut idx = FingerprintIndex::new();
        let (fp, form_c) = keyed(&named::cycle(6));
        let (_, form_u) = keyed(&named::cycle(3).disjoint_union(&named::cycle(3)));
        assert_ne!(form_c, form_u);
        idx.insert(fp, form_c.clone(), false).expect("insert");
        let before = obs::snapshot();
        let out = idx.insert(fp, form_u.clone(), false).expect("insert");
        assert!(out.fresh, "non-isomorphic graph must get its own class");
        assert_eq!(idx.len(), 2);
        // Both lookups answer correctly despite the shared fingerprint.
        assert_eq!(idx.lookup(fp, &form_c), Some(0));
        assert_eq!(idx.lookup(fp, &form_u), Some(1));
        // The insert and the lookup of `form_u` each compare against
        // `form_c` first; the lookup of `form_c` matches at once.
        let d = obs::snapshot().diff(&before);
        assert_eq!(
            d.get(Counter::IndexCollisions),
            2,
            "collision path must be counted"
        );
    }

    #[test]
    fn paranoid_insert_rejects_mismatched_fingerprint() {
        let mut idx = FingerprintIndex::new();
        let (fp, form) = keyed(&named::frucht());
        let wrong = Fingerprint {
            hi: fp.hi ^ 1,
            lo: fp.lo,
        };
        let err = idx.insert(wrong, form.clone(), true).expect_err("mismatch");
        assert!(matches!(
            err,
            DviclError::WitnessFailure {
                stage: "index_insert",
                ..
            }
        ));
        assert!(idx.is_empty(), "rejected insert must not mutate the index");
        // The honest pair passes the same check.
        assert!(idx.insert(fp, form, true).expect("honest insert").fresh);
    }

    #[test]
    fn probe_counters_follow_the_contract() {
        let mut idx = FingerprintIndex::new();
        let (fp, form) = keyed(&named::petersen());
        idx.insert(fp, form.clone(), false).expect("insert");
        let before = obs::snapshot();
        idx.lookup(fp, &form);
        let (fp_m, form_m) = keyed(&named::complete(4));
        idx.lookup(fp_m, &form_m);
        let d = obs::snapshot().diff(&before);
        assert_eq!(d.get(Counter::IndexProbes), 2);
        assert_eq!(d.get(Counter::IndexHits), 1);
        assert_eq!(d.get(Counter::IndexCollisions), 0);
    }
}
