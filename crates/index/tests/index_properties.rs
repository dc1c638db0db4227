//! Integration tests for the fingerprint index that need more than the
//! unit harness: a property test over the `DVIX1` round trip, and the
//! Cai–Fürer–Immerman collision-path test that proves a lookup can
//! never confuse non-isomorphic graphs — even when forced onto the
//! same fingerprint bucket.

use dvicl_core::{Budget, Session};
use dvicl_data::bench_graphs::{cfi, cubic_circulant};
use dvicl_graph::{CanonForm, Fingerprint, V};
use dvicl_index::FingerprintIndex;
use dvicl_obs::{self as obs, Counter};
use proptest::prelude::*;

/// A strategy for `CanonForm`-shaped data: sorted color runs and
/// sorted, deduplicated `(u, v)` edges with `u <= v` nondecreasing —
/// the invariants the delta coder in `disk.rs` relies on, which every
/// real certificate satisfies by construction.
fn arb_form() -> impl Strategy<Value = CanonForm> {
    (
        proptest::collection::vec((0 as V..16, 1 as V..16), 0..6),
        proptest::collection::vec((0 as V..40, 0 as V..40), 0..24),
    )
        .prop_map(|(mut colors, edges)| {
            colors.sort_unstable();
            colors.dedup_by_key(|run| run.0);
            let mut edges: Vec<(V, V)> = edges
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            CanonForm { colors, edges }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any index — arbitrary forms, arbitrary member counts — survives
    /// `save_to` → `load_from` with every class intact, and the reload
    /// re-serializes to the identical byte string (the format is a
    /// canonical encoding, not merely a reversible one).
    #[test]
    fn dvix1_round_trip_preserves_any_index(
        specs in proptest::collection::vec((arb_form(), 1u64..5), 0..8),
    ) {
        let mut index = FingerprintIndex::new();
        for (form, members) in &specs {
            let fp = Fingerprint::of_form(form);
            for _ in 0..*members {
                index.insert(fp, form.clone(), true).expect("insert");
            }
        }

        let mut bytes = Vec::new();
        index.save_to(&mut bytes).expect("serialize");
        let loaded =
            FingerprintIndex::load_from(&mut bytes.as_slice(), true).expect("reload");
        prop_assert_eq!(loaded.classes(), index.classes());
        prop_assert_eq!(loaded.members_total(), index.members_total());

        let mut reserialized = Vec::new();
        loaded.save_to(&mut reserialized).expect("re-serialize");
        prop_assert_eq!(reserialized, bytes);
    }
}

/// The hard case for any fingerprint scheme: a CFI pair — two graphs
/// 1-WL cannot distinguish, non-isomorphic by a single twisted edge.
/// The canonical search must actually branch to tell them apart, their
/// certificates (and so fingerprints) must differ, and a lookup forced
/// into the wrong fingerprint bucket must be refuted by the stored-form
/// exact check rather than answering "isomorphic" by hash alone.
#[test]
fn cfi_pair_is_split_and_forced_collisions_are_refuted() {
    let base = cubic_circulant(8);
    let plain = cfi(&base, false);
    let twisted = cfi(&base, true);
    assert_eq!(plain.n(), twisted.n());
    assert_eq!(plain.m(), twisted.m());

    // Canonicalize both through one session; the pair's gadget symmetry
    // forces real DFS search, not refinement alone.
    let before = obs::snapshot();
    let mut session = Session::default();
    let unlimited = Budget::unlimited();
    let (fp_plain, form_plain) = session.try_fingerprinted_form(&plain, &unlimited).unwrap();
    let (fp_twisted, form_twisted) = session
        .try_fingerprinted_form(&twisted, &unlimited)
        .unwrap();
    let canon_delta = obs::snapshot().diff(&before);
    assert!(
        canon_delta.get(Counter::SearchNodes) > 0,
        "a CFI pair must drive the canonical DFS, not just refinement"
    );
    assert_ne!(
        form_plain, form_twisted,
        "the twist changes the certificate"
    );
    assert_ne!(
        fp_plain, fp_twisted,
        "distinct certificates, distinct fingerprints"
    );

    // Index the untwisted graph, then force the twisted query into its
    // bucket by probing with the *wrong* fingerprint. The stored-form
    // comparison must refuse the match: one probe, one collision, no hit.
    let mut index = FingerprintIndex::new();
    index
        .insert(fp_plain, form_plain.clone(), true)
        .expect("insert untwisted CFI graph");
    let before = obs::snapshot();
    assert_eq!(index.lookup(fp_plain, &form_twisted), None);
    let delta = obs::snapshot().diff(&before);
    assert_eq!(delta.get(Counter::IndexProbes), 1);
    assert_eq!(delta.get(Counter::IndexHits), 0);
    assert_eq!(delta.get(Counter::IndexCollisions), 1);

    // Honest probes still resolve: each graph finds exactly its own
    // class under its own fingerprint.
    assert_eq!(index.lookup(fp_plain, &form_plain), Some(0));
    assert_eq!(index.lookup(fp_twisted, &form_twisted), None);
    let out = index
        .insert(fp_twisted, form_twisted.clone(), true)
        .expect("insert twisted CFI graph");
    assert!(out.fresh, "the twisted twin must found its own class");
    assert_eq!(index.lookup(fp_twisted, &form_twisted), Some(1));
    assert_eq!(index.group_size(fp_plain, &form_plain), Some(1));
}
