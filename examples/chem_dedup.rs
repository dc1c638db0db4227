//! Database indexing / deduplication (application (a) of the paper's
//! introduction): assign every graph in a collection a certificate so
//! that two graphs are isomorphic iff their certificates are equal, then
//! deduplicate a collection of randomly relabeled "molecules" through
//! the canonical-fingerprint index.
//!
//! One [`dvicl::core::Session`] canonicalizes the whole collection
//! (arena pools and the `CombineCL` memo are reused across graphs — the
//! repeated fragments of a molecule library are exactly what the memo
//! feeds on), and a [`dvicl::index::FingerprintIndex`] groups the
//! certificates: one insert per graph, isomorphic graphs land in one
//! class, and the class member counts are the duplicate counts.
//!
//! Run with `cargo run --release --example chem_dedup`.

use dvicl::core::{Budget, DviclOptions, Session};
use dvicl::graph::{named, Graph, Perm, V};
use dvicl::index::FingerprintIndex;

/// A tiny "molecular skeleton" library: distinct small graphs.
fn library() -> Vec<(&'static str, Graph)> {
    vec![
        ("benzene-ring", named::cycle(6)),
        ("cyclopentane-ring", named::cycle(5)),
        ("star-center", named::star(5)),
        (
            "prism",
            Graph::from_edges(
                6,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (3, 4),
                    (4, 5),
                    (5, 3),
                    (0, 3),
                    (1, 4),
                    (2, 5),
                ],
            ),
        ),
        ("k33", named::complete_bipartite(3, 3)),
        ("cube", named::hypercube(3)),
        ("butane-chain", named::path(4)),
    ]
}

/// Deterministic shuffle of vertex labels.
#[expect(
    clippy::expect_used,
    reason = "example code: a failure here is a bug in the example itself"
)]
fn shuffle(g: &Graph, salt: u64) -> Graph {
    let n = g.n();
    let mut image: Vec<V> = g.vertices().collect();
    let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        image.swap(i, j);
    }
    g.permuted(&Perm::from_image(image).expect("shuffle is a bijection"))
}

#[expect(
    clippy::expect_used,
    reason = "example code: a failure here is a bug in the example itself"
)]
fn main() {
    // Build a collection with every library graph appearing under several
    // random relabelings.
    let mut collection: Vec<(String, Graph)> = Vec::new();
    for (name, g) in library() {
        for salt in 0..4u64 {
            collection.push((format!("{name}#{salt}"), shuffle(&g, salt + 1)));
        }
    }
    println!("collection: {} graphs", collection.len());

    // One session, one index: each graph costs one canonicalization and
    // one fingerprint probe, however large the collection grows.
    let mut session = Session::new(DviclOptions::default());
    let unlimited = Budget::unlimited();
    let mut index = FingerprintIndex::new();
    let mut names_by_class: Vec<Vec<String>> = Vec::new();
    for (name, g) in &collection {
        let (fp, form) = session
            .try_fingerprinted_form(g, &unlimited)
            .expect("canonicalize");
        let out = index.insert(fp, form, false).expect("insert");
        if out.fresh {
            names_by_class.push(Vec::new());
        }
        names_by_class[out.class].push(name.clone());
    }
    println!(
        "distinct certificates: {} (from {} canonicalizations)",
        index.len(),
        session.builds()
    );
    let mut groups = names_by_class.clone();
    groups.sort();
    for group in groups {
        println!("  {:?}", group);
    }

    // Every class's members really are isomorphic: a fresh lookup of any
    // member by fingerprint + stored-form confirmation finds its class.
    let (fp, form) = session
        .try_fingerprinted_form(&collection[0].1, &unlimited)
        .expect("canonicalize");
    assert_eq!(index.lookup(fp, &form), Some(0));
    assert_eq!(
        library().len(),
        index.len(),
        "deduplication must recover exactly the library skeletons"
    );
    assert_eq!(index.members_total(), collection.len() as u64);
    println!(
        "deduplication recovered exactly the {} library skeletons",
        library().len()
    );
}
