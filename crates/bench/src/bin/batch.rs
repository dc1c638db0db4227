//! Batch amortization benchmark (DESIGN.md §13.4): answering M
//! isomorphism queries against an N-graph corpus via the
//! canonical-fingerprint index versus M×N pairwise tests.
//!
//! The index path canonicalizes each query exactly once through one
//! reusable [`Session`] and probes by 128-bit fingerprint; the pairwise
//! baseline runs an isomorphism test of `(query, candidate)` over the full
//! corpus, the way a system without certificates must. Both phases are
//! counter-proven, not just timed: the lookup phase asserts exactly
//! M session builds and M index probes, and the binary fails (exit 1)
//! unless the index path is at least 10× faster.
//!
//! Records land in `BENCH_batch.json` (schema `dvicl-bench-v1`): one
//! `index-build` record for corpus ingestion, one `batch-lookup` for the
//! M amortized queries, one `pairwise` for the M×N baseline.

#![expect(
    clippy::disallowed_methods,
    reason = "the binary owns its exit codes: a witness failure or a missed amortization target fails the run"
)]

use dvicl_bench::suite::{self, print_header, print_row, Recorder};
use dvicl_canon::Config;
use dvicl_core::iso::try_find_isomorphism_outcome;
use dvicl_core::{Budget, DviclOptions};
use dvicl_graph::{as_vertex, named, Graph, Perm, V};
use dvicl_index::FingerprintIndex;
use dvicl_obs::Counter;

#[global_allocator]
static ALLOC: dvicl_bench::alloc::Meter = dvicl_bench::alloc::Meter;

/// A deterministic relabeling so queries never arrive in corpus vertex
/// order (splitmix-fed Fisher–Yates).
#[expect(
    clippy::expect_used,
    reason = "Fisher–Yates swaps keep `image` a bijection of 0..n"
)]
fn shuffled(g: &Graph, salt: u64) -> Graph {
    let n = g.n();
    let mut image: Vec<V> = g.vertices().collect();
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        image.swap(i, j);
    }
    g.permuted(&Perm::from_image(image).expect("shuffle is a bijection"))
}

/// A double broom: a spine path with `a` extra leaves on one end and
/// `b` on the other. Distinct `(a, b)` with `a <= b` give pairwise
/// non-isomorphic trees on `n` vertices.
fn double_broom(n: usize, a: usize, b: usize) -> Graph {
    // Spine 0..p (p >= 2), then the `a` leaves of 0, then the `b`
    // leaves of p - 1.
    let (p, b_start, end) = (as_vertex(n - a - b), as_vertex(n - b), as_vertex(n));
    let mut edges: Vec<(V, V)> = Vec::with_capacity(n - 1);
    edges.extend((1..p).map(|i| (i - 1, i)));
    edges.extend((p..b_start).map(|l| (0, l)));
    edges.extend((b_start..end).map(|l| (p - 1, l)));
    Graph::from_edges(n, &edges)
}

/// The benchmark corpus: N pairwise non-isomorphic graphs, all on 20
/// vertices. Same-size corpora are the realistic hard case (chemical
/// datasets are full of equal-size molecules) — the pairwise baseline
/// cannot sieve candidates by vertex count, it must actually test.
fn corpus() -> Vec<Graph> {
    const N: usize = 20;
    let mut graphs = Vec::new();
    // 64 trees (m = 19): double brooms, a <= b.
    for a in 2..=9 {
        for b in a..=(18 - a) {
            graphs.push(double_broom(N, a, b));
        }
    }
    // 9 disjoint cycle pairs plus the single cycle (m = 20).
    for k in 3..=10 {
        graphs.push(named::cycle(k).disjoint_union(&named::cycle(N - k)));
    }
    graphs.push(named::cycle(N));
    // 22 4-regular graphs (m = 40): circulants and the 4x5 torus.
    for j in 2..=9 {
        graphs.push(named::circulant(N, &[1, j]));
    }
    for j in 3..=9 {
        graphs.push(named::circulant(N, &[2, j]));
    }
    for j in 4..=9 {
        graphs.push(named::circulant(N, &[3, j]));
    }
    graphs.push(named::torus2(4, 5));
    // 5 6-regular circulants (m = 60).
    for j in 3..=7 {
        graphs.push(named::circulant(N, &[1, 2, j]));
    }
    assert_eq!(graphs.len(), 100, "corpus size drifted");
    graphs
}

fn main() {
    let opts = suite::init_obs();
    let mut rec = Recorder::new("batch");
    let graphs = corpus();
    let n = graphs.len();
    // Every 5th corpus graph, relabeled: M = 20 queries that are
    // isomorphic to an indexed graph but arrive in scrambled order.
    let queries: Vec<Graph> = graphs
        .iter()
        .step_by(5)
        .enumerate()
        .map(|(i, g)| shuffled(g, i as u64 + 1))
        .collect();
    let m = queries.len();
    assert_eq!(m, 20);

    println!("Batch amortization: M = {m} queries against an N = {n} graph corpus");
    let widths = [14, 10, 12, 14, 12];
    print_header(
        &["phase", "wall ms", "canon runs", "index probes", "answers"],
        &widths,
    );

    // Phase 1 — ingest the corpus: one canonicalization per graph, one
    // session for all of them.
    let mut index = FingerprintIndex::new();
    let mut session = suite::dvicl_session(&Config::traces_like());
    let unlimited = Budget::unlimited();
    let (build_run, _) = suite::measure(|| {
        for g in &graphs {
            let inserted = session
                .try_fingerprinted_form(g, &unlimited)
                .and_then(|(fp, form)| index.insert(fp, form, opts.paranoid));
            if let Err(e) = inserted {
                eprintln!("error: {e}");
                std::process::exit(4);
            }
        }
        Some(())
    });
    rec.record("corpus_100", "index-build", &build_run);
    print_row(
        &[
            "index-build".to_string(),
            format!("{:.2}", build_run.secs.unwrap_or(f64::NAN) * 1e3),
            session.builds().to_string(),
            build_run.counters.get(Counter::IndexProbes).to_string(),
            index.len().to_string(),
        ],
        &widths,
    );

    // Phase 2 — the amortized path: one canonicalization + one probe
    // per query, arena pools and refiner warm across all M.
    let mut query_session = suite::dvicl_session(&Config::traces_like());
    let mut hits = 0usize;
    // Per-query class sizes, for the exact cross-check against the
    // pairwise baseline below (a few corpus circulants are isomorphic
    // to each other, so classes can hold more than one member).
    let mut class_sizes: Vec<u64> = Vec::with_capacity(queries.len());
    let (batch_run, _) = suite::measure(|| {
        for q in &queries {
            let (fp, form) = query_session.try_fingerprinted_form(q, &unlimited).ok()?;
            let members = index.group_size(fp, &form).unwrap_or(0);
            class_sizes.push(members);
            if members > 0 {
                hits += 1;
            }
        }
        Some(())
    });
    rec.record("corpus_100", "batch-lookup", &batch_run);
    // The counter proof: exactly M canonicalizations, exactly M probes.
    assert_eq!(
        query_session.builds(),
        m as u64,
        "amortized lookups must canonicalize each query exactly once"
    );
    assert_eq!(
        batch_run.counters.get(Counter::IndexProbes),
        m as u64,
        "amortized lookups must probe exactly once per query"
    );
    assert_eq!(hits, m, "every relabeled query is isomorphic to its source");
    print_row(
        &[
            "batch-lookup".to_string(),
            format!("{:.2}", batch_run.secs.unwrap_or(f64::NAN) * 1e3),
            query_session.builds().to_string(),
            batch_run.counters.get(Counter::IndexProbes).to_string(),
            hits.to_string(),
        ],
        &widths,
    );

    // Phase 3 — the baseline a certificate-free system is stuck with:
    // M×N pairwise isomorphism tests (no early exit; a miss costs the
    // full scan, and misses dominate real workloads).
    let mut pairwise_matches: Vec<u64> = Vec::with_capacity(queries.len());
    let (pairwise_run, _) = suite::measure(|| {
        for q in &queries {
            let mut matches = 0u64;
            for g in &graphs {
                let outcome =
                    try_find_isomorphism_outcome(q, g, &DviclOptions::default(), &unlimited)
                        .ok()?;
                if outcome.mapping.is_some() {
                    matches += 1;
                }
            }
            pairwise_matches.push(matches);
        }
        Some(())
    });
    rec.record("corpus_100", "pairwise", &pairwise_run);
    // The two paths must agree query by query: the baseline's match
    // count is exactly the index class's member count.
    assert_eq!(
        pairwise_matches, class_sizes,
        "baseline must agree with the index answers"
    );
    let pairwise_hits: usize = pairwise_matches.iter().filter(|&&c| c > 0).count();
    print_row(
        &[
            "pairwise".to_string(),
            format!("{:.2}", pairwise_run.secs.unwrap_or(f64::NAN) * 1e3),
            format!("{}", 2 * m * n),
            "-".to_string(),
            pairwise_hits.to_string(),
        ],
        &widths,
    );

    let batch_secs = batch_run.secs.unwrap_or(f64::NAN);
    let pairwise_secs = pairwise_run.secs.unwrap_or(f64::NAN);
    let speedup = pairwise_secs / batch_secs;
    println!(
        "speedup: {speedup:.1}x (pairwise {:.2} ms / batch {:.2} ms)",
        pairwise_secs * 1e3,
        batch_secs * 1e3
    );
    rec.write();
    if speedup < 10.0 {
        eprintln!("error: amortized lookup is only {speedup:.1}x faster (needs >= 10x)");
        std::process::exit(1);
    }
}
