//! Byte-identity oracle for the IR search.
//!
//! Each row pins one search: a digest of everything it returns — the
//! certificate, the canonical labeling, the generators *in discovery
//! order* and the orbit partition — and its exact `SearchStats`. A
//! change to the search's internals (how nodes are refined, hashed or
//! pruned) that keeps every observable output must leave all rows
//! unchanged; the stats catch a change that reaches the same answer by a
//! different tree.
//!
//! The default test covers small instances of every hard family under
//! all four target-cell selectors with the node invariant on and off.
//! The ignored test covers the six root-only benchmark families at full
//! size under the traces-like configuration, and `cfi-200` and
//! `mz-aug-50` under every selector (run it in release: `cargo test
//! --release -p dvicl-canon --test search_golden -- --ignored`).

#![expect(
    clippy::cast_possible_truncation,
    reason = "test graphs are small: every vertex id, index and count fits in V"
)]

use dvicl_canon::{try_canonical_form, Budget, CanonResult, Config, TargetCell};
use dvicl_data::bench_graphs;
use dvicl_graph::{named, Coloring, Graph, V};

const SELECTORS: [TargetCell; 4] = [
    TargetCell::FirstNonSingleton,
    TargetCell::SmallestFirst,
    TargetCell::LargestFirst,
    TargetCell::MostConstrained,
];

/// One pinned search: instance, selector, invariant on/off, digest and
/// `[nodes, leaves, pruned_invariant, pruned_orbit, generators_found,
/// max_depth]`.
type Row = (&'static str, &'static str, bool, u64, [u64; 6]);

/// FNV-1a over a stream of `u32` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = V>) {
        for x in xs {
            self.word(x);
        }
    }
}

/// The digest of a search's outputs: form, labeling, the ordered
/// generator list and the orbits, each section length-prefixed.
fn digest(r: &mut CanonResult) -> u64 {
    let mut d = Digest::new();
    for list in [&r.form.colors, &r.form.edges] {
        d.word(list.len() as u32);
        d.words(list.iter().flat_map(|&(a, b)| [a, b]));
    }
    d.words(r.labeling.as_slice().iter().copied());
    d.word(r.generators.len() as u32);
    for g in &r.generators {
        d.words(g.as_slice().iter().copied());
    }
    let cells = r.orbits.cells();
    d.word(cells.len() as u32);
    for cell in cells {
        d.word(cell.len() as u32);
        d.words(cell);
    }
    d.0
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn search(g: &Graph, target_cell: TargetCell, use_invariant: bool) -> CanonResult {
    let config = Config {
        target_cell,
        use_invariant,
        record_tree: false,
    };
    try_canonical_form(g, &Coloring::unit(g.n()), &config, &Budget::unlimited())
        .expect("unlimited search cannot fail")
}

fn run(name: &'static str, g: &Graph, target_cell: TargetCell, use_invariant: bool) -> Row {
    let mut r = search(g, target_cell, use_invariant);
    let s = r.stats;
    (
        name,
        target_cell.name(),
        use_invariant,
        digest(&mut r),
        [
            s.nodes,
            s.leaves,
            s.pruned_invariant,
            s.pruned_orbit,
            s.generators_found,
            u64::from(s.max_depth),
        ],
    )
}

/// Compares the computed rows with the pinned ones, printing every
/// computed row (in this file's table syntax) when any differs.
fn check(got: &[Row], want: &[Row]) {
    if got != want {
        for (name, sel, inv, dig, stats) in got {
            println!("    ({name:?}, {sel:?}, {inv}, {dig:#018x}, {stats:?}),");
        }
    }
    let first = got.iter().zip(want).position(|(a, b)| a != b);
    assert!(
        got == want,
        "search outputs moved: {} rows computed, {} pinned, first difference at row {first:?}",
        got.len(),
        want.len()
    );
}

fn small_instances() -> Vec<(&'static str, Graph)> {
    let c8 = bench_graphs::cubic_circulant(8);
    vec![
        ("cfi-8", bench_graphs::cfi(&c8, false)),
        ("cfi-8-twisted", bench_graphs::cfi(&c8, true)),
        (
            "cfi-12",
            bench_graphs::cfi(&bench_graphs::cubic_circulant(12), false),
        ),
        ("mz-aug-10", bench_graphs::mz_aug(10)),
        ("had-32", bench_graphs::hadamard(32)),
        ("pg2-5", bench_graphs::pg2(5)),
        ("ag2-5", bench_graphs::ag2(5)),
        ("grid-w-6-6-6", bench_graphs::wrapped_grid(&[6, 6, 6])),
        ("petersen", named::petersen()),
        ("torus-4-4", named::torus2(4, 4)),
    ]
}

#[rustfmt::skip]
const SMALL: &[Row] = &[
    ("cfi-8", "first", true, 0xd41d2143bfdbfa29, [28, 7, 2, 75, 6, 5]),
    ("cfi-8", "first", false, 0x329c0d3ff2707737, [51, 18, 0, 82, 8, 5]),
    ("cfi-8", "smallest", true, 0xd41d2143bfdbfa29, [28, 7, 2, 75, 6, 5]),
    ("cfi-8", "smallest", false, 0x2a594bda64c2e7e7, [69, 26, 0, 78, 8, 6]),
    ("cfi-8", "largest", true, 0x0e78b03c92003709, [19, 7, 2, 79, 6, 3]),
    ("cfi-8", "largest", false, 0xc0d04174f13b3957, [27, 11, 0, 93, 8, 3]),
    ("cfi-8", "most-constrained", true, 0xc883d4e3835bb219, [23, 7, 2, 76, 6, 4]),
    ("cfi-8", "most-constrained", false, 0x806a63c2b2af81e6, [37, 13, 0, 88, 9, 4]),
    ("cfi-8-twisted", "first", true, 0x1a813eda183ba449, [28, 7, 2, 75, 6, 5]),
    ("cfi-8-twisted", "first", false, 0x0f4e46c6bd1f22a7, [51, 18, 0, 82, 8, 5]),
    ("cfi-8-twisted", "smallest", true, 0x1a813eda183ba449, [28, 7, 2, 75, 6, 5]),
    ("cfi-8-twisted", "smallest", false, 0x8b0c1b3ef3017db7, [54, 18, 0, 79, 8, 6]),
    ("cfi-8-twisted", "largest", true, 0x8b6e9bdc557fe139, [19, 7, 2, 79, 6, 3]),
    ("cfi-8-twisted", "largest", false, 0x924baebadf867697, [27, 11, 0, 93, 8, 3]),
    ("cfi-8-twisted", "most-constrained", true, 0x0ffc35260dcaacb9, [23, 7, 2, 76, 6, 4]),
    ("cfi-8-twisted", "most-constrained", false, 0x8871cd28d40d33d6, [37, 13, 0, 88, 9, 4]),
    ("cfi-12", "first", true, 0xa2c3d21333bfb15f, [58, 14, 1, 119, 12, 7]),
    ("cfi-12", "first", false, 0xa2c3d21333bfb15f, [92, 22, 0, 141, 12, 8]),
    ("cfi-12", "smallest", true, 0x4d7c3dd3850ece1f, [66, 14, 1, 117, 12, 7]),
    ("cfi-12", "smallest", false, 0x4d7c3dd3850ece1f, [133, 30, 0, 154, 12, 9]),
    ("cfi-12", "largest", true, 0x24840fd691ae9b1a, [35, 11, 1, 128, 9, 4]),
    ("cfi-12", "largest", false, 0x65d5b2e4663fea08, [42, 14, 0, 139, 11, 4]),
    ("cfi-12", "most-constrained", true, 0x45d73b7b5d36efc8, [51, 13, 1, 121, 11, 6]),
    ("cfi-12", "most-constrained", false, 0x45d73b7b5d36efc8, [83, 21, 0, 145, 11, 7]),
    ("mz-aug-10", "first", true, 0x0a8f1e8d6d75babc, [91, 13, 2, 195, 12, 11]),
    ("mz-aug-10", "first", false, 0xfb2bdcd443cef110, [190, 26, 0, 257, 16, 12]),
    ("mz-aug-10", "smallest", true, 0x0a8f1e8d6d75babc, [91, 13, 2, 195, 12, 11]),
    ("mz-aug-10", "smallest", false, 0x483be0a3cf4f1a40, [198, 26, 0, 253, 16, 13]),
    ("mz-aug-10", "largest", true, 0x70b6239b2ec91dbc, [55, 13, 2, 202, 12, 6]),
    ("mz-aug-10", "largest", false, 0x38774814f5d30df0, [79, 19, 0, 232, 16, 6]),
    ("mz-aug-10", "most-constrained", true, 0xa9ca6d0d5a2db4bc, [86, 13, 2, 196, 12, 10]),
    ("mz-aug-10", "most-constrained", false, 0x1f16ac42f310949f, [177, 25, 0, 261, 15, 11]),
    ("had-32", "first", true, 0xa17e98c2bfbb080c, [54, 18, 0, 363, 17, 6]),
    ("had-32", "first", false, 0xa17e98c2bfbb080c, [54, 18, 0, 363, 17, 6]),
    ("had-32", "smallest", true, 0x1d2feef896674e0c, [114, 18, 0, 214, 17, 11]),
    ("had-32", "smallest", false, 0x1d2feef896674e0c, [114, 18, 0, 214, 17, 11]),
    ("had-32", "largest", true, 0xa17e98c2bfbb080c, [54, 18, 0, 363, 17, 6]),
    ("had-32", "largest", false, 0xa17e98c2bfbb080c, [54, 18, 0, 363, 17, 6]),
    ("had-32", "most-constrained", true, 0xa17e98c2bfbb080c, [54, 18, 0, 363, 17, 6]),
    ("had-32", "most-constrained", false, 0xa17e98c2bfbb080c, [54, 18, 0, 363, 17, 6]),
    ("pg2-5", "first", true, 0x51b2aedecd6303d7, [81, 10, 10, 409, 8, 7]),
    ("pg2-5", "first", false, 0x04bae5419cdb9187, [82, 20, 0, 409, 8, 7]),
    ("pg2-5", "smallest", true, 0x0ea2e0324dec2d97, [347, 13, 136, 354, 9, 11]),
    ("pg2-5", "smallest", false, 0x41f7dec5ce498717, [356, 167, 0, 306, 9, 11]),
    ("pg2-5", "largest", true, 0x68f2c2eeaad92999, [23, 8, 0, 122, 7, 4]),
    ("pg2-5", "largest", false, 0x68f2c2eeaad92999, [23, 8, 0, 122, 7, 4]),
    ("pg2-5", "most-constrained", true, 0x44c8854764f88679, [23, 8, 0, 122, 7, 4]),
    ("pg2-5", "most-constrained", false, 0x44c8854764f88679, [23, 8, 0, 122, 7, 4]),
    ("ag2-5", "first", true, 0xe39efedcbd7f8d87, [53, 9, 5, 242, 6, 6]),
    ("ag2-5", "first", false, 0x182d0d4a51a9e657, [59, 16, 0, 296, 6, 6]),
    ("ag2-5", "smallest", true, 0x6ead89a14b85b123, [405, 11, 202, 306, 5, 9]),
    ("ag2-5", "smallest", false, 0x16a5cbc23d279853, [188, 62, 0, 259, 5, 9]),
    ("ag2-5", "largest", true, 0x1afc6f275013a887, [16, 7, 0, 62, 6, 3]),
    ("ag2-5", "largest", false, 0x1afc6f275013a887, [16, 7, 0, 62, 6, 3]),
    ("ag2-5", "most-constrained", true, 0x1afc6f275013a887, [16, 7, 0, 62, 6, 3]),
    ("ag2-5", "most-constrained", false, 0x1afc6f275013a887, [16, 7, 0, 62, 6, 3]),
    ("grid-w-6-6-6", "first", true, 0xd46357904be4d186, [13, 6, 0, 224, 5, 3]),
    ("grid-w-6-6-6", "first", false, 0xd46357904be4d186, [13, 6, 0, 224, 5, 3]),
    ("grid-w-6-6-6", "smallest", true, 0xf511880013638555, [28, 7, 0, 215, 6, 6]),
    ("grid-w-6-6-6", "smallest", false, 0xf511880013638555, [28, 7, 0, 215, 6, 6]),
    ("grid-w-6-6-6", "largest", true, 0x6c07e86b1baa4dd6, [14, 6, 0, 234, 5, 3]),
    ("grid-w-6-6-6", "largest", false, 0x6c07e86b1baa4dd6, [14, 6, 0, 234, 5, 3]),
    ("grid-w-6-6-6", "most-constrained", true, 0x3e6122256eb51317, [12, 5, 0, 235, 4, 3]),
    ("grid-w-6-6-6", "most-constrained", false, 0x3e6122256eb51317, [12, 5, 0, 235, 4, 3]),
    ("petersen", "first", true, 0xb9feba757a1383f9, [10, 4, 0, 12, 3, 3]),
    ("petersen", "first", false, 0xb9feba757a1383f9, [10, 4, 0, 12, 3, 3]),
    ("petersen", "smallest", true, 0x53a5d6728f3f319f, [15, 5, 0, 9, 4, 4]),
    ("petersen", "smallest", false, 0x53a5d6728f3f319f, [15, 5, 0, 9, 4, 4]),
    ("petersen", "largest", true, 0x446e05441d4c03e9, [10, 4, 0, 12, 3, 3]),
    ("petersen", "largest", false, 0x446e05441d4c03e9, [10, 4, 0, 12, 3, 3]),
    ("petersen", "most-constrained", true, 0xb9feba757a1383f9, [10, 4, 0, 12, 3, 3]),
    ("petersen", "most-constrained", false, 0xb9feba757a1383f9, [10, 4, 0, 12, 3, 3]),
    ("torus-4-4", "first", true, 0xb2e0ff54a0dde0e1, [11, 5, 0, 19, 4, 3]),
    ("torus-4-4", "first", false, 0xb2e0ff54a0dde0e1, [11, 5, 0, 19, 4, 3]),
    ("torus-4-4", "smallest", true, 0xe33243126fc58681, [15, 5, 0, 17, 4, 4]),
    ("torus-4-4", "smallest", false, 0xe33243126fc58681, [15, 5, 0, 17, 4, 4]),
    ("torus-4-4", "largest", true, 0xb2e0ff54a0dde0e1, [11, 5, 0, 19, 4, 3]),
    ("torus-4-4", "largest", false, 0xb2e0ff54a0dde0e1, [11, 5, 0, 19, 4, 3]),
    ("torus-4-4", "most-constrained", true, 0xb2e0ff54a0dde0e1, [11, 5, 0, 19, 4, 3]),
    ("torus-4-4", "most-constrained", false, 0xb2e0ff54a0dde0e1, [11, 5, 0, 19, 4, 3]),
];

#[test]
fn small_instances_every_selector_and_invariant_setting() {
    let mut got = Vec::new();
    for (name, g) in small_instances() {
        for sel in SELECTORS {
            for inv in [true, false] {
                got.push(run(name, &g, sel, inv));
            }
        }
    }
    check(&got, SMALL);
}

/// A leaf equivalent to the first leaf while the best leaf still is the
/// first leaf yields one automorphism, not two: the search records each
/// generator once.
#[test]
fn no_search_records_a_generator_twice() {
    for (name, g) in small_instances() {
        for sel in SELECTORS {
            for inv in [true, false] {
                let r = search(&g, sel, inv);
                for (i, gen) in r.generators.iter().enumerate() {
                    assert!(
                        !r.generators[..i].contains(gen),
                        "{name} {} invariant={inv}: generator {i} repeats an earlier one",
                        sel.name()
                    );
                }
            }
        }
    }
}

#[rustfmt::skip]
const FULL: &[Row] = &[
    ("ag2-47", "largest", true, 0xc148c44d9d3fdfc2, [18, 9, 0, 6570, 8, 3]),
    ("cfi-200", "largest", true, 0xee48797f3b9cd922, [2755, 103, 2, 2047, 102, 51]),
    ("grid-w-3-20", "largest", true, 0x161b179f82ad5c66, [8, 5, 0, 8042, 4, 2]),
    ("had-256", "largest", true, 0x05f90d12b0b08227, [148, 39, 0, 4563, 38, 9]),
    ("mz-aug-50", "largest", true, 0x5e5816a641c7b0e4, [949, 67, 1, 1088, 65, 26]),
    ("pg2-47", "largest", true, 0x2193b469cedbe555, [25, 10, 0, 11082, 9, 4]),
    ("cfi-200", "first", true, 0x0f1425a8e5940576, [5356, 103, 2, 1995, 102, 101]),
    ("cfi-200", "smallest", true, 0x0f1425a8e5940576, [5356, 103, 2, 1995, 102, 101]),
    ("cfi-200", "most-constrained", true, 0x3711c98371c2306a, [5351, 103, 2, 1996, 102, 100]),
    ("mz-aug-50", "first", true, 0xcd8ab5ef3be57532, [1768, 57, 4, 1179, 55, 52]),
    ("mz-aug-50", "smallest", true, 0xb587b6e8a54ab046, [1723, 58, 2, 1134, 55, 53]),
    ("mz-aug-50", "most-constrained", true, 0xd6798b4bba633faf, [1712, 56, 4, 1182, 54, 51]),
];

#[test]
#[ignore = "full-size benchmark families; run in release"]
fn benchmark_families_full_size() {
    let search_families = [
        ("ag2-47", bench_graphs::ag2(47)),
        (
            "cfi-200",
            bench_graphs::cfi(&bench_graphs::cubic_circulant(200), false),
        ),
        ("grid-w-3-20", bench_graphs::wrapped_grid(&[20, 20, 20])),
        ("had-256", bench_graphs::hadamard(256)),
        ("mz-aug-50", bench_graphs::mz_aug(50)),
        ("pg2-47", bench_graphs::pg2(47)),
    ];
    let mut got = Vec::new();
    for (name, g) in &search_families {
        got.push(run(name, g, TargetCell::LargestFirst, true));
    }
    for (name, g) in &search_families {
        if matches!(*name, "cfi-200" | "mz-aug-50") {
            for sel in SELECTORS {
                if sel != TargetCell::LargestFirst {
                    got.push(run(name, g, sel, true));
                }
            }
        }
    }
    check(&got, FULL);
}
