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
fn run(name: &'static str, g: &Graph, target_cell: TargetCell, use_invariant: bool) -> Row {
    let config = Config {
        target_cell,
        use_invariant,
        record_tree: false,
    };
    let mut r = try_canonical_form(g, &Coloring::unit(g.n()), &config, &Budget::unlimited())
        .expect("unlimited search cannot fail");
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
    ("cfi-8", "first", true, 0x8e0717776a395b13, [28, 7, 2, 75, 12, 5]),
    ("cfi-8", "first", false, 0x454af301d6688bb2, [51, 18, 0, 82, 13, 5]),
    ("cfi-8", "smallest", true, 0x8e0717776a395b13, [28, 7, 2, 75, 12, 5]),
    ("cfi-8", "smallest", false, 0xe7b2843428d24a62, [69, 26, 0, 78, 13, 6]),
    ("cfi-8", "largest", true, 0x9c938193906b6a03, [19, 7, 2, 79, 12, 3]),
    ("cfi-8", "largest", false, 0xcb172fda0a0af692, [27, 11, 0, 93, 13, 3]),
    ("cfi-8", "most-constrained", true, 0xdb4052a230c25763, [23, 7, 2, 76, 12, 4]),
    ("cfi-8", "most-constrained", false, 0x158f3e9b4a8e84a1, [37, 13, 0, 88, 14, 4]),
    ("cfi-8-twisted", "first", true, 0xe81878cedd23e5b3, [28, 7, 2, 75, 12, 5]),
    ("cfi-8-twisted", "first", false, 0x7fecd26b470af8a2, [51, 18, 0, 82, 13, 5]),
    ("cfi-8-twisted", "smallest", true, 0xe81878cedd23e5b3, [28, 7, 2, 75, 12, 5]),
    ("cfi-8-twisted", "smallest", false, 0x01774a68008d77b2, [54, 18, 0, 79, 13, 6]),
    ("cfi-8-twisted", "largest", true, 0xe6e9cfb70f981493, [19, 7, 2, 79, 12, 3]),
    ("cfi-8-twisted", "largest", false, 0xf3634e69d295d452, [27, 11, 0, 93, 13, 3]),
    ("cfi-8-twisted", "most-constrained", true, 0x6784d88e4a26ea83, [23, 7, 2, 76, 12, 4]),
    ("cfi-8-twisted", "most-constrained", false, 0x8666cbbcf96c0d51, [37, 13, 0, 88, 14, 4]),
    ("cfi-12", "first", true, 0x30093df6803d5b20, [58, 14, 1, 119, 19, 7]),
    ("cfi-12", "first", false, 0x30093df6803d5b20, [92, 22, 0, 141, 19, 8]),
    ("cfi-12", "smallest", true, 0xa25108b2dced48e0, [66, 14, 1, 117, 19, 7]),
    ("cfi-12", "smallest", false, 0xa25108b2dced48e0, [133, 30, 0, 154, 19, 9]),
    ("cfi-12", "largest", true, 0xa31d6f772e7bc103, [35, 11, 1, 128, 16, 4]),
    ("cfi-12", "largest", false, 0x070778671d989f51, [42, 14, 0, 139, 18, 4]),
    ("cfi-12", "most-constrained", true, 0x39654bca0bf72911, [51, 13, 1, 121, 18, 6]),
    ("cfi-12", "most-constrained", false, 0x39654bca0bf72911, [83, 21, 0, 145, 18, 7]),
    ("mz-aug-10", "first", true, 0x2e1d84a2b6595ad8, [91, 13, 2, 195, 24, 11]),
    ("mz-aug-10", "first", false, 0x81f2454d31a0031b, [190, 26, 0, 257, 27, 12]),
    ("mz-aug-10", "smallest", true, 0x2e1d84a2b6595ad8, [91, 13, 2, 195, 24, 11]),
    ("mz-aug-10", "smallest", false, 0xee520ba76e628acb, [198, 26, 0, 253, 27, 13]),
    ("mz-aug-10", "largest", true, 0x8474a0246f284a88, [55, 13, 2, 202, 24, 6]),
    ("mz-aug-10", "largest", false, 0x4e59e9b21f45bbfb, [79, 19, 0, 232, 27, 6]),
    ("mz-aug-10", "most-constrained", true, 0xb833e5aa3361cc18, [86, 13, 2, 196, 24, 10]),
    ("mz-aug-10", "most-constrained", false, 0xaf9ca69273cfad4a, [177, 25, 0, 261, 26, 11]),
    ("had-32", "first", true, 0x2aa4af06ef849ecf, [54, 18, 0, 363, 34, 6]),
    ("had-32", "first", false, 0x2aa4af06ef849ecf, [54, 18, 0, 363, 34, 6]),
    ("had-32", "smallest", true, 0xbad906352faa17cf, [114, 18, 0, 214, 34, 11]),
    ("had-32", "smallest", false, 0xbad906352faa17cf, [114, 18, 0, 214, 34, 11]),
    ("had-32", "largest", true, 0x2aa4af06ef849ecf, [54, 18, 0, 363, 34, 6]),
    ("had-32", "largest", false, 0x2aa4af06ef849ecf, [54, 18, 0, 363, 34, 6]),
    ("had-32", "most-constrained", true, 0x2aa4af06ef849ecf, [54, 18, 0, 363, 34, 6]),
    ("had-32", "most-constrained", false, 0x2aa4af06ef849ecf, [54, 18, 0, 363, 34, 6]),
    ("pg2-5", "first", true, 0xb72e12159169ad65, [81, 10, 10, 409, 11, 7]),
    ("pg2-5", "first", false, 0x1d4be7f26a2727d5, [82, 20, 0, 409, 11, 7]),
    ("pg2-5", "smallest", true, 0xd7991c158c4e9c05, [347, 13, 136, 354, 10, 11]),
    ("pg2-5", "smallest", false, 0x5bf434dc34a0fb85, [356, 167, 0, 306, 10, 11]),
    ("pg2-5", "largest", true, 0x622d4905366cef71, [23, 8, 0, 122, 14, 4]),
    ("pg2-5", "largest", false, 0x622d4905366cef71, [23, 8, 0, 122, 14, 4]),
    ("pg2-5", "most-constrained", true, 0x38d1686c31b06ff1, [23, 8, 0, 122, 14, 4]),
    ("pg2-5", "most-constrained", false, 0x38d1686c31b06ff1, [23, 8, 0, 122, 14, 4]),
    ("ag2-5", "first", true, 0xef7d9fe8b1f4094f, [53, 9, 5, 242, 9, 6]),
    ("ag2-5", "first", false, 0x58fb96689486527f, [59, 16, 0, 296, 9, 6]),
    ("ag2-5", "smallest", true, 0x82d5709106447db7, [405, 11, 202, 306, 6, 9]),
    ("ag2-5", "smallest", false, 0x914c24eebf4f2a07, [188, 62, 0, 259, 6, 9]),
    ("ag2-5", "largest", true, 0x7b2c9c635076887d, [16, 7, 0, 62, 12, 3]),
    ("ag2-5", "largest", false, 0x7b2c9c635076887d, [16, 7, 0, 62, 12, 3]),
    ("ag2-5", "most-constrained", true, 0x7b2c9c635076887d, [16, 7, 0, 62, 12, 3]),
    ("ag2-5", "most-constrained", false, 0x7b2c9c635076887d, [16, 7, 0, 62, 12, 3]),
    ("grid-w-6-6-6", "first", true, 0x3ac9a0d916726419, [13, 6, 0, 224, 10, 3]),
    ("grid-w-6-6-6", "first", false, 0x3ac9a0d916726419, [13, 6, 0, 224, 10, 3]),
    ("grid-w-6-6-6", "smallest", true, 0x4e2560ae85a5461f, [28, 7, 0, 215, 12, 6]),
    ("grid-w-6-6-6", "smallest", false, 0x4e2560ae85a5461f, [28, 7, 0, 215, 12, 6]),
    ("grid-w-6-6-6", "largest", true, 0x758c8d9c6c313b49, [14, 6, 0, 234, 10, 3]),
    ("grid-w-6-6-6", "largest", false, 0x758c8d9c6c313b49, [14, 6, 0, 234, 10, 3]),
    ("grid-w-6-6-6", "most-constrained", true, 0xb1f76ea70402e53b, [12, 5, 0, 235, 8, 3]),
    ("grid-w-6-6-6", "most-constrained", false, 0xb1f76ea70402e53b, [12, 5, 0, 235, 8, 3]),
    ("petersen", "first", true, 0x1db1de4a63baed8d, [10, 4, 0, 12, 6, 3]),
    ("petersen", "first", false, 0x1db1de4a63baed8d, [10, 4, 0, 12, 6, 3]),
    ("petersen", "smallest", true, 0xb34075c3306d9493, [15, 5, 0, 9, 8, 4]),
    ("petersen", "smallest", false, 0xb34075c3306d9493, [15, 5, 0, 9, 8, 4]),
    ("petersen", "largest", true, 0x3afc262df4867a8d, [10, 4, 0, 12, 6, 3]),
    ("petersen", "largest", false, 0x3afc262df4867a8d, [10, 4, 0, 12, 6, 3]),
    ("petersen", "most-constrained", true, 0x1db1de4a63baed8d, [10, 4, 0, 12, 6, 3]),
    ("petersen", "most-constrained", false, 0x1db1de4a63baed8d, [10, 4, 0, 12, 6, 3]),
    ("torus-4-4", "first", true, 0x769a346a35430b2d, [11, 5, 0, 19, 8, 3]),
    ("torus-4-4", "first", false, 0x769a346a35430b2d, [11, 5, 0, 19, 8, 3]),
    ("torus-4-4", "smallest", true, 0x119a5390b05e724d, [15, 5, 0, 17, 8, 4]),
    ("torus-4-4", "smallest", false, 0x119a5390b05e724d, [15, 5, 0, 17, 8, 4]),
    ("torus-4-4", "largest", true, 0x769a346a35430b2d, [11, 5, 0, 19, 8, 3]),
    ("torus-4-4", "largest", false, 0x769a346a35430b2d, [11, 5, 0, 19, 8, 3]),
    ("torus-4-4", "most-constrained", true, 0x769a346a35430b2d, [11, 5, 0, 19, 8, 3]),
    ("torus-4-4", "most-constrained", false, 0x769a346a35430b2d, [11, 5, 0, 19, 8, 3]),
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

#[rustfmt::skip]
const FULL: &[Row] = &[
    ("ag2-47", "largest", true, 0xc34f8da0792bf0ce, [18, 9, 0, 6570, 16, 3]),
    ("cfi-200", "largest", true, 0xfb339b097dad02e0, [2755, 103, 2, 2047, 204, 51]),
    ("grid-w-3-20", "largest", true, 0x1346a1c75e74e712, [8, 5, 0, 8042, 8, 2]),
    ("had-256", "largest", true, 0x85087a18ea862fdd, [148, 39, 0, 4563, 76, 9]),
    ("mz-aug-50", "largest", true, 0x6590803e4de14cad, [949, 67, 1, 1088, 116, 26]),
    ("pg2-47", "largest", true, 0x3a905f7f15bcf357, [25, 10, 0, 11082, 18, 4]),
    ("cfi-200", "first", true, 0x914ac39d1c587a50, [5356, 103, 2, 1995, 204, 101]),
    ("cfi-200", "smallest", true, 0x914ac39d1c587a50, [5356, 103, 2, 1995, 204, 101]),
    ("cfi-200", "most-constrained", true, 0x72cb6bd79f69b364, [5351, 103, 2, 1996, 204, 100]),
    ("mz-aug-50", "first", true, 0x339294265a1d1407, [1768, 57, 4, 1179, 106, 52]),
    ("mz-aug-50", "smallest", true, 0xe1297550a4a6a613, [1723, 58, 2, 1134, 106, 53]),
    ("mz-aug-50", "most-constrained", true, 0x298371ea66e52100, [1712, 56, 4, 1182, 105, 51]),
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
