//! The named dataset suites: the 22 real-graph analogs (Table 1) and the
//! 9 benchmark graphs (Table 2), with deterministic per-name parameters.
//!
//! Sizes are scaled down from the paper's multi-million-vertex downloads
//! to keep the full evaluation runnable on one machine (see DESIGN.md §4);
//! relative proportions (average degree, twin-richness, pocket structure)
//! follow each original's published statistics.

use crate::bench_graphs;
use crate::social::{generate, SocialConfig};
use dvicl_graph::Graph;

/// A named dataset of the evaluation suite.
pub struct Dataset {
    /// Name, matching the paper's tables.
    pub name: &'static str,
    /// Generator.
    pub build: fn() -> Graph,
}

macro_rules! social {
    ($name:literal, $core:expr, $deg:expr, $fans:expr, $fan_size:expr,
     $tree_hubs:expr, $copies:expr, $tree_size:expr, $rings:expr, $ring_size:expr,
     $ring_growth:expr, $mirrors:expr, $mirror_size:expr, $mirror_deg:expr, $seed:expr) => {
        Dataset {
            name: $name,
            build: || {
                generate(&SocialConfig {
                    core_n: $core,
                    avg_degree: $deg,
                    exponent: 2.5,
                    twin_fans: $fans,
                    fan_size: $fan_size,
                    tree_hubs: $tree_hubs,
                    tree_copies: $copies,
                    tree_size: $tree_size,
                    ring_pockets: $rings,
                    ring_size: $ring_size,
                    ring_growth: $ring_growth,
                    mirror_classes: $mirrors,
                    mirror_class_size: $mirror_size,
                    mirror_degree: $mirror_deg,
                    seed: $seed,
                })
            },
        }
    };
}

/// The 22 social/web analogs of Table 1, ordered as in the paper.
///
/// Twin-heavy originals (WikiTalk, Youtube, Delicious, Flixster,
/// Friendster: huge pendant fans around hubs) get many fans; the web
/// graphs (BerkStan, Google, NotreDame, Stanford) additionally get ring
/// pockets, mirroring their non-singleton AutoTree leaves in Table 3.
/// BerkStan and Stanford grow their pockets (`ring_growth > 0`) so the
/// leaf-size *spread* matches the paper's Table 3 averages (up to
/// 163.59) instead of one repeated size — which also makes them the
/// suite's analogs with the most distinct non-singleton leaves: each
/// distinct pocket is its own subtree with its own `IR` run, which the
/// `CombineCL` memo cannot share.
pub fn social_suite() -> Vec<Dataset> {
    vec![
        social!("Amazon", 9000, 12.0, 220, 3, 60, 2, 4, 0, 8, 0, 0, 3, 0, 0xA3A201),
        social!("BerkStan", 9000, 14.0, 260, 4, 70, 2, 5, 54, 10, 6, 25, 8, 130, 0xBE0401),
        social!("Epinions", 5000, 10.7, 150, 4, 40, 2, 4, 0, 8, 0, 8, 3, 80, 0xE21301),
        social!("Gnutella", 4500, 4.7, 120, 3, 40, 2, 3, 0, 8, 0, 0, 3, 0, 0x64AA01),
        social!("Google", 10000, 9.9, 300, 4, 80, 2, 5, 18, 8, 0, 30, 7, 120, 0x600601),
        social!(
            "LiveJournal",
            16000,
            12.0,
            420,
            4,
            110,
            2,
            5,
            0,
            8,
            0,
            35,
            10,
            150,
            0x11FE01
        ),
        social!(
            "NotreDame",
            7000,
            6.7,
            420,
            6,
            90,
            3,
            5,
            12,
            12,
            0,
            25,
            4,
            70,
            0x02DA01
        ),
        social!("Pokec", 12000, 14.0, 200, 3, 50, 2, 4, 0, 8, 0, 20, 5, 160, 0x90CE01),
        social!(
            "Slashdot0811",
            5200,
            12.1,
            140,
            4,
            40,
            2,
            4,
            0,
            8,
            0,
            6,
            3,
            80,
            0x51A801
        ),
        social!(
            "Slashdot0902",
            5400,
            12.3,
            145,
            4,
            40,
            2,
            4,
            0,
            8,
            0,
            8,
            4,
            80,
            0x51A902
        ),
        social!("Stanford", 7500, 14.1, 260, 4, 70, 2, 5, 52, 8, 6, 18, 6, 130, 0x57A201),
        social!("WikiTalk", 9000, 3.9, 900, 8, 160, 3, 4, 0, 8, 0, 0, 3, 0, 0x3117A1),
        social!("wikivote", 3000, 14.0, 90, 6, 25, 2, 4, 0, 8, 0, 12, 30, 170, 0x313701),
        social!("Youtube", 9500, 5.3, 700, 6, 140, 3, 4, 0, 8, 0, 0, 3, 0, 0x900701),
        social!("Orkut", 14000, 16.0, 180, 3, 40, 2, 4, 0, 8, 0, 12, 4, 220, 0x09C001),
        social!("BuzzNet", 3600, 18.0, 100, 4, 25, 2, 4, 0, 8, 0, 45, 20, 110, 0xB55201),
        social!(
            "Delicious",
            7500,
            5.1,
            520,
            5,
            120,
            3,
            4,
            10,
            8,
            0,
            18,
            4,
            60,
            0xDE1101
        ),
        social!("Digg", 7800, 15.0, 220, 4, 60, 2, 4, 0, 8, 0, 0, 3, 0, 0xD16601),
        social!("Flixster", 11000, 6.3, 560, 6, 120, 3, 4, 0, 8, 0, 0, 3, 0, 0xF115A1),
        social!(
            "Foursquare",
            7200,
            10.1,
            210,
            4,
            60,
            2,
            4,
            0,
            8,
            0,
            40,
            12,
            100,
            0x40CA01
        ),
        social!(
            "Friendster",
            15000,
            5.0,
            620,
            5,
            140,
            3,
            4,
            0,
            8,
            0,
            0,
            3,
            0,
            0xF21E01
        ),
        social!("Lastfm", 8000, 7.6, 260, 4, 70, 2, 4, 0, 8, 0, 0, 3, 0, 0x1A57F1),
    ]
}

/// The 9 benchmark graphs of Table 2, ordered as in the paper.
///
/// `pg2`/`ag2` use prime order 47 instead of the paper's 49 (our finite
/// field is prime-order); `mz-aug` is CFI over a Möbius ladder;
/// `difp`/`fpga`/`s3` are SAT-circuit shape substitutes (see module docs).
pub fn benchmark_suite() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "ag2-47",
            build: || bench_graphs::ag2(47),
        },
        Dataset {
            name: "cfi-200",
            build: || bench_graphs::cfi(&bench_graphs::cubic_circulant(200), false),
        },
        Dataset {
            name: "difp-21-like",
            build: || bench_graphs::sat_like(24, 660, 90, 0, 8, 0xD1F9),
        },
        Dataset {
            name: "fpga11-20-like",
            build: || bench_graphs::sat_like(15, 300, 40, 22, 120, 0xF96A),
        },
        Dataset {
            name: "grid-w-3-20",
            build: || bench_graphs::wrapped_grid(&[20, 20, 20]),
        },
        Dataset {
            name: "had-256",
            build: || bench_graphs::hadamard(256),
        },
        Dataset {
            name: "mz-aug-50",
            build: || bench_graphs::mz_aug(50),
        },
        Dataset {
            name: "pg2-47",
            build: || bench_graphs::pg2(47),
        },
        Dataset {
            name: "s3-3-3-10-like",
            build: || bench_graphs::sat_like(26, 480, 110, 0, 8, 0x5331),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_cardinality() {
        assert_eq!(social_suite().len(), 22);
        assert_eq!(benchmark_suite().len(), 9);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = social_suite()
            .iter()
            .chain(benchmark_suite().iter())
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn all_build_and_are_nontrivial() {
        for d in social_suite().iter().chain(benchmark_suite().iter()) {
            let g = (d.build)();
            assert!(g.n() > 500, "{} too small: {}", d.name, g.n());
            assert!(g.m() > g.n() / 2, "{} too sparse", d.name);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for d in social_suite().iter().take(3) {
            assert_eq!((d.build)(), (d.build)());
        }
    }
}
