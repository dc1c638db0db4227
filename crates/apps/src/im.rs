//! Influence maximization under the Independent Cascade (IC) model.
//!
//! The paper selects seed sets with PMC \[28\] (pruned Monte-Carlo BFS) under
//! the IC model with a constant activation probability, following the
//! benchmarking setup of \[1\]. This module implements the same *semantics* —
//! IC spread estimated by Monte-Carlo simulation, greedy seed selection
//! accelerated with CELF's lazy evaluation — without PMC's sketch pruning
//! (a pure-speed device). Table 6 only consumes the selected seed set.

use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Graph, V};
use dvicl_obs::Phase;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for IC-model simulations.
#[derive(Clone, Copy, Debug)]
pub struct IcConfig {
    /// Activation probability per edge (the paper treats it as constant).
    pub prob: f64,
    /// Monte-Carlo rounds per spread estimate.
    pub rounds: u32,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
}

impl Default for IcConfig {
    fn default() -> Self {
        IcConfig {
            prob: 0.1,
            rounds: 100,
            seed: 0x1C,
        }
    }
}

/// Estimates the expected spread `σ(S)` of a seed set by Monte-Carlo BFS,
/// spending one work unit per activated vertex popped from the BFS
/// frontier, across all Monte-Carlo rounds.
pub fn try_spread(
    g: &Graph,
    seeds: &[V],
    cfg: &IcConfig,
    budget: &Budget,
) -> Result<f64, DviclError> {
    let _span = dvicl_obs::span(Phase::AppsIm);
    budget.check()?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = g.n();
    let mut activated = vec![u32::MAX; n];
    let mut frontier: Vec<V> = Vec::new();
    let mut total = 0u64;
    for round in 0..cfg.rounds {
        frontier.clear();
        let mut count = 0u64;
        for &s in seeds {
            if activated[s as usize] != round {
                activated[s as usize] = round;
                frontier.push(s);
                count += 1;
            }
        }
        let mut head = 0;
        while head < frontier.len() {
            budget.spend(1)?;
            let v = frontier[head];
            head += 1;
            for &w in g.neighbors(v) {
                if activated[w as usize] != round && rng.gen_bool(cfg.prob) {
                    activated[w as usize] = round;
                    frontier.push(w);
                    count += 1;
                }
            }
        }
        total += count;
    }
    Ok(total as f64 / cfg.rounds as f64)
}

/// Candidates for [`try_select_seeds`]: the highest-degree vertices
/// (PMC-style pruning: under small constant probabilities a low-degree
/// vertex never beats the hubs).
const MAX_CANDIDATES: usize = 2000;

/// Greedy seed selection with CELF lazy evaluation: picks `k` seeds whose
/// marginal spread gains are maximal (the classic (1−1/e)-approximation of
/// \[17\], lazily re-evaluated as in CELF). Seeds are returned in selection
/// order, so the greedy choice for a smaller `k` is a prefix of the result
/// for a larger one.
///
/// Candidates are restricted to the 2000 highest-degree vertices
/// (`MAX_CANDIDATES`). Every CELF re-evaluation draws its Monte-Carlo
/// BFS work from the shared budget, so the whole selection — not each
/// individual estimate — is bounded.
pub fn try_select_seeds(
    g: &Graph,
    k: usize,
    cfg: &IcConfig,
    budget: &Budget,
) -> Result<Vec<V>, DviclError> {
    let _span = dvicl_obs::span(Phase::AppsIm);
    budget.check()?;
    let n = g.n();
    if n == 0 || k == 0 {
        return Ok(Vec::new());
    }
    let k = k.min(n);
    let mut candidates: Vec<V> = g.vertices().collect();
    candidates.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    candidates.truncate(MAX_CANDIDATES.max(k));
    // Max-heap of (gain, vertex, round-evaluated).
    let mut heap: std::collections::BinaryHeap<(u64, V, u32)> = candidates
        .iter()
        .map(|&v| ((g.degree(v) as u64 + 1) << 20, v, u32::MAX))
        .collect();
    let mut seeds: Vec<V> = Vec::new();
    let mut base_spread = 0.0;
    let mut iteration = 0u32;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a spread is at most n <= V::MAX, so its 20-bit fixed point fits in u64; dropping the fraction below 2^-20 is the rounding"
    )]
    let to_fixed = |x: f64| (x * 1048576.0) as u64;
    while seeds.len() < k {
        #[expect(
            clippy::expect_used,
            reason = "the heap holds every non-seed vertex and seeds.len() < k <= n, so it is non-empty"
        )]
        let (gain, v, evaluated) = heap.pop().expect("heap holds all non-seeds");
        if evaluated == iteration {
            seeds.push(v);
            base_spread += gain as f64 / 1048576.0;
            iteration += 1;
            continue;
        }
        // Re-evaluate the marginal gain of v against the current seeds.
        let mut with_v: Vec<V> = seeds.clone();
        with_v.push(v);
        let gain = to_fixed((try_spread(g, &with_v, cfg, budget)? - base_spread).max(0.0));
        heap.push((gain, v, iteration));
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    fn spread(g: &Graph, seeds: &[V], cfg: &IcConfig) -> f64 {
        try_spread(g, seeds, cfg, &Budget::unlimited()).expect("unlimited estimate cannot fail")
    }

    fn select_seeds(g: &Graph, k: usize, cfg: &IcConfig) -> Vec<V> {
        try_select_seeds(g, k, cfg, &Budget::unlimited()).expect("unlimited selection cannot fail")
    }

    #[test]
    fn spread_of_empty_and_full() {
        let g = named::star(10);
        let cfg = IcConfig::default();
        assert_eq!(spread(&g, &[], &cfg), 0.0);
        let all: Vec<V> = (0..11).collect();
        assert_eq!(spread(&g, &all, &cfg), 11.0);
    }

    #[test]
    fn spread_is_monotone() {
        let g = named::cycle(30);
        let cfg = IcConfig {
            prob: 0.3,
            rounds: 400,
            seed: 7,
        };
        let s1 = spread(&g, &[0], &cfg);
        let s2 = spread(&g, &[0, 15], &cfg);
        assert!(s1 >= 1.0);
        assert!(s2 > s1);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = named::petersen();
        let cfg = IcConfig::default();
        assert_eq!(spread(&g, &[3], &cfg), spread(&g, &[3], &cfg));
    }

    #[test]
    fn hub_is_selected_on_a_star() {
        // On a star with p=0.5, the center dominates any leaf.
        let g = named::star(20);
        let cfg = IcConfig {
            prob: 0.5,
            rounds: 200,
            seed: 3,
        };
        let seeds = select_seeds(&g, 1, &cfg);
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn selects_k_distinct_seeds() {
        let g = named::cycle(12);
        let seeds = select_seeds(&g, 4, &IcConfig::default());
        assert_eq!(seeds.len(), 4);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn greedy_prefix_property() {
        let g = named::star(12).disjoint_union(&named::star(8));
        let cfg = IcConfig::default();
        let s5 = select_seeds(&g, 5, &cfg);
        let s10 = select_seeds(&g, 10, &cfg);
        assert_eq!(s5.as_slice(), &s10[..5]);
    }

    #[test]
    fn work_budget_aborts_selection() {
        let g = named::star(20);
        let cfg = IcConfig {
            prob: 0.5,
            rounds: 200,
            seed: 3,
        };
        let err = try_select_seeds(&g, 2, &cfg, &Budget::with_max_work(5)).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let seeds = try_select_seeds(&g, 1, &cfg, &Budget::with_max_work(10_000_000)).unwrap();
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let g = named::complete(4);
        let seeds = select_seeds(&g, 10, &IcConfig::default());
        assert_eq!(seeds.len(), 4);
    }
}
