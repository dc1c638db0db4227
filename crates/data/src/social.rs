//! Social/web network analogs: Chung–Lu power-law cores with planted
//! symmetry.
//!
//! Real social networks are mostly *rigid* (nearly all orbit cells are
//! singletons — Table 1 of the paper) with symmetry concentrated in
//! locally duplicated structures: pendant twins, repeated hanging trees,
//! and small regular pockets. The generator reproduces exactly that
//! profile, which is what DviCL's divide rules exploit.

#![expect(
    clippy::cast_possible_truncation,
    reason = "generator arithmetic: every id is below the vertex count the builder was made for, and GraphBuilder::new asserts that count fits in V; the edge target is a float count of at most n^2"
)]

use dvicl_graph::{Graph, GraphBuilder, V};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a social analog.
#[derive(Clone, Debug)]
pub struct SocialConfig {
    /// Vertices in the Chung–Lu core.
    pub core_n: usize,
    /// Target average degree of the core.
    pub avg_degree: f64,
    /// Power-law exponent of the expected-degree sequence (typically 2–3).
    pub exponent: f64,
    /// Number of hub vertices that receive pendant twin fans.
    pub twin_fans: usize,
    /// Leaves per twin fan (each fan is one structural-equivalence class).
    pub fan_size: usize,
    /// Number of hubs that receive `tree_copies` identical hanging trees.
    pub tree_hubs: usize,
    /// Identical subtree copies per tree hub (symmetric siblings).
    pub tree_copies: usize,
    /// Vertices per hanging tree (a random tree shape, same for each copy
    /// under one hub).
    pub tree_size: usize,
    /// Number of ring pockets (odd cycles hung from one core vertex) —
    /// these produce the paper's small non-singleton AutoTree leaves.
    pub ring_pockets: usize,
    /// Ring pocket circumference (even: the hung path refines to paired
    /// cells that no divide rule can separate).
    pub ring_size: usize,
    /// Per-pocket circumference increment: pocket `k` (0-based) has
    /// circumference `ring_size + k * ring_growth`. The paper's web
    /// graphs carry non-singleton leaves of widely *varied* sizes
    /// (Table 3: averages up to 163.59), not one repeated size — and
    /// distinct sizes are structurally distinct leaves, so each costs
    /// its own `IR` run instead of hitting the `CombineCL` memo.
    pub ring_growth: usize,
    /// Number of *mirror hub* classes: groups of structurally equivalent
    /// mid/high-influence vertices sharing an identical core neighborhood.
    /// Real networks have them (identically-behaving accounts); they are
    /// what makes the paper's Table 6 seed-set counts astronomically large
    /// — an IM seed falling in a class of size s has s interchangeable
    /// counterparts.
    pub mirror_classes: usize,
    /// Members per mirror class.
    pub mirror_class_size: usize,
    /// Shared-neighborhood size of each mirror class.
    pub mirror_degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            core_n: 5_000,
            avg_degree: 8.0,
            exponent: 2.5,
            twin_fans: 120,
            fan_size: 4,
            tree_hubs: 40,
            tree_copies: 2,
            tree_size: 5,
            ring_pockets: 0,
            ring_size: 8,
            ring_growth: 0,
            mirror_classes: 0,
            mirror_class_size: 3,
            mirror_degree: 60,
            seed: 0xD1C1,
        }
    }
}

/// Generates the analog graph for a config.
pub fn generate(cfg: &SocialConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.core_n;
    // Expected-degree weights w_i ∝ (i + i0)^(-1/(β-1)), scaled to the
    // target average degree (the standard Chung–Lu setup).
    let alpha = 1.0 / (cfg.exponent - 1.0);
    let i0 = 10.0; // dampens the largest hubs so dmax stays realistic
    let mut w: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-alpha)).collect();
    let sum: f64 = w.iter().sum();
    let scale = cfg.avg_degree * n as f64 / sum;
    for x in &mut w {
        *x *= scale;
    }
    // Cumulative distribution for endpoint sampling.
    let mut cum: Vec<f64> = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &x in &w {
        acc += x;
        cum.push(acc);
    }
    let total = acc;
    let m_target = (cfg.avg_degree * n as f64 / 2.0) as usize;
    let sample = |rng: &mut SmallRng, cum: &[f64]| -> V {
        let x = rng.gen::<f64>() * total;
        cum.partition_point(|&c| c < x).min(n - 1) as V
    };
    // Extra vertices for the planted structures (ring pocket `p` has
    // `ring_size + p * ring_growth` vertices).
    let ring_verts = cfg.ring_pockets * cfg.ring_size
        + cfg.ring_growth * (cfg.ring_pockets * cfg.ring_pockets.saturating_sub(1)) / 2;
    let extra = cfg.twin_fans * cfg.fan_size
        + cfg.tree_hubs * cfg.tree_copies * cfg.tree_size
        + ring_verts
        + cfg.mirror_classes * cfg.mirror_class_size;
    let mut b = GraphBuilder::with_capacity(n + extra, m_target + extra + n);
    for _ in 0..m_target {
        let u = sample(&mut rng, &cum);
        let v = sample(&mut rng, &cum);
        b.add_edge(u, v);
    }
    // Keep the core connected enough: chain stragglers lightly.
    for v in 1..n as V {
        if rng.gen_ratio(1, 8) {
            let u = sample(&mut rng, &cum);
            b.add_edge(v, u);
        }
    }
    let mut next = n as V;
    // Pendant twin fans: `fan_size` degree-1 twins on a random core hub.
    for _ in 0..cfg.twin_fans {
        let hub = sample(&mut rng, &cum);
        for _ in 0..cfg.fan_size {
            b.add_edge(hub, next);
            next += 1;
        }
    }
    // Duplicated hanging trees: `tree_copies` copies of one random tree
    // shape under a shared hub — symmetric siblings for the AutoTree.
    for _ in 0..cfg.tree_hubs {
        let hub = sample(&mut rng, &cum);
        // A random parent array defines the shape; all copies reuse it.
        let shape: Vec<usize> = (0..cfg.tree_size)
            .map(|i| if i == 0 { 0 } else { rng.gen_range(0..i) })
            .collect();
        for _ in 0..cfg.tree_copies {
            let base = next;
            for (i, &p) in shape.iter().enumerate() {
                if i == 0 {
                    b.add_edge(hub, base);
                } else {
                    b.add_edge(base + p as V, base + i as V);
                }
                next += 1;
            }
        }
    }
    // Ring pockets: a cycle whose every vertex is tied to one core anchor
    // (a wheel). The anchor–ring edges form a complete bipartite pair of
    // cells, so `DivideS` strips them and leaves the bare cycle — a
    // connected single-cell subgraph no divide rule can crack: exactly the
    // small non-singleton AutoTree leaves Table 3 reports for web graphs.
    for p in 0..cfg.ring_pockets {
        let anchor = sample(&mut rng, &cum);
        let base = next;
        let k = (cfg.ring_size + p * cfg.ring_growth) as V;
        for i in 0..k {
            b.add_edge(base + i, base + (i + 1) % k);
            b.add_edge(anchor, base + i);
        }
        next += k;
    }
    // Mirror hubs: each class adds `mirror_class_size` new vertices all
    // adjacent to one shared random core set — exact structural twins with
    // real influence.
    for _ in 0..cfg.mirror_classes {
        // Uniform (not weight-biased) anchor sampling keeps the classes'
        // shared neighborhoods nearly disjoint, so the greedy seed
        // selection picks one representative per class instead of
        // saturating on a single overlap region.
        let shared: Vec<V> = (0..cfg.mirror_degree)
            .map(|_| rng.gen_range(0..n) as V)
            .collect();
        for _ in 0..cfg.mirror_class_size {
            for &w in &shared {
                if w != next {
                    b.add_edge(next, w);
                }
            }
            next += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = SocialConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = SocialConfig {
            seed: 99,
            ..cfg.clone()
        };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn size_and_degree_are_plausible() {
        let cfg = SocialConfig {
            core_n: 2000,
            avg_degree: 8.0,
            ..SocialConfig::default()
        };
        let g = generate(&cfg);
        assert!(g.n() >= 2000);
        let d = g.avg_degree();
        assert!(d > 3.0 && d < 12.0, "avg degree {d}");
        // Power law: max degree far above average.
        assert!(g.max_degree() > 10 * d as usize);
    }

    #[test]
    fn ring_growth_varies_pocket_sizes() {
        let base = SocialConfig {
            core_n: 500,
            twin_fans: 0,
            tree_hubs: 0,
            ring_pockets: 5,
            ring_size: 6,
            ring_growth: 0,
            ..SocialConfig::default()
        };
        let flat = generate(&base);
        let grown = generate(&SocialConfig {
            ring_growth: 4,
            ..base.clone()
        });
        // Pocket p gains p * growth vertices: 0+4+8+12+16 = 40 extra.
        assert_eq!(grown.n(), flat.n() + 40);
        // Every pocket vertex has degree 3 (two ring neighbors + anchor),
        // so the largest pocket's last vertex exists and closes its ring.
        let last = grown.n() as V - 1;
        assert_eq!(grown.degree(last), 3);
    }

    #[test]
    fn twin_fans_create_structural_twins() {
        let cfg = SocialConfig {
            core_n: 500,
            twin_fans: 20,
            fan_size: 3,
            tree_hubs: 0,
            ring_pockets: 0,
            ..SocialConfig::default()
        };
        let g = generate(&cfg);
        // Count degree-1 vertices with a shared neighbor.
        let mut pendant_by_hub: std::collections::HashMap<V, usize> = Default::default();
        for v in 0..g.n() as V {
            if g.degree(v) == 1 {
                *pendant_by_hub.entry(g.neighbors(v)[0]).or_default() += 1;
            }
        }
        let fans = pendant_by_hub.values().filter(|&&c| c >= 3).count();
        assert!(fans >= 10, "only {fans} fans survived");
    }
}
