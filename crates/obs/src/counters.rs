//! The fixed counter catalog and its process-wide atomic storage.
//!
//! Counters are deliberately a closed enum rather than a string-keyed
//! registry: every bump is an index into a static array of relaxed
//! atomics (no hashing, no locking, no allocation), and the catalog in
//! DESIGN.md §9 stays the single source of truth for what exists.

use std::sync::atomic::{AtomicU64, Ordering};

/// One process-wide work counter. The catalog (name, unit, where it is
/// incremented) is documented in DESIGN.md §9; the variant order is the
/// reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Refinement splitters processed (`refine::Refiner`).
    RefineRounds,
    /// IR search-tree nodes visited (`canon::Search::dfs`).
    SearchNodes,
    /// IR search-tree leaves reached (`canon::Search::visit_leaf`).
    SearchLeaves,
    /// Subtrees pruned by the node invariant, `P_A`/`P_B` (`canon`).
    PrunedInvariant,
    /// Branches skipped by discovered automorphisms, `P_C` (`canon`).
    PrunedOrbit,
    /// Non-trivial automorphism generators recorded (`canon`).
    AutFound,
    /// Component divisions applied (`core::SubArena::divide_components`).
    DivideComponents,
    /// `DivideI` divisions applied (`core::SubArena::divide_i`).
    DivideIApplied,
    /// `DivideS` divisions applied (`core::SubArena::divide_s`).
    DivideSApplied,
    /// Edges deleted by applied `DivideS` divisions (`core::SubArena`).
    DivideSEdgesDeleted,
    /// Structural-equivalence twin classes collapsed
    /// (`core::simplify::dvicl_simplified`).
    TwinClassesCollapsed,
    /// `CombineCL` leaf-labeling results served from the builder's
    /// cache (`core::build`).
    CacheClHits,
    /// `CombineCL` leaf labelings computed fresh (`core::build`).
    CacheClMisses,
    /// High-water mark of subgraph-arena pool bytes, summed over builds
    /// (`core::SubArena`): each DviCL run adds its own peak, so a
    /// snapshot diff around one build reads as that build's peak.
    SubBytesPeak,
    /// Subgraph-arena segment releases that handed buffer space back for
    /// reuse by a later child (`core::SubArena`).
    ArenaReuses,
    /// SSM matcher states expanded (`core::ssm`).
    SsmStates,
    /// Budget exhaustion / cancellation trips (`govern::Budget`).
    BudgetTrips,
    /// Witness checks performed by the paranoid verifier (`core::verify`).
    VerifyChecks,
    /// Witness checks that failed — always zero on a healthy build
    /// (`core::verify`).
    VerifyFailures,
    /// Faults injected by an installed `govern::FaultPlan`.
    FaultInjections,
    /// Fingerprint-index probes: every `insert`/`lookup`/`groupsize`
    /// that consulted the fingerprint map (`dvicl-index`).
    IndexProbes,
    /// Index probes whose fingerprint bucket held an exact
    /// stored-form match (`dvicl-index`).
    IndexHits,
    /// Index probes that compared against a stored form with the same
    /// fingerprint and found it *unequal* — the 2⁻¹²⁸ hash-collision
    /// path, resolved by the exact check (`dvicl-index`).
    IndexCollisions,
    /// Builds served by a `core::Session` that reused its arena pools
    /// and CombineCL memo from an earlier build (`core::Session`).
    SessionArenaReuses,
    /// Subtree jobs spawned onto the work-stealing pool — fragments
    /// built away from their parent's call stack (`core::pool`).
    PoolTasks,
    /// Pool jobs executed by a worker other than the one that spawned
    /// them (`core::pool`). `pool_tasks - pool_steals` jobs were
    /// popped back by their owner.
    PoolSteals,
    /// Cell splits whose splitter-neighbor counts came from
    /// word-parallel `popcount(adjacency row & splitter mask)` instead
    /// of an adjacency-list scatter (`refine::Refiner`).
    RefineSplitsPopcount,
    /// Popcount-path cell splits realized by the degree-bucket radix
    /// (counting) sort instead of a comparison sort
    /// (`refine::Refiner`).
    RadixSplits,
}

/// How many counters exist (the length of [`Counter::ALL`]).
pub const NUM_COUNTERS: usize = 28;

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::RefineRounds,
        Counter::SearchNodes,
        Counter::SearchLeaves,
        Counter::PrunedInvariant,
        Counter::PrunedOrbit,
        Counter::AutFound,
        Counter::DivideComponents,
        Counter::DivideIApplied,
        Counter::DivideSApplied,
        Counter::DivideSEdgesDeleted,
        Counter::TwinClassesCollapsed,
        Counter::CacheClHits,
        Counter::CacheClMisses,
        Counter::SubBytesPeak,
        Counter::ArenaReuses,
        Counter::SsmStates,
        Counter::BudgetTrips,
        Counter::VerifyChecks,
        Counter::VerifyFailures,
        Counter::FaultInjections,
        Counter::IndexProbes,
        Counter::IndexHits,
        Counter::IndexCollisions,
        Counter::SessionArenaReuses,
        Counter::PoolTasks,
        Counter::PoolSteals,
        Counter::RefineSplitsPopcount,
        Counter::RadixSplits,
    ];

    /// The counter's stable snake_case name, as it appears in
    /// `--stats` reports and `BENCH_*.json` records.
    ///
    /// ```
    /// assert_eq!(dvicl_obs::Counter::SearchNodes.name(), "search_nodes");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            Counter::RefineRounds => "refine_rounds",
            Counter::SearchNodes => "search_nodes",
            Counter::SearchLeaves => "search_leaves",
            Counter::PrunedInvariant => "pruned_invariant",
            Counter::PrunedOrbit => "pruned_orbit",
            Counter::AutFound => "aut_found",
            Counter::DivideComponents => "divide_components",
            Counter::DivideIApplied => "divide_i_applied",
            Counter::DivideSApplied => "divide_s_applied",
            Counter::DivideSEdgesDeleted => "divide_s_edges_deleted",
            Counter::TwinClassesCollapsed => "twin_classes_collapsed",
            Counter::CacheClHits => "cache_cl_hits",
            Counter::CacheClMisses => "cache_cl_misses",
            Counter::SubBytesPeak => "sub_bytes_peak",
            Counter::ArenaReuses => "arena_reuses",
            Counter::SsmStates => "ssm_states",
            Counter::BudgetTrips => "budget_trips",
            Counter::VerifyChecks => "verify_checks",
            Counter::VerifyFailures => "verify_failures",
            Counter::FaultInjections => "fault_injections",
            Counter::IndexProbes => "index_probes",
            Counter::IndexHits => "index_hits",
            Counter::IndexCollisions => "index_collisions",
            Counter::SessionArenaReuses => "session_arena_reuses",
            Counter::PoolTasks => "pool_tasks",
            Counter::PoolSteals => "pool_steals",
            Counter::RefineSplitsPopcount => "refine_splits_popcount",
            Counter::RadixSplits => "radix_splits",
        }
    }
}

static COUNTERS: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];

/// Adds `n` to a counter: one relaxed atomic add. With the `obs-off`
/// feature this compiles to nothing.
///
/// ```
/// use dvicl_obs::{self as obs, Counter};
/// let before = obs::get(Counter::SsmStates);
/// obs::add(Counter::SsmStates, 5);
/// # #[cfg(not(feature = "obs-off"))]
/// assert_eq!(obs::get(Counter::SsmStates) - before, 5);
/// ```
#[inline]
pub fn add(c: Counter, n: u64) {
    #[cfg(not(feature = "obs-off"))]
    COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    #[cfg(feature = "obs-off")]
    let _ = (c, n);
}

/// Increments a counter by one. See [`add`].
#[inline]
pub fn bump(c: Counter) {
    add(c, 1);
}

/// The current value of one counter (monotone since process start,
/// except across [`reset_counters`]).
#[inline]
pub fn get(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// A point-in-time copy of every counter. Measure a region with two
/// snapshots and [`Snapshot::diff`]; that stays correct even when other
/// threads keep counting elsewhere in the process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; NUM_COUNTERS],
}

impl Snapshot {
    /// The snapshotted value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// The counter-wise difference `self - earlier` (saturating, so a
    /// reset between the two snapshots cannot wrap).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        Snapshot { values }
    }

    /// `(name, value)` pairs in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))
    }

    /// How many counters are non-zero in this snapshot.
    pub fn distinct_nonzero(&self) -> usize {
        self.values.iter().filter(|&&v| v > 0).count()
    }
}

/// Snapshots every counter.
///
/// ```
/// use dvicl_obs::{self as obs, Counter};
/// let a = obs::snapshot();
/// obs::bump(Counter::AutFound);
/// let d = obs::snapshot().diff(&a);
/// # #[cfg(not(feature = "obs-off"))]
/// assert_eq!(d.get(Counter::AutFound), 1);
/// assert_eq!(d.get(Counter::RefineRounds), 0);
/// ```
pub fn snapshot() -> Snapshot {
    let mut values = [0u64; NUM_COUNTERS];
    for (i, v) in values.iter_mut().enumerate() {
        *v = COUNTERS[i].load(Ordering::Relaxed);
    }
    Snapshot { values }
}

/// Zeroes every counter. Test/benchmark helper only — see
/// [`crate::reset`].
pub fn reset_counters() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_snake_case_and_unique() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        for n in &names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{n}"
            );
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names.len(), NUM_COUNTERS);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn add_and_diff_round_trip() {
        let before = snapshot();
        add(Counter::DivideComponents, 7);
        bump(Counter::DivideComponents);
        let d = snapshot().diff(&before);
        assert_eq!(d.get(Counter::DivideComponents), 8);
        assert!(d.distinct_nonzero() >= 1);
    }
}
