//! The fixed counter catalog and its per-thread storage.
//!
//! Counters are deliberately a closed enum rather than a string-keyed
//! registry: every bump is an index into a thread-local array of plain
//! cells (no hashing, no locking, no atomic read-modify-write, no
//! allocation). Each thread counts only its own work, so a
//! [`snapshot`] diff taken on the thread that did a unit of work is
//! that unit's count, whatever other threads run meanwhile. One
//! [`catalog!`](crate::catalog) list declares each counter's variant and
//! name, so `Counter::ALL`, `Counter::name` and [`NUM_COUNTERS`] agree by
//! construction.

use std::cell::Cell;

crate::catalog! {
    /// One per-thread work counter. The catalog (name, unit, where it
    /// is incremented) is documented in DESIGN.md §9; the variant order
    /// is the reporting order, and each name is the counter's stable
    /// snake_case key in `--stats` reports and `BENCH_*.json` records.
    ///
    /// ```
    /// assert_eq!(dvicl_obs::Counter::SearchNodes.name(), "search_nodes");
    /// ```
    ///
    /// A counter outside the catalog does not compile:
    ///
    /// ```compile_fail,E0599
    /// dvicl_obs::bump(dvicl_obs::Counter::SearchNode);
    /// ```
    #[repr(usize)]
    pub enum Counter {
        /// Refinement splitters processed (`refine::Refiner`).
        RefineRounds = "refine_rounds",
        /// IR search-tree nodes visited (`canon::Search::dfs`).
        SearchNodes = "search_nodes",
        /// IR search-tree leaves reached (`canon::Search::visit_leaf`).
        SearchLeaves = "search_leaves",
        /// Subtrees pruned by the node invariant, `P_A`/`P_B` (`canon`).
        PrunedInvariant = "pruned_invariant",
        /// Branches skipped by discovered automorphisms, `P_C` (`canon`).
        PrunedOrbit = "pruned_orbit",
        /// Non-trivial automorphism generators recorded (`canon`).
        AutFound = "aut_found",
        /// Component divisions applied (`core::SubArena::divide_components`).
        DivideComponents = "divide_components",
        /// `DivideI` divisions applied (`core::SubArena::divide_i`).
        DivideIApplied = "divide_i_applied",
        /// `DivideS` divisions applied (`core::SubArena::divide_s`).
        DivideSApplied = "divide_s_applied",
        /// Edges deleted by applied `DivideS` divisions (`core::SubArena`).
        DivideSEdgesDeleted = "divide_s_edges_deleted",
        /// Structural-equivalence twin classes collapsed
        /// (`core::simplify::try_dvicl_simplified`).
        TwinClassesCollapsed = "twin_classes_collapsed",
        /// Retired, bumped by nothing: it counted hits of the deleted
        /// `CombineCL` memo. It stays in the catalog only because the
        /// benchmark's trace report (`benchmark/src/trace.rs`) names it.
        CacheClHits = "cache_cl_hits",
        /// Retired, bumped by nothing: it counted misses of the deleted
        /// `CombineCL` memo. It stays in the catalog only because the
        /// benchmark's trace report (`benchmark/src/trace.rs`) names it.
        CacheClMisses = "cache_cl_misses",
        /// High-water mark of subgraph-arena pool bytes, summed over builds
        /// (`core::SubArena`): each DviCL run adds its own peak, so a
        /// snapshot diff around one build reads as that build's peak.
        SubBytesPeak = "sub_bytes_peak",
        /// Subgraph-arena segment releases that handed buffer space back for
        /// reuse by a later child (`core::SubArena`).
        ArenaReuses = "arena_reuses",
        /// SSM matcher states expanded (`core::ssm`).
        SsmStates = "ssm_states",
        /// Budget exhaustion / cancellation trips (`govern::Budget`).
        BudgetTrips = "budget_trips",
        /// Witness checks performed by the paranoid verifier (`core::verify`).
        VerifyChecks = "verify_checks",
        /// Witness checks that failed — always zero on a healthy build
        /// (`core::verify`).
        VerifyFailures = "verify_failures",
        /// Fingerprint-index probes: every `insert`/`lookup`/`groupsize`
        /// that consulted the fingerprint map (`dvicl-index`).
        IndexProbes = "index_probes",
        /// Index probes whose fingerprint bucket held an exact
        /// stored-form match (`dvicl-index`).
        IndexHits = "index_hits",
        /// Index probes that compared against a stored form with the same
        /// fingerprint and found it *unequal* — the 2⁻¹²⁸ hash-collision
        /// path, resolved by the exact check (`dvicl-index`).
        IndexCollisions = "index_collisions",
        /// Builds served by a `core::Session` that reused its arena pools
        /// from an earlier build (`core::Session`).
        SessionArenaReuses = "session_arena_reuses",
        /// Cell splits whose splitter-neighbor counts came from
        /// word-parallel `popcount(adjacency row & splitter mask)` instead
        /// of an adjacency-list scatter (`refine::Refiner`).
        RefineSplitsPopcount = "refine_splits_popcount",
        /// Popcount-path cell splits realized by the degree-bucket radix
        /// (counting) sort instead of a comparison sort
        /// (`refine::Refiner`).
        RadixSplits = "radix_splits",
    }
}

/// How many counters exist (the length of [`Counter::ALL`]).
pub const NUM_COUNTERS: usize = Counter::ALL.len();

thread_local! {
    static COUNTERS: [Cell<u64>; NUM_COUNTERS] = const { [const { Cell::new(0) }; NUM_COUNTERS] };
}

/// Adds `n` to one of the calling thread's counters: a plain add.
///
/// ```
/// use dvicl_obs::{self as obs, Counter};
/// let before = obs::get(Counter::SsmStates);
/// obs::add(Counter::SsmStates, 5);
/// assert_eq!(obs::get(Counter::SsmStates) - before, 5);
/// ```
#[inline]
pub fn add(c: Counter, n: u64) {
    COUNTERS.with(|cs| {
        let cell = &cs[c as usize];
        cell.set(cell.get() + n);
    });
}

/// Increments a counter by one. See [`add`].
#[inline]
pub fn bump(c: Counter) {
    add(c, 1);
}

/// The current value of one of the calling thread's counters (monotone
/// since the thread started).
#[inline]
pub fn get(c: Counter) -> u64 {
    COUNTERS.with(|cs| cs[c as usize].get())
}

/// A point-in-time copy of every counter of one thread. Measure a
/// region with two snapshots on the thread that runs it and
/// [`Snapshot::diff`]; work on other threads never shows in the diff.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; NUM_COUNTERS],
}

impl Snapshot {
    /// The snapshotted value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// The counter-wise difference `self - earlier` (saturating, so
    /// snapshots passed in the wrong order cannot wrap).
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
}

/// Snapshots every counter of the calling thread.
///
/// ```
/// use dvicl_obs::{self as obs, Counter};
/// let a = obs::snapshot();
/// obs::bump(Counter::AutFound);
/// let d = obs::snapshot().diff(&a);
/// assert_eq!(d.get(Counter::AutFound), 1);
/// assert_eq!(d.get(Counter::RefineRounds), 0);
/// ```
pub fn snapshot() -> Snapshot {
    COUNTERS.with(|cs| Snapshot {
        values: cs.each_ref().map(Cell::get),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_snake_case_and_unique() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        for n in &names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{n}"
            );
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names.len(), NUM_COUNTERS);
    }

    #[test]
    fn add_and_diff_round_trip() {
        let before = snapshot();
        add(Counter::DivideComponents, 7);
        bump(Counter::DivideComponents);
        let d = snapshot().diff(&before);
        assert_eq!(d.get(Counter::DivideComponents), 8);
        assert_eq!(d.iter().filter(|&(_, v)| v > 0).count(), 1);
    }
}
