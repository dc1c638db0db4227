//! Reusable build sessions: one [`Session`] serves many graphs.
//!
//! The one-shot entry points ([`crate::build_autotree`] and friends)
//! allocate a fresh subgraph arena and a fresh `CombineCL` memo per
//! call — fine for a single graph, wasteful for a corpus. A `Session`
//! owns that working state (`build::Scratch`) across builds:
//!
//! * **arena pools** — `SubArena::reset` empties the segments but keeps
//!   every buffer's capacity, so the second and every later build runs
//!   allocation-free through the divide recursion (counted by the
//!   `session_arena_reuses` counter);
//! * **`CombineCL` memo** — leaf labelings are keyed injectively by
//!   exactly the input the IR engine sees, so symmetric leaves recur
//!   *across* graphs (chemical datasets are full of repeated fragments)
//!   and hit the memo just like symmetric siblings within one graph;
//! * **options** — the session pins one [`DviclOptions`]; the memo is
//!   implicitly keyed to `leaf_config`, so [`Session::set_options`]
//!   clears it when the engine configuration changes.
//!
//! What a session does *not* own: the obs sink is process-wide
//! (install one with `obs::install`), and the counters and phase table
//! belong to the thread that runs the build, so one `Session` per
//! thread also gets its own counts (a serving loop diffs
//! `obs::snapshot()` around each request). Resource limits
//! arrive as a per-request [`Budget`] — admission control belongs to
//! the caller, one allowance per query, so one hostile request trips
//! its own typed error instead of starving the whole service.

use crate::build::{
    self, build_autotree_resilient_in, try_build_autotree_in, BuildOutcome, DviclOptions,
};
use crate::tree::AutoTree;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{CanonForm, Coloring, Fingerprint, Graph};
use dvicl_obs::{self as obs, Counter};

/// A reusable build context: [`DviclOptions`] plus the arena pools and
/// `CombineCL` memo shared by every build it serves. See the module
/// docs for what is reused and why that is sound.
///
/// ```
/// use dvicl_core::{DviclOptions, Session};
/// use dvicl_graph::named;
/// let mut session = Session::new(DviclOptions::default());
/// let a = session.canonical_form(&named::petersen());
/// let b = session.canonical_form(&named::petersen());
/// assert_eq!(a, b);
/// assert_eq!(session.builds(), 2);
/// ```
pub struct Session {
    opts: DviclOptions,
    scratch: build::Scratch,
    builds: u64,
}

impl Session {
    /// A fresh session pinned to `opts`.
    pub fn new(opts: DviclOptions) -> Session {
        Session {
            opts,
            scratch: build::Scratch::new(),
            builds: 0,
        }
    }

    /// The options every build of this session runs under.
    pub fn options(&self) -> &DviclOptions {
        &self.opts
    }

    /// Repins the session to `opts`. The `CombineCL` memo is keyed to
    /// the leaf engine configuration, so it is dropped when
    /// `leaf_config` differs from the current one; arena capacity is
    /// always kept.
    pub fn set_options(&mut self, opts: DviclOptions) {
        if opts.leaf_config != self.opts.leaf_config {
            self.scratch.clear_memo();
        }
        self.opts = opts;
    }

    /// How many builds this session has served (degraded fallbacks
    /// count as part of the build that triggered them, not separately).
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Number of memoized `CombineCL` leaf labelings currently held.
    pub fn memo_len(&self) -> usize {
        self.scratch.memo_len()
    }

    /// Drops every memoized leaf labeling (the memo is sound across
    /// builds, so this is for memory pressure, not correctness).
    pub fn clear_memo(&mut self) {
        self.scratch.clear_memo();
    }

    /// Bookkeeping around every build: from the second build on, the
    /// arena pools (and possibly the memo) are being reused.
    fn note_build(&mut self) {
        if self.builds > 0 {
            obs::bump(Counter::SessionArenaReuses);
        }
        self.builds += 1;
    }

    /// [`crate::try_build_autotree`] with this session's state. The
    /// produced tree is byte-identical to the one-shot entry point's:
    /// reuse changes where the working memory comes from, never the
    /// certificate.
    pub fn try_build(
        &mut self,
        g: &Graph,
        pi0: &Coloring,
        budget: &Budget,
    ) -> Result<AutoTree, DviclError> {
        self.note_build();
        try_build_autotree_in(&mut self.scratch, g, pi0, &self.opts, budget)
    }

    /// [`Session::try_build`] under an unlimited budget.
    #[expect(
        clippy::expect_used,
        reason = "Budget::unlimited() never exhausts, so the Err arm is unreachable"
    )]
    pub fn build(&mut self, g: &Graph, pi0: &Coloring) -> AutoTree {
        self.try_build(g, pi0, &Budget::unlimited())
            .expect("an unlimited build cannot exceed its budget")
    }

    /// [`crate::build_autotree_resilient`] with this session's state:
    /// work-cap exhaustion degrades to a whole-graph leaf instead of
    /// failing.
    pub fn build_resilient(
        &mut self,
        g: &Graph,
        pi0: &Coloring,
        budget: &Budget,
    ) -> Result<BuildOutcome, DviclError> {
        self.note_build();
        build_autotree_resilient_in(&mut self.scratch, g, pi0, &self.opts, budget)
    }

    /// Canonically labels `g` under the unit coloring and returns the
    /// owned certificate. The budgeted equivalent of
    /// [`crate::canonical_form`], served from session state.
    pub fn try_canonical_form(
        &mut self,
        g: &Graph,
        budget: &Budget,
    ) -> Result<CanonForm, DviclError> {
        let tree = self.try_build(g, &Coloring::unit(g.n()), budget)?;
        Ok(tree.canonical_form().to_form())
    }

    /// [`Session::try_canonical_form`] under an unlimited budget.
    #[expect(
        clippy::expect_used,
        reason = "Budget::unlimited() never exhausts, so the Err arm is unreachable"
    )]
    pub fn canonical_form(&mut self, g: &Graph) -> CanonForm {
        self.try_canonical_form(g, &Budget::unlimited())
            .expect("an unlimited build cannot exceed its budget")
    }

    /// One canonicalization, one fingerprint: the probe key for
    /// `dvicl-index` lookups, plus the form itself for the exact
    /// collision check.
    pub fn try_fingerprinted_form(
        &mut self,
        g: &Graph,
        budget: &Budget,
    ) -> Result<(Fingerprint, CanonForm), DviclError> {
        let form = self.try_canonical_form(g, budget)?;
        Ok((Fingerprint::of_form(&form), form))
    }

    /// [`Session::try_fingerprinted_form`] under an unlimited budget.
    #[expect(
        clippy::expect_used,
        reason = "Budget::unlimited() never exhausts, so the Err arm is unreachable"
    )]
    pub fn fingerprinted_form(&mut self, g: &Graph) -> (Fingerprint, CanonForm) {
        self.try_fingerprinted_form(g, &Budget::unlimited())
            .expect("an unlimited build cannot exceed its budget")
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new(DviclOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_canon::Config;
    use dvicl_govern::Resource;
    use dvicl_graph::named;

    #[test]
    fn session_forms_match_one_shot_forms() {
        let mut s = Session::new(DviclOptions::default());
        for g in [
            named::fig1_example(),
            named::petersen(),
            named::rary_tree(2, 3),
            named::complete_bipartite(3, 4),
            named::frucht(),
            named::cycle(9),
        ] {
            assert_eq!(s.canonical_form(&g), crate::canonical_form(&g));
        }
        assert_eq!(s.builds(), 6);
    }

    #[test]
    fn session_trees_match_one_shot_trees() {
        // Not just the root form: generators and tree shape too.
        let mut s = Session::default();
        for g in [named::fig1_example(), named::hypercube(3)] {
            let pi = Coloring::unit(g.n());
            let st = s.build(&g, &pi);
            let ot = crate::build_autotree(&g, &pi, &DviclOptions::default());
            assert_eq!(st.canonical_form(), ot.canonical_form());
            assert_eq!(st.stats(), ot.stats());
            assert_eq!(
                crate::aut::group_order(&st).to_u64(),
                crate::aut::group_order(&ot).to_u64()
            );
        }
    }

    #[test]
    fn arena_reuse_is_counted() {
        let mut s = Session::default();
        let before = obs::snapshot();
        s.canonical_form(&named::petersen());
        s.canonical_form(&named::frucht());
        s.canonical_form(&named::cycle(12));
        let d = obs::snapshot().diff(&before);
        assert_eq!(s.builds(), 3);
        assert_eq!(d.get(Counter::SessionArenaReuses), 2);
    }

    #[test]
    fn memo_survives_builds_but_not_config_changes() {
        let mut s = Session::default();
        // K4 plus a pendant path divides into leaves that hit the memo.
        let g = named::fig1_example();
        s.canonical_form(&g);
        let after_first = s.memo_len();
        s.canonical_form(&g);
        assert_eq!(
            s.memo_len(),
            after_first,
            "identical rebuild must be served from the memo"
        );
        // Same leaf_config → memo kept.
        s.set_options(DviclOptions {
            use_divide_s: false,
            ..DviclOptions::default()
        });
        assert_eq!(s.memo_len(), after_first);
        // Different leaf_config → memo dropped.
        s.set_options(DviclOptions {
            leaf_config: Config::traces_like(),
            ..DviclOptions::default()
        });
        assert_eq!(s.memo_len(), 0);
    }

    #[test]
    fn per_request_budget_failure_leaves_session_usable() {
        let mut s = Session::default();
        let g = named::fig1_example();
        let r = s.try_build(&g, &Coloring::unit(g.n()), &Budget::with_max_work(3));
        assert!(matches!(
            r,
            Err(DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            })
        ));
        // The failed request must not poison later ones.
        assert_eq!(s.canonical_form(&g), crate::canonical_form(&g));
    }

    #[test]
    fn resilient_and_whole_leaf_match_one_shot() {
        let mut s = Session::default();
        let g = named::fig1_example();
        let pi = Coloring::unit(g.n());
        let out = s
            .build_resilient(&g, &pi, &Budget::with_max_work(3))
            .expect("degradation absorbs work exhaustion");
        assert!(out.degraded);
        let direct = crate::build_autotree_whole_leaf(
            &g,
            &pi,
            &DviclOptions::default(),
            &Budget::unlimited(),
        )
        .expect("unlimited");
        assert_eq!(out.tree.canonical_form(), direct.canonical_form());
    }

    #[test]
    fn fingerprinted_form_is_consistent() {
        let mut s = Session::default();
        let (fp, form) = s
            .try_fingerprinted_form(&named::petersen(), &Budget::unlimited())
            .expect("unlimited");
        assert_eq!(fp, Fingerprint::of_form(&form));
        let (fp2, _) = s
            .try_fingerprinted_form(&named::petersen(), &Budget::unlimited())
            .expect("unlimited");
        assert_eq!(fp, fp2);
    }
}
