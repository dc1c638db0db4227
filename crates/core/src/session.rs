//! Reusable build sessions: one [`Session`] serves many graphs.
//!
//! The one-shot entry points ([`crate::try_build_autotree`] and friends)
//! allocate a fresh subgraph arena, refiner and combine arrays per
//! call — fine for a single graph, wasteful for a corpus. A `Session`
//! owns that working state (`build::Scratch`) across builds:
//!
//! * **arena pools** — `SubArena::reset` empties the segments but keeps
//!   every buffer's capacity, so the second and every later build runs
//!   allocation-free through the divide recursion (counted by the
//!   `session_arena_reuses` counter);
//! * **refiner and combine arrays** — the root refinement, every leaf
//!   search and every `CombineST` run in buffers sized by earlier builds;
//! * **options** — the session is pinned to one [`DviclOptions`] for
//!   its whole life.
//!
//! None of these holds a result: a session's memory is bounded by the
//! largest graph it has built, however many builds it serves.
//!
//! What a session does *not* own: the counters and phase table belong
//! to the thread that runs the build, so one `Session` per thread also
//! gets its own counts (a serving loop diffs `obs::snapshot()` around
//! each request), and reporting them is the caller's job: a build
//! writes no observability output. Resource limits
//! arrive as a per-request [`Budget`] — admission control belongs to
//! the caller, one allowance per query, so one hostile request trips
//! its own typed error instead of starving the whole service.

use crate::build::{self, run_build, DviclOptions};
use crate::tree::AutoTree;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{CanonForm, Coloring, Fingerprint, Graph};
use dvicl_obs::{self as obs, Counter};

/// A reusable build context: [`DviclOptions`] plus the working buffers
/// shared by every build it serves. See the module docs for what is
/// reused.
///
/// ```
/// use dvicl_core::{Budget, DviclOptions, Session};
/// use dvicl_graph::named;
/// let mut session = Session::new(DviclOptions::default());
/// let unlimited = Budget::unlimited();
/// let a = session.try_canonical_form(&named::petersen(), &unlimited)?;
/// let b = session.try_canonical_form(&named::petersen(), &unlimited)?;
/// assert_eq!(a, b);
/// assert_eq!(session.builds(), 2);
/// # Ok::<(), dvicl_core::DviclError>(())
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

    /// How many builds this session has served.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Bookkeeping around every build: from the second build on, the
    /// arena pools are being reused.
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
        run_build(&mut self.scratch, g, pi0, &self.opts, budget)
    }

    /// [`Session::try_build`] under an unlimited budget. Panics where that
    /// errs: on a coloring of another size.
    #[expect(
        clippy::expect_used,
        reason = "an unlimited budget never exhausts, so only a coloring of another size can reach the Err arm, as the doc comment states"
    )]
    pub fn build(&mut self, g: &Graph, pi0: &Coloring) -> AutoTree {
        self.try_build(g, pi0, &Budget::unlimited())
            .expect("an unlimited build cannot exceed its budget")
    }

    /// Canonically labels `g` under the unit coloring and returns the
    /// owned certificate, served from session state.
    pub fn try_canonical_form(
        &mut self,
        g: &Graph,
        budget: &Budget,
    ) -> Result<CanonForm, DviclError> {
        let tree = self.try_build(g, &Coloring::unit(g.n()), budget)?;
        Ok(tree.canonical_form().to_form())
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
}

impl Default for Session {
    fn default() -> Session {
        Session::new(DviclOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_govern::Resource;
    use dvicl_graph::named;

    /// `s`'s certificate of `g` under the unit coloring.
    fn form(s: &mut Session, g: &Graph) -> CanonForm {
        s.try_canonical_form(g, &Budget::unlimited())
            .expect("unlimited")
    }

    /// The one-shot certificate of `g` under the unit coloring.
    fn one_shot_form(g: &Graph) -> CanonForm {
        crate::build::tree_of(g).canonical_form().to_form()
    }

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
            assert_eq!(form(&mut s, &g), one_shot_form(&g));
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
            let ot = crate::build::tree_of(&g);
            assert_eq!(st.canonical_form(), ot.canonical_form());
            assert_eq!(st.stats(), ot.stats());
            let unlimited = Budget::unlimited();
            assert_eq!(
                crate::aut::try_group_order(&st, &unlimited).unwrap(),
                crate::aut::try_group_order(&ot, &unlimited).unwrap()
            );
        }
    }

    #[test]
    fn arena_reuse_is_counted() {
        let mut s = Session::default();
        let before = obs::snapshot();
        form(&mut s, &named::petersen());
        form(&mut s, &named::frucht());
        form(&mut s, &named::cycle(12));
        let d = obs::snapshot().diff(&before);
        assert_eq!(s.builds(), 3);
        assert_eq!(d.get(Counter::SessionArenaReuses), 2);
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
        assert_eq!(form(&mut s, &g), one_shot_form(&g));
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
