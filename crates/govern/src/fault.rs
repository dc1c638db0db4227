//! Deterministic fault injection: the [`FaultPlan`] and its
//! [`checkpoint`] hooks.
//!
//! Every recovery path in the pipeline — budget trips, the whole-graph
//! fallback, arena unwinding, parser error returns — is code that only
//! runs when something goes wrong, which means it is exactly the code
//! ordinary tests never execute. A `FaultPlan` makes "something goes
//! wrong" reproducible: it names a checkpoint site and an ordinal, and
//! the `k`-th time execution reaches that site the plan injects a typed
//! failure ([`DviclError::BudgetExceeded`], [`DviclError::Cancelled`],
//! or a [`DviclError::Parse`]) precisely there.
//!
//! The plan is configured from a spec string (CLI `--fault-plan`, env
//! `DVICL_FAULT_PLAN`): a comma-separated list of arms, each
//! `<action>@<site>:<k>` —
//!
//! * `action` — `trip` (work-cap exhaustion), `cancel` (cooperative
//!   cancellation), `alloc` (arena memory-ceiling hit), or `parse`
//!   (truncated-input parser failure);
//! * `site` — a checkpoint name (`govern.spend`, `core.build_node`,
//!   ...: a [`Site`], mapped in DESIGN.md §11) or `*` for "any
//!   checkpoint"; an unknown name is an invalid-input error;
//! * `k` — the 1-based hit ordinal at which the arm fires, counted per
//!   site (or across all sites for `*`). Each arm fires exactly once.
//!
//! A plan is installed on the calling thread: it counts and injects at
//! that thread's checkpoints only, so a pipeline run on another thread
//! is untouched by it. With no plan installed a [`checkpoint`] call is
//! a single thread-local load — the hooks are free in production. With
//! a plan installed every hit is also *counted*, which is how the
//! fault-sweep harness discovers the checkpoint space: install an empty
//! plan, run the pipeline once, read [`hit_counts`], then enumerate
//! `(site, k)` injection points from the observed totals.

use crate::error::{DviclError, ParseError, ParseErrorKind, Resource};
use std::cell::{Cell, RefCell};

dvicl_obs::catalog! {
    /// A fault checkpoint site: one named place in the pipeline where an
    /// installed [`FaultPlan`] can inject a failure. The list is the
    /// registry (DESIGN.md §11 maps each site), in name order: a
    /// checkpoint call names a variant, so an unregistered site does not
    /// compile, and `tests/checkpoint_registry.rs` checks that a probe
    /// run reaches every variant.
    ///
    /// ```compile_fail,E0599
    /// dvicl_govern::fault::checkpoint(dvicl_govern::fault::Site::CoreGhost)?;
    /// # Ok::<(), dvicl_govern::DviclError>(())
    /// ```
    ///
    /// ```compile_fail,E0308
    /// dvicl_govern::fault::checkpoint("core.build_node")?;
    /// # Ok::<(), dvicl_govern::DviclError>(())
    /// ```
    pub enum Site {
        /// Each IR search-tree node (`canon::Search::dfs`).
        CanonDfs = "canon.dfs",
        /// Each child carve of the AutoTree build (`core::build`).
        CoreArenaCarve = "core.arena_carve",
        /// Each AutoTree node built (`core::build`).
        CoreBuildNode = "core.build_node",
        /// Each non-singleton leaf labeled by IR search (`core::build`).
        CoreLeafIr = "core.leaf_ir",
        /// Each symmetric-subgraph-matching query (`core::ssm`).
        CoreSsm = "core.ssm",
        /// Each budgeted work unit (`Budget::spend`).
        GovernSpend = "govern.spend",
        /// Each edge-list line parsed (`graph::io`).
        GraphEdgeLine = "graph.edge_line",
        /// Each graph6 string decoded (`graph::graph6`).
        GraphGraph6 = "graph.graph6",
        /// Each fingerprint-index insert (`dvicl-index`).
        IndexInsert = "index.insert",
        /// Each fingerprint-index load (`dvicl-index`).
        IndexLoad = "index.load",
        /// Each individualize-and-refine step (`refine`).
        RefineIndividualize = "refine.individualize",
        /// Each refinement run (`refine`).
        RefineRefine = "refine.refine",
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which typed failure an arm injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Work-cap exhaustion: `BudgetExceeded { resource: WorkUnits }`.
    Trip,
    /// Cooperative cancellation: `Cancelled`.
    Cancel,
    /// Arena memory-ceiling hit: `BudgetExceeded { resource: Memory }`.
    Alloc,
    /// Parser failure: `Parse` with [`ParseErrorKind::Truncated`].
    Parse,
}

impl FaultAction {
    /// The spec-string name of this action.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Trip => "trip",
            FaultAction::Cancel => "cancel",
            FaultAction::Alloc => "alloc",
            FaultAction::Parse => "parse",
        }
    }

    fn to_error(self, site: Site, hit: u64) -> DviclError {
        match self {
            FaultAction::Trip => DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                spent: hit,
            },
            FaultAction::Cancel => DviclError::Cancelled,
            FaultAction::Alloc => DviclError::BudgetExceeded {
                resource: Resource::Memory,
                spent: hit,
            },
            FaultAction::Parse => DviclError::Parse(ParseError::new(
                ParseErrorKind::Truncated,
                format!("injected fault at {site}"),
            )),
        }
    }
}

/// One arm of a plan: inject `action` at the `k`-th hit of `site`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultArm {
    /// The failure to inject.
    pub action: FaultAction,
    /// The checkpoint site this arm watches; `None` (spec `*`) watches
    /// every site.
    pub site: Option<Site>,
    /// The 1-based hit ordinal at which to fire.
    pub k: u64,
}

impl FaultArm {
    fn parse(spec: &str) -> Result<FaultArm, DviclError> {
        let bad = || {
            DviclError::invalid(format!(
                "invalid fault arm '{spec}' (expected <action>@<site>:<k>)"
            ))
        };
        let (action, rest) = spec.split_once('@').ok_or_else(bad)?;
        let (site, k) = rest.rsplit_once(':').ok_or_else(bad)?;
        let action = match action.trim() {
            "trip" => FaultAction::Trip,
            "cancel" => FaultAction::Cancel,
            "alloc" => FaultAction::Alloc,
            "parse" => FaultAction::Parse,
            other => {
                return Err(DviclError::invalid(format!(
                    "invalid fault action '{other}' (expected trip, cancel, alloc, or parse)"
                )))
            }
        };
        let site = match site.trim() {
            "" => return Err(bad()),
            "*" => None,
            name => Some(
                Site::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| unknown_site(name))?,
            ),
        };
        let k: u64 = k.trim().parse().map_err(|_| bad())?;
        if k == 0 {
            return Err(DviclError::invalid(format!(
                "invalid fault arm '{spec}': hit ordinal is 1-based, k must be >= 1"
            )));
        }
        Ok(FaultArm { action, site, k })
    }
}

fn unknown_site(name: &str) -> DviclError {
    let valid: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
    DviclError::invalid(format!(
        "unknown fault site '{name}' (expected one of: {}, or * for any site)",
        valid.join(", ")
    ))
}

/// A parsed fault-injection plan: zero or more [`FaultArm`]s.
///
/// An empty plan injects nothing but still counts checkpoint hits —
/// that is probe mode, used by the sweep harness to discover how many
/// injection points a given workload exposes.
///
/// ```
/// use dvicl_govern::{FaultAction, FaultPlan};
/// let plan = FaultPlan::parse("trip@govern.spend:3, cancel@*:10").unwrap();
/// assert_eq!(plan.arms.len(), 2);
/// assert_eq!(plan.arms[0].action, FaultAction::Trip);
/// assert_eq!(plan.arms[1].site, None);
/// assert!(FaultPlan::parse("explode@govern.spend:1").is_err());
/// assert!(FaultPlan::parse("trip@govern.spnd:1").is_err());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The arms, in spec order. Earlier arms win when several match the
    /// same hit.
    pub arms: Vec<FaultArm>,
}

impl FaultPlan {
    /// An empty (probe-mode) plan: counts hits, injects nothing.
    pub fn probe() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single-arm plan — the sweep harness builds these in a loop.
    pub fn one(action: FaultAction, site: Site, k: u64) -> FaultPlan {
        FaultPlan {
            arms: vec![FaultArm {
                action,
                site: Some(site),
                k,
            }],
        }
    }

    /// Parses a spec string: comma-separated `<action>@<site>:<k>` arms.
    /// An empty (or all-whitespace) spec is the probe plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, DviclError> {
        let mut arms = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            arms.push(FaultArm::parse(part)?);
        }
        Ok(FaultPlan { arms })
    }
}

/// An installed plan and its state: hit counts per site (indexed by
/// `Site as usize`), the cross-site total (what `*` arms count
/// against), and which arms have already fired.
#[derive(Debug)]
struct Installed {
    plan: FaultPlan,
    counts: [u64; Site::ALL.len()],
    total: u64,
    fired: Vec<bool>,
}

impl Installed {
    /// Counts one hit of `site` and returns the action and hit ordinal
    /// of the first unfired arm it triggers, marking that arm fired.
    fn hit(&mut self, site: Site) -> Option<(FaultAction, u64)> {
        self.total += 1;
        self.counts[site as usize] += 1;
        let site_hits = self.counts[site as usize];
        for (arm, fired) in self.plan.arms.iter().zip(&mut self.fired) {
            let hit = match arm.site {
                None => self.total,
                Some(s) if s == site => site_hits,
                Some(_) => continue,
            };
            if !*fired && hit == arm.k {
                *fired = true;
                return Some((arm.action, hit));
            }
        }
        None
    }
}

thread_local! {
    /// Whether this thread has a plan installed: the checkpoint fast
    /// path reads this and nothing else.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static PLAN: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Installs `plan` on the calling thread, replacing any previous plan
/// there and resetting all hit counts. The thread's checkpoints start
/// counting (and possibly injecting) immediately; other threads' do
/// not.
pub fn install(plan: FaultPlan) {
    let fired = vec![false; plan.arms.len()];
    PLAN.set(Some(Installed {
        plan,
        counts: [0; Site::ALL.len()],
        total: 0,
        fired,
    }));
    ACTIVE.set(true);
}

/// Removes the calling thread's plan; its checkpoints return to their
/// free fast path.
pub fn clear() {
    ACTIVE.set(false);
    PLAN.set(None);
}

/// Whether a plan is currently installed on the calling thread (probe
/// or injecting).
pub fn is_active() -> bool {
    ACTIVE.get()
}

/// Installs a plan from the `DVICL_FAULT_PLAN` environment variable, if
/// set, on the calling thread. Returns `Ok(true)` when a plan was
/// installed, `Ok(false)` when the variable is absent, and a typed
/// error for a malformed spec.
pub fn install_from_env() -> Result<bool, DviclError> {
    match std::env::var("DVICL_FAULT_PLAN") {
        Ok(spec) => {
            install(FaultPlan::parse(&spec)?);
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

/// The calling thread's per-site checkpoint hit counts since the last
/// [`install`], in site name order, for the sites hit at least once.
/// Empty when no plan is installed.
pub fn hit_counts() -> Vec<(Site, u64)> {
    PLAN.with_borrow(|plan| match plan {
        Some(inst) => Site::ALL
            .into_iter()
            .zip(inst.counts)
            .filter(|&(_, c)| c > 0)
            .collect(),
        None => Vec::new(),
    })
}

/// A named fault-injection point. Free (one thread-local load) unless a
/// plan is installed on the calling thread; with a plan installed,
/// counts the hit and injects the matching arm's typed error, if any.
/// The checkpoint map lives in DESIGN.md §11.
#[inline]
pub fn checkpoint(site: Site) -> Result<(), DviclError> {
    if !ACTIVE.get() {
        return Ok(());
    }
    checkpoint_slow(site)
}

#[cold]
#[inline(never)]
fn checkpoint_slow(site: Site) -> Result<(), DviclError> {
    match PLAN.with_borrow_mut(|plan| plan.as_mut().and_then(|inst| inst.hit(site))) {
        Some((action, hit)) => {
            report_injection(site, action, hit);
            Err(action.to_error(site, hit))
        }
        None => Ok(()),
    }
}

/// Reports an injected fault to the observability layer. Off the hot
/// path — this runs at most once per arm per installation.
#[cold]
#[inline(never)]
fn report_injection(site: Site, action: FaultAction, hit: u64) {
    dvicl_obs::bump(dvicl_obs::Counter::FaultInjections);
    dvicl_obs::emit(
        "fault_injected",
        &[
            ("site", dvicl_obs::Value::Str(site.name().to_string())),
            ("action", dvicl_obs::Value::Str(action.name().to_string())),
            ("hit", dvicl_obs::Value::U64(hit)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar_and_rejects_garbage() {
        let plan = FaultPlan::parse(" trip@core.build_node:2 ,parse@graph.edge_line:1").unwrap();
        assert_eq!(plan.arms.len(), 2);
        assert_eq!(plan.arms[0].k, 2);
        assert_eq!(plan.arms[1].action, FaultAction::Parse);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::probe());
        for bad in [
            "trip",
            "trip@canon.dfs",
            "trip@canon.dfs:zero",
            "trip@:1",
            "trip@canon.dfs:0",
            "explode@canon.dfs:1",
            "trip@canon.dfs:1,,oops",
            "trip@index.insrt:1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} gave {err:?}");
        }
    }

    #[test]
    fn unknown_site_error_lists_every_valid_site() {
        let err = FaultPlan::parse("trip@index.insrt:1").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown fault site 'index.insrt'"), "{msg}");
        for site in Site::ALL {
            assert!(msg.contains(site.name()), "{msg} omits {site}");
        }
        assert_eq!(
            FaultPlan::parse("cancel@index.insert:2").unwrap(),
            FaultPlan::one(FaultAction::Cancel, Site::IndexInsert, 2)
        );
    }

    #[test]
    fn checkpoint_is_free_without_a_plan() {
        clear();
        assert!(!is_active());
        for _ in 0..1000 {
            checkpoint(Site::GovernSpend).unwrap();
        }
        assert!(hit_counts().is_empty());
    }

    #[test]
    fn probe_plan_counts_without_injecting() {
        install(FaultPlan::probe());
        for _ in 0..3 {
            checkpoint(Site::CoreBuildNode).unwrap();
        }
        checkpoint(Site::RefineRefine).unwrap();
        assert_eq!(
            hit_counts(),
            vec![(Site::CoreBuildNode, 3), (Site::RefineRefine, 1)]
        );
        clear();
    }

    #[test]
    fn arm_fires_at_exactly_the_kth_hit_and_only_once() {
        install(FaultPlan::one(FaultAction::Trip, Site::CanonDfs, 3));
        checkpoint(Site::CanonDfs).unwrap();
        checkpoint(Site::CoreLeafIr).unwrap(); // other sites don't count
        checkpoint(Site::CanonDfs).unwrap();
        let err = checkpoint(Site::CanonDfs).unwrap_err();
        assert_eq!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                spent: 3
            }
        );
        // One-shot: the 4th hit passes.
        checkpoint(Site::CanonDfs).unwrap();
        clear();
    }

    #[test]
    fn wildcard_counts_across_sites_and_actions_map_to_errors() {
        install(FaultPlan::parse("cancel@*:2").unwrap());
        checkpoint(Site::RefineRefine).unwrap();
        assert_eq!(checkpoint(Site::CanonDfs), Err(DviclError::Cancelled));
        clear();

        install(FaultPlan::one(FaultAction::Alloc, Site::CoreArenaCarve, 1));
        assert!(matches!(
            checkpoint(Site::CoreArenaCarve),
            Err(DviclError::BudgetExceeded {
                resource: Resource::Memory,
                ..
            })
        ));
        clear();

        install(FaultPlan::one(FaultAction::Parse, Site::GraphEdgeLine, 1));
        let err = checkpoint(Site::GraphEdgeLine).unwrap_err();
        match &err {
            DviclError::Parse(p) => {
                assert_eq!(p.kind, ParseErrorKind::Truncated);
                assert!(p.detail.contains("graph.edge_line"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        clear();
    }

    #[test]
    fn a_plan_acts_only_on_the_thread_that_installed_it() {
        install(FaultPlan::parse("cancel@*:1").unwrap());
        let (other_err, other_counts, other_active) = std::thread::spawn(|| {
            let err = checkpoint(Site::CanonDfs).err();
            (err, hit_counts(), is_active())
        })
        .join()
        .unwrap();
        assert_eq!(other_err, None, "another thread's checkpoint was injected");
        assert!(other_counts.is_empty() && !other_active);
        assert!(hit_counts().is_empty(), "another thread's hit was counted");
        assert_eq!(checkpoint(Site::CanonDfs), Err(DviclError::Cancelled));

        // The reverse: a plan installed on a spawned thread leaves this
        // one alone.
        clear();
        std::thread::spawn(|| {
            install(FaultPlan::parse("trip@*:1").unwrap());
            assert!(checkpoint(Site::GovernSpend).is_err());
        })
        .join()
        .unwrap();
        assert!(!is_active());
        checkpoint(Site::GovernSpend).unwrap();
    }

    #[test]
    fn install_resets_counts_and_fired_state() {
        install(FaultPlan::one(FaultAction::Cancel, Site::CoreSsm, 1));
        assert!(checkpoint(Site::CoreSsm).is_err());
        install(FaultPlan::one(FaultAction::Cancel, Site::CoreSsm, 1));
        assert!(checkpoint(Site::CoreSsm).is_err(), "reinstall must rearm");
        assert_eq!(hit_counts(), vec![(Site::CoreSsm, 1)]);
        clear();
    }
}
