//! Scoped phase timers.
//!
//! A [`span`] is a guard that, while timing is enabled, measures the
//! wall time of its scope and attributes it to a phase label. The
//! calling thread's stack of open frames lets a parent phase subtract
//! the time spent in its children, so the report can show both *total*
//! (inclusive) and *self* (exclusive) time per phase — the breakdown
//! the DviCL paper reports as refine / divide / combine / leaf-IR. The
//! phase table lives beside that stack in the same thread-local, so
//! closing a span takes no lock and [`phases`] reports only the calling
//! thread's spans.
//!
//! Timing is off by default: an un-observed span costs one relaxed
//! atomic load and nothing else. The switch is process-wide.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Per-phase accumulated timing, keyed by span label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// How many spans completed under this label.
    pub calls: u64,
    /// Inclusive wall time: the sum of each span's full duration.
    pub total_ns: u64,
    /// Exclusive wall time: [`PhaseStat::total_ns`] minus time spent in
    /// child spans opened (on the same thread) while this one was open.
    pub self_ns: u64,
}

crate::catalog! {
    /// A span label: the pipeline phase a [`span`](fn@crate::span)
    /// times. Each name is a `crate.phase` dot-path (DESIGN.md §9), the
    /// key of its row in the phase table.
    ///
    /// A phase outside the catalog does not compile, and neither does a
    /// bare string label:
    ///
    /// ```compile_fail,E0599
    /// let _g = dvicl_obs::span(dvicl_obs::Phase::CanonSerach);
    /// ```
    ///
    /// ```compile_fail,E0308
    /// let _g = dvicl_obs::span("canon.search");
    /// ```
    pub enum Phase {
        /// Equitable refinement of a coloring (`refine::Refiner`).
        RefineRefine = "refine.refine",
        /// Individualize-and-refine at an IR search node (`refine`).
        RefineIndividualize = "refine.individualize",
        /// One IR canonical-labeling search (`canon`).
        CanonSearch = "canon.search",
        /// One whole AutoTree build (`core::build`).
        CoreBuild = "core.build",
        /// `DivideI`/`DivideS` and component division of one node.
        CoreDivide = "core.divide",
        /// `CombineCL`: the IR leaf labeling of one non-singleton leaf.
        CoreLeafIr = "core.leaf_ir",
        /// `CombineST`: combining one internal node's children.
        CoreCombine = "core.combine",
        /// Paranoid witness checks (`core::verify`).
        CoreVerify = "core.verify",
        /// One symmetric-subgraph-matching query (`core::ssm`).
        CoreSsm = "core.ssm",
        /// Writing a fingerprint index to disk (`dvicl-index`).
        IndexSave = "index.save",
        /// Reading a fingerprint index from disk (`dvicl-index`).
        IndexLoad = "index.load",
        /// Influence-maximization seed selection (`apps::im`).
        AppsIm = "apps.im",
        /// Maximum-clique search and enumeration (`apps::clique`).
        AppsClique = "apps.clique",
        /// Maximum-clique clustering (`apps::cluster`).
        AppsCluster = "apps.cluster",
        /// Triangle listing (`apps::triangles`).
        AppsTriangles = "apps.triangles",
        /// Orbit quotient graphs (`apps::quotient`).
        AppsQuotient = "apps.quotient",
        /// The `batch` request loop (`dvicl-cli`).
        CliBatch = "cli.batch",
        /// The `serve` request loop (`dvicl-cli`).
        CliServe = "cli.serve",
    }
}

static TIMING: AtomicBool = AtomicBool::new(false);

struct Frame {
    label: &'static str,
    start: Instant,
    child_ns: u64,
}

/// One thread's open spans and the phase table they fold into. The
/// table is tiny (one entry per distinct label, ~a dozen in the whole
/// pipeline), so a linear scan beats a map.
struct ThreadPhases {
    stack: Vec<Frame>,
    table: Vec<(&'static str, PhaseStat)>,
}

thread_local! {
    static PHASES: RefCell<ThreadPhases> = const {
        RefCell::new(ThreadPhases {
            stack: Vec::new(),
            table: Vec::new(),
        })
    };
}

/// Turns span timing on or off process-wide.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::SeqCst);
}

/// Whether spans are currently measuring time.
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// A scope guard created by [`span`](fn@crate::span); on drop it folds
/// the scope's duration into the calling thread's phase table. It is
/// neither `Send` nor `Sync`: a span closes on the thread that opened
/// it.
#[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
pub struct Span {
    active: bool,
    _thread: PhantomData<*const ()>,
}

/// Opens a timed span for `phase` (DESIGN.md §9). Returns an inert
/// guard when timing is disabled.
///
/// ```
/// use dvicl_obs::Phase;
/// dvicl_obs::set_timing(true);
/// {
///     let _g = dvicl_obs::span(Phase::RefineRefine);
/// }
/// dvicl_obs::set_timing(false);
/// let phases = dvicl_obs::phases();
/// assert!(phases.iter().any(|(l, st)| *l == "refine.refine" && st.calls == 1));
/// ```
pub fn span(phase: Phase) -> Span {
    let active = timing_enabled();
    if active {
        PHASES.with_borrow_mut(|t| {
            t.stack.push(Frame {
                label: phase.name(),
                start: Instant::now(),
                child_ns: 0,
            });
        });
    }
    Span {
        active,
        _thread: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        PHASES.with_borrow_mut(|t| {
            let Some(frame) = t.stack.pop() else { return };
            let total_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
            if let Some((_, st)) = t.table.iter_mut().find(|(l, _)| *l == frame.label) {
                st.calls += 1;
                st.total_ns = st.total_ns.saturating_add(total_ns);
                st.self_ns = st.self_ns.saturating_add(self_ns);
            } else {
                t.table.push((
                    frame.label,
                    PhaseStat {
                        calls: 1,
                        total_ns,
                        self_ns,
                    },
                ));
            }
        });
    }
}

/// A copy of the calling thread's phase table, in first-seen order.
pub fn phases() -> Vec<(&'static str, PhaseStat)> {
    PHASES.with_borrow(|t| t.table.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, not two: the timing switch is process-wide, so a
    /// disabled-span check running beside a test that enables timing
    /// would race with it.
    #[test]
    fn spans_time_only_while_enabled_and_attribute_self_time() {
        set_timing(false);
        {
            let _g = span(Phase::CoreVerify);
        }
        assert!(phases().is_empty(), "a span opened with timing off records nothing");

        set_timing(true);
        {
            let _outer = span(Phase::CoreBuild);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(Phase::CoreCombine);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_timing(false);
        let table = phases();
        let labels: Vec<&str> = table.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["core.combine", "core.build"]);
        let (inner, outer) = (table[0].1, table[1].1);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }
}
