//! Scoped phase timers.
//!
//! A [`span`] is a guard that, while timing is enabled, measures the
//! wall time of its scope and attributes it to a phase label. A
//! thread-local stack of open frames lets a parent phase subtract the
//! time spent in its children, so the report can show both *total*
//! (inclusive) and *self* (exclusive) time per phase — the breakdown
//! the DviCL paper reports as refine / divide / combine / leaf-IR.
//!
//! Timing is off by default: an un-observed span costs one relaxed
//! atomic load and nothing else. Under the `obs-off` feature the guard
//! is a zero-sized type and the whole module is inert.

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

#[cfg(not(feature = "obs-off"))]
mod imp {
    use super::{Phase, PhaseStat};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, PoisonError};
    use std::time::Instant;

    static TIMING: AtomicBool = AtomicBool::new(false);

    // The phase table is tiny (one entry per distinct label, ~a dozen in
    // the whole pipeline), so a linear scan under one mutex beats a map.
    static PHASES: Mutex<Vec<(&'static str, PhaseStat)>> = Mutex::new(Vec::new());

    struct Frame {
        label: &'static str,
        start: Instant,
        child_ns: u64,
    }

    thread_local! {
        static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
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
    /// the scope's duration into the process-wide phase table.
    #[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
    pub struct Span {
        active: bool,
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
    /// assert!(phases.iter().any(|(l, st)| *l == "refine.refine" && st.calls >= 1));
    /// ```
    pub fn span(phase: Phase) -> Span {
        if !timing_enabled() {
            return Span { active: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                label: phase.name(),
                start: Instant::now(),
                child_ns: 0,
            });
        });
        Span { active: true }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            let frame = STACK.with(|s| s.borrow_mut().pop());
            let Some(frame) = frame else { return };
            let total_ns =
                u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            STACK.with(|s| {
                if let Some(parent) = s.borrow_mut().last_mut() {
                    parent.child_ns = parent.child_ns.saturating_add(total_ns);
                }
            });
            let mut table = PHASES.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((_, st)) = table.iter_mut().find(|(l, _)| *l == frame.label) {
                st.calls += 1;
                st.total_ns = st.total_ns.saturating_add(total_ns);
                st.self_ns = st.self_ns.saturating_add(self_ns);
            } else {
                table.push((
                    frame.label,
                    PhaseStat {
                        calls: 1,
                        total_ns,
                        self_ns,
                    },
                ));
            }
        }
    }

    /// A copy of the phase table, in first-seen order.
    pub fn phases() -> Vec<(&'static str, PhaseStat)> {
        PHASES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Clears the phase table. Test/benchmark helper — see
    /// [`crate::reset`].
    pub fn reset_phases() {
        PHASES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

#[cfg(feature = "obs-off")]
mod imp {
    use super::{Phase, PhaseStat};

    /// A scope guard created by [`span`](crate::span); zero-sized and
    /// inert under the `obs-off` feature.
    #[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
    pub struct Span;

    /// Opens a timed span for `phase`; inert under `obs-off`.
    #[inline]
    pub fn span(_phase: Phase) -> Span {
        Span
    }

    /// Turns span timing on or off; ignored under `obs-off`.
    pub fn set_timing(_on: bool) {}

    /// Whether spans are measuring time — always `false` under
    /// `obs-off`.
    pub fn timing_enabled() -> bool {
        false
    }

    /// The phase table — always empty under `obs-off`.
    pub fn phases() -> Vec<(&'static str, PhaseStat)> {
        Vec::new()
    }

    /// Clears the phase table; a no-op under `obs-off`.
    pub fn reset_phases() {}
}

pub use imp::{phases, reset_phases, set_timing, span, timing_enabled, Span};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn nesting_attributes_self_time_to_each_label() {
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
        let outer = table
            .iter()
            .find(|(l, _)| *l == "core.build")
            .map(|(_, st)| *st)
            .unwrap_or_default();
        let inner = table
            .iter()
            .find(|(l, _)| *l == "core.combine")
            .map(|(_, st)| *st)
            .unwrap_or_default();
        assert!(outer.calls >= 1 && inner.calls >= 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns);
    }

    #[test]
    fn disabled_span_is_inert() {
        set_timing(false);
        let before = phases().len();
        {
            let _g = span(Phase::CoreVerify);
        }
        assert_eq!(phases().len(), before);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn span_is_zero_sized_when_off() {
        assert_eq!(std::mem::size_of::<Span>(), 0);
        set_timing(true);
        assert!(!timing_enabled());
    }
}
