//! The benchmark's own spans and the per-layer accumulators of a traced
//! run.
//!
//! [`Tracer`] records a span around each call the benchmark makes into a
//! layer's public function: name, start, end, parent span and operation
//! id, kept in memory and written out when the run ends. A span's *self
//! time* is its duration minus the durations of its children; spans are
//! opened and closed on one thread in strict nesting order, so children
//! never overlap and the self times of all spans sum to the time covered
//! by root spans, which cannot exceed the traced wall time.
//!
//! [`LayerAcc`] sums the program's own telemetry over the traced
//! operations: `obs::snapshot()` counter deltas and the self time of the
//! program's spans from `obs::phases()`.

use crate::json;
use crate::report::Report;
use dvicl_obs::{self as obs, Counter, PhaseStat, Snapshot, NUM_COUNTERS};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `core.build`.
    pub name: &'static str,
    /// The timed operation the span belongs to, if any.
    pub op: Option<u64>,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. While off, [`Tracer::open`] returns `None`
/// and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off, together with the program's own span
    /// timing (`obs::set_timing`).
    pub fn set(&mut self, on: bool) {
        self.on = on;
        obs::set_timing(on);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pass the returned token to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: Option<u64>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `token` opened; spans close innermost first.
    pub fn close(&mut self, token: Option<usize>) {
        let Some(id) = token else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) per span name: each span's duration minus its
    /// children's durations, summed by name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Nanoseconds since the tracer was created.
    pub fn wall_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Renders the first `limit` spans as a JSON array.
    pub fn spans_json(&self, limit: usize) -> String {
        let rows: Vec<String> = self.spans[..limit.min(self.spans.len())]
            .iter()
            .map(|s| {
                json::object(&[
                    ("name", json::string(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("parent", json::opt(s.parent)),
                    ("op", json::opt(s.op)),
                ])
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Counter deltas and program-span self times summed over the traced
/// operations.
pub struct LayerAcc {
    counts: [u64; NUM_COUNTERS],
    phase_self_ns: BTreeMap<&'static str, u64>,
}

/// The program's telemetry at the start of one traced operation.
pub struct Probe {
    snap: Snapshot,
    phases: Vec<(&'static str, PhaseStat)>,
}

impl LayerAcc {
    /// Nothing observed yet.
    pub fn new() -> LayerAcc {
        LayerAcc {
            counts: [0; NUM_COUNTERS],
            phase_self_ns: BTreeMap::new(),
        }
    }

    /// Reads the program's telemetry before a traced operation.
    pub fn begin() -> Probe {
        Probe {
            snap: obs::snapshot(),
            phases: obs::phases(),
        }
    }

    /// Adds what the program counted since `probe` was taken.
    pub fn end(&mut self, probe: Probe) {
        let delta = obs::snapshot().diff(&probe.snap);
        for (slot, c) in self.counts.iter_mut().zip(Counter::ALL) {
            *slot += delta.get(c);
        }
        for (label, st) in obs::phases() {
            let before = probe
                .phases
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0, |(_, b)| b.self_ns);
            *self.phase_self_ns.entry(label).or_insert(0) += st.self_ns.saturating_sub(before);
        }
    }

    /// A counter's total over the observed operations.
    fn count(&self, c: Counter) -> f64 {
        self.counts[c as usize] as f64
    }

    /// Summed self time (ns) of the program spans labelled `labels`.
    fn phase_self_ns(&self, labels: &[&str]) -> f64 {
        labels
            .iter()
            .map(|l| self.phase_self_ns.get(l).copied().unwrap_or(0) as f64)
            .sum()
    }

    /// Sets the counter- and phase-derived per-layer metrics, each
    /// counter and time as a mean over `passes` traced passes.
    pub fn report_into(&self, report: &mut Report, passes: u64) {
        let per_pass = |x: f64| x / passes.max(1) as f64;
        let ms = |labels: &[&str]| per_pass(self.phase_self_ns(labels)) / 1e6;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let c = |k: Counter| self.count(k);
        for (name, k) in [
            ("refine.rounds", Counter::RefineRounds),
            ("refine.radix_splits", Counter::RadixSplits),
            ("canon.search_nodes", Counter::SearchNodes),
            ("canon.search_leaves", Counter::SearchLeaves),
            ("canon.aut_found", Counter::AutFound),
            ("core.divide_i_applied", Counter::DivideIApplied),
            ("core.divide_s_applied", Counter::DivideSApplied),
            ("core.divide_s_edges_deleted", Counter::DivideSEdgesDeleted),
            ("core.divide_components", Counter::DivideComponents),
            ("core.sub_bytes_peak", Counter::SubBytesPeak),
            ("index.collisions", Counter::IndexCollisions),
            ("govern.budget_trips", Counter::BudgetTrips),
        ] {
            report.set(name, per_pass(c(k)));
        }
        report.set(
            "canon.pruned_frac",
            ratio(
                c(Counter::PrunedInvariant) + c(Counter::PrunedOrbit),
                c(Counter::SearchNodes),
            ),
        );
        report.set(
            "core.memo_hit_frac",
            ratio(
                c(Counter::CacheClHits),
                c(Counter::CacheClHits) + c(Counter::CacheClMisses),
            ),
        );
        report.set(
            "index.hit_frac",
            ratio(c(Counter::IndexHits), c(Counter::IndexProbes)),
        );
        report.set(
            "refine.self_ms",
            ms(&["refine.refine", "refine.individualize"]),
        );
        report.set("canon.search_self_ms", ms(&["canon.search"]));
        report.set("core.divide_self_ms", ms(&["core.divide"]));
        report.set("core.combine_self_ms", ms(&["core.combine"]));
        report.set("core.leaf_ir_self_ms", ms(&["core.leaf_ir"]));
    }
}

/// Writes the trace file of a traced run: the first `file_spans` spans,
/// the self time per span name over the whole run, the traced wall time,
/// and the per-layer metrics. Returns the path written.
pub fn write_file(
    report: &Report,
    tracer: &Tracer,
    file_spans: usize,
    seed: u64,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace-out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.json", report.workload));
    let self_ms: Vec<(&str, String)> = tracer
        .self_ns()
        .into_iter()
        .map(|(name, ns)| (name, json::number(ns as f64 / 1e6)))
        .collect();
    let layers: Vec<(&str, String)> = report
        .metrics(true)
        .into_iter()
        .map(|(name, value, _)| (name, json::number(value)))
        .collect();
    let doc = json::object(&[
        ("workload", json::string(report.workload)),
        ("seed", seed.to_string()),
        ("wall_ms", json::number(tracer.wall_ns() as f64 / 1e6)),
        ("self_ms", json::object(&self_ms)),
        ("per_layer", json::object(&layers)),
        ("spans_total", tracer.spans().len().to_string()),
        ("spans", tracer.spans_json(file_spans)),
    ]);
    std::fs::write(&path, doc + "\n")?;
    Ok(path)
}

/// The run-level trace check: the benchmark's spans' self times must sum
/// to no more than the traced wall time.
pub fn check_self_time(report: &mut Report, tracer: &Tracer) {
    let self_total: u64 = tracer.self_ns().values().sum();
    let wall = tracer.wall_ns();
    if self_total > wall {
        report.fail(format!(
            "span self times sum to {self_total} ns, above the traced wall time {wall} ns"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_fits_the_wall() {
        let mut t = Tracer::new();
        assert_eq!(t.open("off", None), None);
        t.set(true);
        let root = t.open("core.build", Some(7));
        let child = t.open("refine.root", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.close(root);
        let second = t.open("core.verify", None);
        t.close(second);
        t.set(false);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, Some(7));
        let selfs = t.self_ns();
        assert_eq!(selfs["core.build"], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs["refine.root"], spans[1].dur_ns());
        let total: u64 = selfs.values().sum();
        assert!(total <= t.wall_ns());
        assert!(t.spans_json(2).contains("\"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new();
        t.set(true);
        let a = t.open("a.outer", None);
        let _b = t.open("a.inner", None);
        t.close(a);
    }
}
