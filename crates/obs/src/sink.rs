//! Where observations go: the [`Sink`] trait, its three
//! implementations, and the process-wide installed sink.
//!
//! Exactly one sink is active per process (installed once, before the
//! pipeline runs). The default is [`NullSink`], which makes every
//! [`emit`] call a single `OnceLock` load — the overhead policy in
//! DESIGN.md §9 depends on that.

use crate::counters::{bump, snapshot, Counter, Snapshot};
use crate::json::{JsonArr, JsonObj};
use crate::span::phases;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A field value attached to an [`emit`]ted event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer (counters, sizes).
    U64(u64),
    /// A float (durations in milliseconds, ratios).
    F64(f64),
    /// A short string (labels, resource names).
    Str(String),
    /// A flag.
    Bool(bool),
}

/// One timed phase in a [`Summary`], converted to milliseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// The span label (`crate.phase`).
    pub label: &'static str,
    /// Completed spans under this label.
    pub calls: u64,
    /// Inclusive wall time in milliseconds.
    pub total_ms: f64,
    /// Exclusive wall time in milliseconds (total minus child spans).
    pub self_ms: f64,
}

/// Everything a sink receives at [`finish`] time: the final counter
/// values and the phase-time breakdown.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Final counter values.
    pub counters: Snapshot,
    /// Per-phase timing rows, in catalog order (empty unless timing
    /// was enabled via [`crate::set_timing`]).
    pub phases: Vec<PhaseRow>,
}

/// A destination for observability output. Implementations must be
/// cheap when idle — [`emit`] is called from library code that does not
/// know which sink is installed.
pub trait Sink: Send + Sync {
    /// Receives one named event with its fields. Events are rare
    /// (budget trips, per-benchmark records), never per-node.
    fn event(&self, name: &str, fields: &[(&str, Value)]);

    /// Receives the end-of-run summary. Called at most once, by
    /// [`finish`].
    fn finish(&self, summary: &Summary);
}

/// The default sink: discards everything.
///
/// ```
/// use dvicl_obs::{NullSink, Sink, Summary};
/// NullSink.event("noop", &[]);
/// NullSink.finish(&Summary::default());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn event(&self, _name: &str, _fields: &[(&str, Value)]) {}
    fn finish(&self, _summary: &Summary) {}
}

/// The human-readable sink behind the CLI's `--stats` flag: prints
/// [`render_text`] to stderr at [`finish`] time and ignores events
/// (budget trips already surface through the CLI's error path).
#[derive(Clone, Copy, Debug, Default)]
pub struct TextSink;

impl Sink for TextSink {
    fn event(&self, _name: &str, _fields: &[(&str, Value)]) {}

    fn finish(&self, summary: &Summary) {
        // Best effort: a closed stderr must not take the run down.
        let _ = io::stderr().write_all(render_text(summary).as_bytes());
    }
}

/// The machine-readable sink behind the CLI's `--trace-json <path>`
/// flag: newline-delimited JSON, one `{"type":"event",...}` object per
/// [`emit`] and one final `{"type":"summary",...}` object.
pub struct JsonSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonSink").finish_non_exhaustive()
    }
}

impl JsonSink {
    /// Wraps any writer (the tests use `Vec<u8>` behind a forwarder).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) `path` and streams NDJSON to it.
    pub fn to_file(path: &std::path::Path) -> io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonSink::new(Box::new(io::BufWriter::new(f))))
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // Best effort: tracing must never take the run down.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

fn fields_obj(fields: &[(&str, Value)]) -> JsonObj {
    let mut obj = JsonObj::new();
    for (k, v) in fields {
        obj = match v {
            Value::U64(x) => obj.u64(k, *x),
            Value::F64(x) => obj.f64(k, *x),
            Value::Str(x) => obj.str(k, x),
            Value::Bool(x) => obj.bool(k, *x),
        };
    }
    obj
}

/// Renders a [`Summary`] as one JSON object (`{"counters":{...},
/// "phases":[...]}`) — shared by [`JsonSink`]'s summary line and the
/// bench `BENCH_*.json` records.
pub fn summary_json(summary: &Summary) -> JsonObj {
    let mut counters = JsonObj::new();
    for (name, v) in summary.counters.iter() {
        counters = counters.u64(name, v);
    }
    let mut rows = JsonArr::new();
    for p in &summary.phases {
        rows = rows.push_obj(
            JsonObj::new()
                .str("label", p.label)
                .u64("calls", p.calls)
                .f64("total_ms", p.total_ms)
                .f64("self_ms", p.self_ms),
        );
    }
    JsonObj::new().obj("counters", counters).arr("phases", rows)
}

impl Sink for JsonSink {
    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let line = JsonObj::new()
            .str("type", "event")
            .str("name", name)
            .obj("fields", fields_obj(fields))
            .finish();
        self.write_line(&line);
    }

    fn finish(&self, summary: &Summary) {
        let line = JsonObj::new()
            .str("type", "summary")
            .obj("summary", summary_json(summary))
            .finish();
        self.write_line(&line);
    }
}

static SINK: OnceLock<Box<dyn Sink>> = OnceLock::new();
static NULL: NullSink = NullSink;
static FINISHED: AtomicBool = AtomicBool::new(false);

/// Installs the process-wide sink. Returns `false` (and drops `sink`)
/// if one was already installed — first install wins, so libraries must
/// never call this; only the binary entry point does.
pub fn install(sink: Box<dyn Sink>) -> bool {
    SINK.set(sink).is_ok()
}

fn active() -> &'static dyn Sink {
    match SINK.get() {
        Some(s) => s.as_ref(),
        None => &NULL,
    }
}

/// Sends one event to the installed sink. With no sink installed this
/// is one `OnceLock` load.
pub fn emit(name: &str, fields: &[(&str, Value)]) {
    active().event(name, fields);
}

/// Builds the end-of-run [`Summary`] from the calling thread's
/// counters and phase table.
pub fn summary() -> Summary {
    const MS: f64 = 1e6;
    Summary {
        counters: snapshot(),
        phases: phases()
            .into_iter()
            .map(|(label, st)| PhaseRow {
                label,
                calls: st.calls,
                total_ms: st.total_ns as f64 / MS,
                self_ms: st.self_ns as f64 / MS,
            })
            .collect(),
    }
}

/// Delivers the final [`Summary`] of the calling thread (the one that
/// did the run's work) to the installed sink. Idempotent: only the
/// first call delivers, so both a normal exit path and a defensive one
/// can call it.
pub fn finish() {
    if FINISHED.swap(true, Ordering::SeqCst) {
        return;
    }
    active().finish(&summary());
}

/// Records a budget trip: bumps [`Counter::BudgetTrips`] and emits a
/// `budget_trip` event carrying the exhausted resource, the amount
/// spent, and the full counter snapshot at trip time — so a truncated
/// run still reports how far it got.
pub fn emit_budget_trip(resource: &str, spent: u64) {
    bump(Counter::BudgetTrips);
    let snap = snapshot();
    let mut fields: Vec<(&str, Value)> = vec![
        ("resource", Value::Str(resource.to_string())),
        ("spent", Value::U64(spent)),
    ];
    for (name, v) in snap.iter() {
        fields.push((name, Value::U64(v)));
    }
    emit("budget_trip", &fields);
}

/// Renders a [`Summary`] as the human `--stats` report (non-zero
/// counters plus the phase table when timing was on).
///
/// ```
/// let text = dvicl_obs::render_text(&dvicl_obs::summary());
/// assert!(text.starts_with("== dvicl stats =="));
/// ```
pub fn render_text(summary: &Summary) -> String {
    let mut out = String::from("== dvicl stats ==\n");
    let mut any = false;
    for (name, v) in summary.counters.iter() {
        if v > 0 {
            out.push_str(&format!("  {name:<24} {v}\n"));
            any = true;
        }
    }
    if !any {
        out.push_str("  (all counters zero)\n");
    }
    if !summary.phases.is_empty() {
        out.push_str("  phase                    calls    total_ms     self_ms\n");
        for p in &summary.phases {
            out.push_str(&format!(
                "  {:<24} {:>5} {:>11.3} {:>11.3}\n",
                p.label, p.calls, p.total_ms, p.self_ms
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_lists_nonzero_counters_and_phases() {
        let mut summary = Summary::default();
        summary.phases.push(PhaseRow {
            label: "obs.render_demo",
            calls: 2,
            total_ms: 1.25,
            self_ms: 1.0,
        });
        let text = render_text(&summary);
        assert!(text.contains("(all counters zero)"));
        assert!(text.contains("obs.render_demo"));
    }

    #[test]
    fn fields_obj_covers_all_value_kinds() {
        let obj = fields_obj(&[
            ("a", Value::U64(1)),
            ("b", Value::F64(0.5)),
            ("c", Value::Str("s".into())),
            ("d", Value::Bool(false)),
        ]);
        assert_eq!(obj.finish(), r#"{"a":1,"b":0.5,"c":"s","d":false}"#);
    }
}
