//! Metric catalog, failure accounting, and the printed result.

use crate::json;
use std::collections::BTreeMap;

/// Gated end-to-end metrics, `(name, unit)`, reported by every workload
/// in an untraced run. BENCHMARK.json lists the same names.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload in a
/// traced run; 0 where the layer does not run in that workload.
/// BENCHMARK.json lists the same names.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("data.generate_ms", "ms"),
    ("graph.parse_us", "us"),
    ("graph.fingerprint_us", "us"),
    ("refine.root_ms", "ms"),
    ("refine.self_ms", "ms"),
    ("refine.rounds", "count"),
    ("refine.radix_splits", "count"),
    ("canon.search_self_ms", "ms"),
    ("canon.search_nodes", "count"),
    ("canon.search_leaves", "count"),
    ("canon.aut_found", "count"),
    ("canon.pruned_frac", "ratio"),
    ("core.build_ms", "ms"),
    ("core.divide_self_ms", "ms"),
    ("core.combine_self_ms", "ms"),
    ("core.leaf_ir_self_ms", "ms"),
    ("core.divide_i_applied", "count"),
    ("core.divide_s_applied", "count"),
    ("core.divide_s_edges_deleted", "count"),
    ("core.divide_components", "count"),
    ("core.memo_hit_frac", "ratio"),
    ("core.sub_bytes_peak", "bytes"),
    ("core.verify_ms", "ms"),
    ("simplify.twin_classes_ms", "ms"),
    ("simplify.twin_vertices", "count"),
    ("index.lookup_us", "us"),
    ("index.insert_us", "us"),
    ("index.hit_frac", "ratio"),
    ("index.collisions", "count"),
    ("govern.budget_trips", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("service.lookup_p50_us", "us"),
    ("service.lookup_p99_us", "us"),
    ("service.insert_p50_us", "us"),
    ("service.insert_p99_us", "us"),
];

/// How many failure descriptions a report keeps for stderr.
const KEPT_PROBLEMS: usize = 8;

/// The outcome of one workload run.
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Failed operations, plus failed run-level checks.
    pub failed: u64,
    problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    info: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Counts one failure and keeps its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Sets a cataloged metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalog"
        );
        self.values.insert(name, value);
    }

    /// Adds an informational line: printed, never part of the result.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    /// The reported metrics, `(name, value, unit)`: every end-to-end
    /// metric for an untraced run, every per-layer metric for a traced one.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        catalog
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!(
                        "{}: end-to-end metric {name} was not measured",
                        self.workload
                    ),
                };
                (name, value, unit)
            })
            .collect()
    }

    /// The human-readable lines: `workload metric value unit`.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .info
            .iter()
            .map(|(n, v, u)| format!("{} {n} {v} {u}", self.workload))
            .collect();
        for (n, v, u) in self.metrics(traced) {
            out.push(format!("{} {n} {v} {u}", self.workload));
        }
        out
    }

    /// Failure descriptions kept for stderr.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, the
/// latter keyed by metric name, or by `workload/metric` when `reports`
/// holds more than one workload.
pub fn result_json(reports: &[Report], traced: bool) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for (name, value, unit) in r.metrics(traced) {
            let key = if prefix {
                format!("{}/{name}", r.workload)
            } else {
                name.to_string()
            };
            let body =
                json::object(&[("value", json::number(value)), ("unit", json::string(unit))]);
            metrics.push(format!("{}: {body}", json::string(&key)));
        }
    }
    json::object(&[
        ("correct", reports.iter().all(Report::correct).to_string()),
        (
            "attempted",
            reports.iter().map(|r| r.attempted).sum::<u64>().to_string(),
        ),
        (
            "failed",
            reports.iter().map(|r| r.failed).sum::<u64>().to_string(),
        ),
        ("metrics", format!("{{{}}}", metrics.join(", "))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(workload: &'static str) -> Report {
        let mut r = Report::new(workload);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.attempted = 10;
        r
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = full("social");
        let line = result_json(std::slice::from_ref(&r), false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = result_json(std::slice::from_ref(&r), true);
        for (name, _) in PER_LAYER {
            assert!(
                traced.contains(&format!("\"{name}\": {{\"value\": 0,")),
                "{name}"
            );
        }
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = full("service");
        r.fail("lookup 3 answered not-indexed".into());
        assert!(!r.correct());
        let two = [r, full("social")];
        let line = result_json(&two, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 20, \"failed\": 1,"));
        assert!(line.contains("\"service/pass_ms\""));
    }

    #[test]
    #[should_panic(expected = "not in the metric catalog")]
    fn uncataloged_metric_is_a_bug() {
        Report::new("social").set("pass_seconds", 1.0);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
