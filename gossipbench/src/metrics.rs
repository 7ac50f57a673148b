//! The benchmark's metric catalogue and its one-line JSON result.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric name.
    pub name: &'static str,
    /// The unit its values are in.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 9] = [
    def("wall_s", "s", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p999_ms", "ms", Lower),
    def("mb_per_block", "MB", Lower),
    def("load_jain", "index", Higher),
    def("valid_tx_pct", "%", Higher),
    def("converge_p50_s", "s", Lower),
];

/// Single layers, measured in the separate traced run.
pub const PER_LAYER: [MetricDef; 36] = [
    def("gossip.push.calls", "count", Lower),
    def("gossip.push.self_s", "s", Lower),
    def("gossip.push.dup_ratio", "ratio", Lower),
    def("gossip.push.fetches", "count", Lower),
    def("gossip.pull.calls", "count", Lower),
    def("gossip.pull.self_s", "s", Lower),
    def("gossip.pull.requests", "count", Lower),
    def("gossip.recovery.calls", "count", Lower),
    def("gossip.recovery.self_s", "s", Lower),
    def("gossip.recovery.requests", "count", Lower),
    def("gossip.leadership.calls", "count", Lower),
    def("gossip.leadership.self_s", "s", Lower),
    def("gossip.leadership.handoffs", "count", Lower),
    def("gossip.discovery.calls", "count", Lower),
    def("gossip.discovery.self_s", "s", Lower),
    def("gossip.discovery.mb_share", "ratio", Lower),
    def("gossip.intake.calls", "count", Lower),
    def("gossip.intake.self_s", "s", Lower),
    def("orderer.calls", "count", Lower),
    def("orderer.self_s", "s", Lower),
    def("orderer.tx_per_block", "tx/block", Higher),
    def("workload.calls", "count", Lower),
    def("workload.self_s", "s", Lower),
    def("workload.proposal_conflicts", "count", Lower),
    def("ledger.calls", "count", Lower),
    def("ledger.self_s", "s", Lower),
    def("ledger.mvcc_conflicts", "count", Lower),
    def("ledger.commit_errors", "count", Lower),
    def("desim.events", "count", Lower),
    def("desim.msgs", "count", Lower),
    def("desim.mb", "MB", Lower),
    def("desim.self_s", "s", Lower),
    def("shard.busy_s", "s", Lower),
    def("shard.imbalance", "ratio", Lower),
    def("trace.wall_s", "s", Lower),
    def("trace.overhead_pct", "%", Lower),
];

/// A run's result line: `correct`, `attempted`, `failed` and each metric
/// of one catalogue with its value and unit.
#[derive(Debug)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(MetricDef, f64)>,
}

impl Report {
    /// A report over `catalogue`; `value` supplies each metric's value.
    ///
    /// # Panics
    ///
    /// Panics if `value` has no value for a catalogued metric.
    pub fn new(
        catalogue: &[MetricDef],
        value: impl Fn(&str) -> Option<f64>,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Self {
        let values = catalogue
            .iter()
            .map(|m| {
                let v = value(m.name).unwrap_or_else(|| panic!("no value for metric {}", m.name));
                (*m, v)
            })
            .collect();
        Report {
            correct,
            attempted,
            failed,
            values,
        }
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (m, v) in &self.values {
            out.push_str(&format!(
                "{:<28} {:>16} {:<8} ({} is better)\n",
                m.name,
                format!("{v:.6}"),
                m.unit,
                m.better.as_str()
            ));
        }
        out
    }

    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives; a non-finite value (which no
    /// metric should produce) prints as `null` so the line stays JSON.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                let value = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: a letter or digit
    /// first, then at most 63 more letters, digits, `_`, `.` or `-`.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
    /// `%`, `.` or `-`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn all() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn every_metric_has_a_valid_name_and_unit() {
        for m in all() {
            assert!(valid_name(m.name), "invalid metric name {}", m.name);
            assert!(valid_unit(m.unit), "invalid unit {} of {}", m.unit, m.name);
        }
    }

    #[test]
    fn metric_names_are_used_once() {
        let mut names: Vec<&str> = all().map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name repeats");
    }

    #[test]
    fn set_up_time_is_an_end_to_end_metric_in_seconds() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit_and_direction() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for m in all() {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn invalid_names_and_units_are_refused() {
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let report = Report::new(&END_TO_END, |_| Some(1.5), true, 10, 0);
        let line = report.json();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }
}
