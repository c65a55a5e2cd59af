//! The benchmark's metric catalogue and its JSON result line.
//!
//! `END_TO_END` must list exactly the `end_to_end` entries of
//! `BENCHMARK.json` and `PER_LAYER` exactly its `per_layer` entries; a
//! unit test holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name (`layer.quantity` for per-layer metrics).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// Metrics a user of the pipeline sees, measured with tracing off on
/// every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", false),
    m("ingest_events_per_s", "ev/s", true),
    m("replay_events_per_s", "ev/s", true),
    m("reduction_factor", "x", true),
    m("peak_rss_mb", "MiB", false),
];

/// Metrics of single layers, from the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Detection quality and the two workload-specific headline figures
    // (taken from the run's untraced iterations).
    m("quality.recall", "ratio", true),
    m("quality.precision", "ratio", true),
    m("repro.triage_artifacts_per_s", "1/s", true),
    m("serve.tail_lag_p50_us", "us", false),
    // core
    m("core.learn_s", "s", false),
    m("core.push_s", "s", false),
    m("core.close_stream_s", "s", false),
    m("core.finish_s", "s", false),
    m("core.fleet_backpressure_stalls", "count", false),
    m("core.windows_closed", "count", false),
    m("core.windows_gate_similar", "count", true),
    m("core.windows_lof_scored", "count", false),
    m("core.windows_recorded", "count", false),
    m("core.gate_skip_ratio", "ratio", true),
    // anomaly
    m("anomaly.decision_s", "s", false),
    // store: write side
    m("store.lane_create_s", "s", false),
    m("store.lane_create_calls", "count", false),
    m("store.lane_create_per_s", "1/s", true),
    m("store.lane_create_first_decile_ms", "ms", false),
    m("store.lane_create_last_decile_ms", "ms", false),
    m("store.close_s", "s", false),
    m("store.record_window_s", "s", false),
    m("store.record_window_p99_us", "us", false),
    m("store.frames_written", "count", false),
    m("store.bytes_written", "B", false),
    m("store.write_bytes_per_s", "B/s", true),
    m("store.rotations", "count", false),
    // store: read side
    m("store.open_s", "s", false),
    m("store.index_load_s", "s", false),
    m("store.decode_s", "s", false),
    m("store.crc_validations", "count", false),
    m("store.segcache_hits", "count", true),
    m("store.segcache_misses", "count", false),
    // store: maintenance
    m("store.compact_s", "s", false),
    m("store.compact_bytes_rewritten", "B", false),
    m("store.compact_bytes_per_s", "B/s", true),
    m("store.compact_files_in", "count", false),
    m("store.compact_files_out", "count", false),
    // serve
    m("serve.recv_wait_s", "s", false),
    m("serve.windows_delivered", "count", true),
    m("serve.windows_dropped", "count", false),
    m("serve.tail_lag_p99_us", "us", false),
    m("serve.generator_late_max_ms", "ms", false),
    // repro
    m("repro.extract_s", "s", false),
    m("repro.minimize_s", "s", false),
    m("repro.oracle_calls", "count", false),
    m("repro.artifacts", "count", true),
    m("repro.events_in", "count", false),
    m("repro.events_out", "count", false),
    m("repro.not_reproduced_disordered", "count", false),
    // attribution
    m("trace.unattributed_s", "s", false),
    m("trace.overhead_ratio", "ratio", false),
];

/// Looks a metric up by name in either catalogue.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|metric| metric.name == name)
}

/// Metric values of one iteration (or the medians of a run), keyed by
/// metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue: every value the
    /// benchmark reports must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric `{name}` is not catalogued");
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `catalogue` (0 for a value the run
/// did not produce) and all digits of each value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> String {
    let mut metrics = String::new();
    for (i, metric) in catalogue.iter().enumerate() {
        let value = values
            .get(metric.name)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(value),
            metric.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}

/// Shortest round-trip rendering of a finite float, always valid JSON.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` follows the benchmark's naming rule: starts with a
    /// letter or digit, at most 64 characters of letters, digits, `_`, `.`
    /// and `-`.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is at most 16 characters of letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// Captures any JSON value through the vendored serde stand-in.
    struct Json(serde::Value);

    impl serde::Deserialize for Json {
        fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
            Ok(Json(value.clone()))
        }
    }

    fn parse(text: &str) -> serde::Value {
        serde_json::from_str::<Json>(text).expect("valid JSON").0
    }

    fn string(value: &serde::Value) -> &str {
        match value {
            serde::Value::String(text) => text,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(seen.insert(metric.name), "duplicate name {}", metric.name);
        }
        assert!(seen.contains("setup_s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn naming_rule_rejects_bad_names() {
        assert!(valid_name("store.lane_create_first_decile_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("ev/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let serde::Value::Array(entries) = spec.get(key).expect(key) else {
                panic!("{key} is not an array");
            };
            let declared: Vec<(&str, &str, &str)> = entries
                .iter()
                .map(|entry| {
                    (
                        string(entry.get("name").unwrap()),
                        string(entry.get("unit").unwrap()),
                        string(entry.get("better").unwrap()),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> = catalogue
                .iter()
                .map(|metric| {
                    let better = if metric.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (metric.name, metric.unit, better)
                })
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        values.set("ingest_events_per_s", 1_234_567.0);
        let line = result_line(true, 10, 0, END_TO_END, &values);
        let parsed = parse(&line);
        let serde::Value::Object(keys) = &parsed else {
            panic!("not an object");
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let serde::Value::Object(metrics) = parsed.get("metrics").unwrap() else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let ingest = parsed
            .get("metrics")
            .unwrap()
            .get("ingest_events_per_s")
            .unwrap();
        assert_eq!(string(ingest.get("unit").unwrap()), "ev/s");
        assert!(line.contains("\"value\": 1234567.0"));
        assert!(line.contains("\"value\": 0.25"));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn undeclared_metrics_are_refused() {
        Values::default().set("made_up", 1.0);
    }
}
