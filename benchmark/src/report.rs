//! The result of one run: named metrics, the human-readable listing, and
//! the final JSON line (written by hand, read back through
//! `elmem::util::json`).

use std::fmt::Write as _;

use elmem::util::json::JsonValue;

/// The end-to-end metrics of `BENCHMARK.json`, reported by an untraced run:
/// name, unit, whether higher is better, and the share of the parent's
/// median the metric may worsen by.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("ops_per_s", "1/s", true, 0.25),
    ("setup_s", "s", false, 0.25),
    ("peak_rss_mib", "MiB", false, 0.10),
    ("sim_hit_rate", "ratio", true, 0.01),
    ("sim_rt_p95_ms", "ms", false, 0.04),
];

/// The per-layer metrics of `BENCHMARK.json`, reported by a traced run, in
/// reporting order: name and unit.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("workload.reqgen_ns", "ns"),
    ("workload.zipf_sample_ns", "ns"),
    ("workload.alias_sample_ns", "ns"),
    ("workload.value_size_ns", "ns"),
    ("workload.generator_new_ms", "ms"),
    ("hash.ring_lookup_ns", "ns"),
    ("hash.ring_rebuild_us", "us"),
    ("cluster.handle_ns", "ns"),
    ("cluster.handle_hit_ns", "ns"),
    ("cluster.handle_miss_ns", "ns"),
    ("cluster.db_fetch_ns", "ns"),
    ("cluster.new_ms", "ms"),
    ("cluster.prefill_ns_per_key", "ns"),
    ("cluster.clone_ms", "ms"),
    ("store.get_hit_ns", "ns"),
    ("store.get_miss_ns", "ns"),
    ("store.set_insert_ns", "ns"),
    ("store.set_evict_ns", "ns"),
    ("store.median_hotness_ns", "ns"),
    ("store.dump_ns_per_item", "ns"),
    ("store.import_ns_per_item", "ns"),
    ("store.bytes_per_item", "B"),
    ("store.concurrent_get_1t_ns", "ns"),
    ("store.concurrent_get_2t_ns", "ns"),
    ("util.hist_record_ns", "ns"),
    ("util.rng_next_ns", "ns"),
    ("stackdist.record_exact_ns", "ns"),
    ("stackdist.record_mimir_ns", "ns"),
    ("stackdist.hrc_build_ms", "ms"),
    ("sim.eventq_cycle_ns", "ns"),
    ("core.autoscaler_observe_ns", "ns"),
    ("core.autoscaler_decide_us", "us"),
    ("core.run_experiment_ms", "ms"),
    ("core.autoscaler_share", "ratio"),
    ("core.scale_in_ms", "ms"),
    ("core.scale_out_ms", "ms"),
    ("core.apply_commit_us", "us"),
    ("core.choose_retiring_ms", "ms"),
    ("core.plan_ns_per_item", "ns"),
    ("core.fusecache_ns_per_item", "ns"),
    ("core.journal_append_ns", "ns"),
    ("loop.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_cost_ns", "ns"),
    ("loop.median_ops_per_s", "1/s"),
    ("loop.rep_spread", "ratio"),
    ("machine.probe_cpu_ns", "ns"),
    ("machine.probe_mem_ns", "ns"),
    ("count.requests", "count"),
    ("count.lookups", "count"),
    ("count.hits", "count"),
    ("count.db_fetches", "count"),
    ("count.db_shed", "count"),
    ("count.client_timeouts", "count"),
    ("count.sets", "count"),
    ("count.evictions", "count"),
    ("count.scaling_events", "count"),
    ("count.items_considered", "count"),
    ("count.items_migrated", "count"),
    ("count.bytes_migrated", "count"),
    ("count.profiler_tracked_keys", "count"),
    ("count.journal_records", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// `name value unit`, one metric per line.
pub fn listing(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{:<32} {} {}", m.name, m.value, m.unit);
    }
    out
}

/// What the last line of a run's standard output says.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Whether the metrics are exactly `expected`, names and units, in
    /// order.
    pub fn reports_exactly(&self, expected: &[(&str, &str)]) -> bool {
        self.metrics.len() == expected.len()
            && self
                .metrics
                .iter()
                .zip(expected)
                .all(|(m, &(name, unit))| m.name == name && m.unit == unit)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values print with Rust's
    /// shortest round-trip formatting: every measured digit, no exponent.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`RunReport::to_json_line`].
    pub fn parse(line: &str) -> Result<RunReport, String> {
        let v = JsonValue::parse(line)?;
        let JsonValue::Object(fields) = &v else {
            return Err("result line is not a JSON object".to_string());
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing `{k}`"));
        let Some(JsonValue::Object(metrics)) = v.get("metrics") else {
            return Err("`metrics` is not an object".to_string());
        };
        Ok(RunReport {
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` is not a boolean")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("`attempted` is not a whole number")?,
            failed: field("failed")?
                .as_u64()
                .ok_or("`failed` is not a whole number")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(JsonValue::as_f64);
                    let unit = m.get("unit").and_then(JsonValue::as_str);
                    match (value, unit) {
                        (Some(value), Some(unit)) => Ok(Metric::new(name, value, unit)),
                        _ => Err(format!("metric `{name}` lacks a value or a unit")),
                    }
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_through_the_repo_parser() {
        let report = RunReport {
            correct: true,
            attempted: 90_205_500,
            failed: 0,
            metrics: vec![
                Metric::new("ops_per_s", 4_392_817.330_514_2, "1/s"),
                Metric::new("setup_s", 0.031_270_9, "s"),
                Metric::new("sim_hit_rate", 1.0, "ratio"),
                Metric::new("trace.span_cost_ns", 0.000_012_5, "ns"),
            ],
        };
        let line = report.to_json_line();
        assert!(!line.contains('\n') && !line.contains("e-"), "{line}");
        assert_eq!(RunReport::parse(&line), Ok(report));
    }

    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_array)
                .expect("a list")
                .to_vec()
        };
        let text_of = |o: &JsonValue, key: &str| {
            o.get(key)
                .and_then(JsonValue::as_str)
                .expect("a string")
                .to_string()
        };

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.spec().name)
            .collect();
        assert_eq!(workloads, ours);

        let end_to_end: Vec<(String, String, bool, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better") == "higher",
                    m.get("bound").and_then(JsonValue::as_f64).expect("a bound"),
                )
            })
            .collect();
        let ours: Vec<(String, String, bool, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, h, b)| (n.to_string(), u.to_string(), h, b))
            .collect();
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, ours);

        assert_eq!(
            v.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::harness::REFERENCE_SECONDS)
        );
    }

    #[test]
    fn schema_violations_are_errors() {
        assert!(RunReport::parse("[1, 2]").is_err());
        assert!(RunReport::parse("{\"correct\": true}").is_err());
        let extra =
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}";
        assert!(RunReport::parse(extra).is_err());
        let no_unit = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
                       \"metrics\": {\"m\": {\"value\": 1}}}";
        assert!(RunReport::parse(no_unit).is_err());
        assert!(RunReport::parse("{\"correct\": tru").is_err());
    }
}
