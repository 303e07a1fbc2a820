//! The metric catalogue and the result line.
//!
//! Every name printed here is declared in `BENCHMARK.json`; the
//! `declared_names_match_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("sweep_ms_p50", "ms"),
    ("sweep_ms_p90", "ms"),
    ("cached_sweep_ms_p50", "ms"),
    ("cached_sweep_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Protocol labels for the per-protocol engine metrics, in
/// `protocols::ALL_SPECS` order.
pub const PROTOCOL_LABELS: [&str; 12] = [
    "pure",
    "pq",
    "ttl",
    "dynttl",
    "ec",
    "ecttl",
    "immunity",
    "cumulative",
    "bloom_1pct",
    "bloom_10pct",
    "bloomimm_1pct",
    "bloomimm_10pct",
];

/// Mobility-model labels for the per-model generation metrics.
pub const MODEL_LABELS: [&str; 4] = ["trace", "rwp", "geom-rwp", "interval"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for model in MODEL_LABELS {
        add(format!("mobility.gen_ms.{model}"), "ms");
    }
    for model in MODEL_LABELS {
        add(format!("mobility.contacts_per_trace.{model}"), "count");
    }
    for (name, unit) in [
        ("mobility.cache_hits", "count"),
        ("mobility.cache_misses", "count"),
        ("mobility.cache_hit_ratio", "ratio"),
        ("mobility.share", "ratio"),
        ("workload.build_us", "us"),
    ] {
        add(name.into(), unit);
    }
    for proto in PROTOCOL_LABELS {
        add(format!("engine.simulate_us.{proto}"), "us");
    }
    for (name, unit) in [
        ("engine.ns_per_contact", "ns"),
        ("engine.contacts", "count"),
        ("engine.transmissions", "count"),
        ("engine.signaling_bytes", "bytes"),
        ("engine.ack_records", "count"),
        ("engine.drops", "count"),
        ("engine.false_positive_tx", "count"),
        ("engine.faults.skipped", "count"),
        ("engine.faults.truncated", "count"),
        ("engine.faults.ack_lost", "count"),
        ("engine.faults.churn_wipes", "count"),
        ("engine.useful_tx_ratio", "ratio"),
        ("engine.share", "ratio"),
        ("engine.outside_session_ms", "ms"),
        ("session.self_ms", "ms"),
        ("session.us_per_contact", "us"),
        ("sim.event_queue_ns_per_op", "ns"),
        ("experiments.aggregate_us", "us"),
        ("experiments.report_json_ms", "ms"),
        ("experiments.job_codec_us", "us"),
        ("experiments.report_bytes", "bytes"),
        ("gateway.post_ms", "ms"),
        ("gateway.first_point_ms", "ms"),
        ("gateway.stream_ms", "ms"),
        ("gateway.cached_stream_ms", "ms"),
        ("coordinator.hop_ms", "ms"),
        ("coordinator.points.w0", "count"),
        ("coordinator.points.w1", "count"),
        ("coordinator.load_skew", "ratio"),
        ("wire.cached_round_trip_us", "us"),
        ("service.job_key_us", "us"),
    ] {
        add(name.into(), unit);
    }
    for (stage, unit) in [
        ("queue_wait_ms", "ms"),
        ("sim_ms", "ms"),
        ("serialize_us", "us"),
        ("write_us", "us"),
        ("frame_decode_us", "us"),
        ("cache_probe_us", "us"),
    ] {
        add(format!("daemon.{stage}_p50"), unit);
        add(format!("daemon.{stage}_p90"), unit);
    }
    for (name, unit) in [
        ("daemon.cache_hits", "count"),
        ("daemon.cache_misses", "count"),
        ("daemon.cache_hit_ratio", "ratio"),
        ("daemon.cache_bytes", "bytes"),
        ("daemon.worker_utilization", "ratio"),
        ("daemon.sim_share_cold", "ratio"),
        ("daemon.sim_share_cached", "ratio"),
        ("trace_overhead_pct", "%"),
    ] {
        add(name.into(), unit);
    }
    out
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: timed sweeps plus correctness checks.
    pub attempted: u64,
    /// Operations that failed: errors, panics, refusals and mismatches.
    pub failed: u64,
    /// One line per failure, echoed to stderr.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one operation, failing it with `error` when given.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: the end-to-end metrics for an untraced run, the
    /// per-layer metrics for a traced one.
    pub fn result_json(&self, traced: bool) -> String {
        let declared: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the objects in one top-level array of
    /// `BENCHMARK.json` (a tiny scanner; the file is flat and generated
    /// by hand, so no JSON library is needed).
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                let s = s.trim_start();
                let s = &s[1..];
                s[..s.find('"').expect("quoted name")].to_string()
            })
            .collect()
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn result_line_prints_every_declared_metric() {
        let mut outcome = Outcome::default();
        outcome.check(None);
        outcome.set("runs_per_s", 12.5);
        let line = outcome.result_json(false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\"")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        let traced = outcome.result_json(true);
        for (name, _) in per_layer() {
            assert!(traced.contains(&format!("\"{name}\":")), "{name}");
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check(None);
        outcome.check(Some("report mismatch".into()));
        assert!(!outcome.correct());
        assert!(outcome.result_json(false).contains("\"failed\": 1"));
    }
}
