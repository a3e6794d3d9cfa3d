//! What a run measured and how it is printed: a human-readable table with
//! sample counts, then one JSON line (the last line of standard output).

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload reports
/// every one; what the "operation" is per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.click_ms", "ms"),
    ("serve.open_ms", "ms"),
    ("serve.backtrack_us", "us"),
    ("serve.context_us", "us"),
    ("serve.failed", "ratio"),
    ("serve.within_100ms", "ratio"),
    ("session.self_ms", "ms"),
    ("session.self_clipped", "ratio"),
    ("greedy.select_ms", "ms"),
    ("greedy.select_tail_ms", "ms"),
    ("greedy.rounds", "count"),
    ("greedy.budget_exhausted", "count"),
    ("greedy.share", "ratio"),
    ("quality.evaluate_us", "us"),
    ("feedback.reward_us", "us"),
    ("feedback.context_us", "us"),
    ("index.neighbors_us", "us"),
    ("cache.neighbors_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("index.build_ms", "ms"),
    ("index.apply_delta_ms", "ms"),
    ("index.rescored_ratio", "ratio"),
    ("mining.discover_ms", "ms"),
    ("mining.delta_epoch_ms", "ms"),
    ("mining.delta_diff_us", "us"),
    ("mining.groups_touched_ratio", "ratio"),
    ("data.ingest_pull_us", "us"),
    ("data.append_actions_ms", "ms"),
    ("data.wal_append_us", "us"),
    ("data.wal_commit_ms", "ms"),
    ("data.wal_bytes_per_action", "B"),
    ("live.ingest_p99_ms", "ms"),
    ("live.ingest_wait_ms", "ms"),
    ("live.refresh_p50_ms", "ms"),
    ("live.refresh_p99_ms", "ms"),
    ("live.refresh_not_due_ms", "ms"),
    ("live.refresh_written_ms", "ms"),
    ("live.freshness_p50_ms", "ms"),
    ("live.freshness_tail_ms", "ms"),
    ("live.click_during_refresh_ms", "ms"),
    ("live.click_outside_refresh_ms", "ms"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.recover_ms", "ms"),
    ("durable.replay_frames", "count"),
    ("durable.replay_ms_per_frame", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("snapshot.load_ms", "ms"),
    ("gen.lateness_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("replay.greedy_mismatches", "count"),
    ("replay.index_mismatches", "count"),
    ("replay.delta_mismatches", "count"),
];

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → (value, sample count).
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Operations attempted and failed (errors and failed output checks).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, in words.
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Set a metric when it could be computed. An end-to-end metric that
    /// could not be (e.g. a percentile with too thin a tail) fails the
    /// output check; a per-layer one is left out and reports 0 samples.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        match value {
            Some(v) => self.set(name, v, samples),
            None if END_TO_END.iter().any(|&(n, _)| n == name) => {
                self.violate(format!("{name}: not enough samples ({samples})"))
            }
            None => {}
        }
    }

    /// Record a failed output check that is also a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    /// Record a failed output check.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Print the table and the JSON result line for the given metric set;
    /// returns whether every output check passed.
    pub fn print(mut self, set: &[(&'static str, &'static str)], required: bool) -> bool {
        for &(name, _) in set {
            match self.metrics.get(name) {
                Some(&(v, _)) if v.is_finite() => {}
                Some(_) => self.violations.push(format!("{name}: not finite")),
                None if required => self.violations.push(format!("{name}: not measured")),
                None => {
                    self.metrics.insert(name, (0.0, 0));
                }
            }
        }
        for v in &self.violations {
            println!("CHECK FAILED: {v}");
        }
        println!(
            "{:<32} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        let mut json = Vec::new();
        for &(name, unit) in set {
            let (value, samples) = self.metrics.get(name).copied().unwrap_or((f64::NAN, 0));
            println!("{name:<32} {value:>16.4} {unit:<6} {samples:>8}");
            let value = if value.is_finite() { value } else { 0.0 };
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.violations.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let listed = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn missing_optional_metrics_default_to_zero() {
        let mut r = Report::default();
        r.set("serve.click_ms", 1.5, 10);
        assert!(r.print(&PER_LAYER[..2], false));
        let mut r = Report::default();
        r.set_opt("greedy.select_tail_ms", None, 3);
        assert!(r.print(PER_LAYER, false));
        let mut r = Report::default();
        r.set_opt("p50_ms", None, 3);
        assert!(!r.print(&END_TO_END[..1], true));
    }
}
