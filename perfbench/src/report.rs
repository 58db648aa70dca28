//! The benchmark's output: named metrics with units, the run's config,
//! and the final one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics every workload prints with `--trace 0`, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("efficiency_vs_serial", "ratio"),
];

/// Per-layer metrics every workload prints with `--trace 1`, with units.
/// A layer the workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ladder.serial.p50_us", "us"),
    ("ladder.serial.p99_us", "us"),
    ("ladder.scope.p50_us", "us"),
    ("ladder.scope.p99_us", "us"),
    ("ladder.submit.p50_us", "us"),
    ("ladder.submit.p99_us", "us"),
    ("ladder.ingress.p50_us", "us"),
    ("ladder.ingress.p99_us", "us"),
    ("ladder.durable.p50_us", "us"),
    ("ladder.durable.p99_us", "us"),
    ("ladder.routed.p50_us", "us"),
    ("ladder.routed.p99_us", "us"),
    ("ladder.tracing_overhead_us", "us"),
    ("swan.scope_added_p50_us", "us"),
    ("service.added_p50_us", "us"),
    ("ingress.added_p50_us", "us"),
    ("journal.added_p50_us", "us"),
    ("router.added_p50_us", "us"),
    ("service.job_p50_us", "us"),
    ("service.job_p99_us", "us"),
    ("journal.append_sync_p50_us.d1", "us"),
    ("journal.append_sync_p50_us.d8", "us"),
    ("router.connect_added_ms", "ms"),
    ("hyperqueue.segments_allocated_per_job", "count"),
    ("hyperqueue.pool_hit_ratio", "ratio"),
    ("hyperqueue.lock_acquisitions_per_job", "count"),
    ("hyperqueue.overhead_1w_pct", "%"),
    ("swan.tasks_per_job", "count"),
    ("swan.steals_per_job", "count"),
    ("swan.steal_success_ratio", "ratio"),
    ("swan.parks_per_job", "count"),
    ("swan.cross_group_steals", "count"),
    ("service.load_job_p50_us", "us"),
    ("service.load_job_p99_us", "us"),
    ("service.retry_ratio", "ratio"),
    ("service.high_water_in_flight", "count"),
    ("ingress.loop_wakeups_per_job", "count"),
    ("ingress.bytes_per_job", "bytes"),
    ("ingress.connect_p50_ms", "ms"),
    ("ingress.connect_p99_ms", "ms"),
    ("ingress.listen_overflows", "count"),
    ("journal.fsyncs_per_append", "ratio"),
    ("journal.bytes_per_job", "bytes"),
    ("journal.lag_max", "count"),
    ("router.backend_conns_per_client", "ratio"),
    ("router.retries_synthesized", "count"),
    ("load.p50_ms", "ms"),
    ("load.p99_ms", "ms"),
    ("load.p50_ms.low", "ms"),
    ("load.p99_ms.low", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("load.sustained_jobs_s", "1/s"),
    ("paper.batch_mib_s", "MiB/s"),
    ("paper.speedup_vs_serial", "x"),
    ("paper.hq_vs_tbb", "x"),
    ("paper.hq_vs_pthreads", "x"),
];

/// Collected metrics, in the order they were added.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Requests or operations attempted.
    pub attempted: u64,
    /// Attempts that failed (refused, errored, lost or wrong).
    pub failed: u64,
    /// False once any output differed from its serial elision.
    pub correct: bool,
}

impl Report {
    /// An empty report that is correct until shown otherwise.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds one metric; prints it for a human reader on stderr.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<40} {value:>14.4} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// The final result line: `correct`, `attempted`, `failed`, and
    /// `metrics` holding exactly the `listed` metrics in list order (0
    /// for one the run left unmeasured).
    ///
    /// # Panics
    ///
    /// If a recorded metric is missing from `listed` or carries another
    /// unit: the lists are published in `BENCHMARK.json`.
    pub fn to_json(&self, listed: &[(&str, &str)]) -> String {
        for (name, _, unit) in &self.metrics {
            assert!(
                listed.contains(&(name.as_str(), *unit)),
                "metric {name} [{unit}] is not in the published list"
            );
        }
        let mut m = String::new();
        for (i, (name, unit)) in listed.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |&(_, v, _)| v);
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A flat JSON object of string and number fields, built in order.
#[derive(Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{key}\": ");
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(self.body, "\"{escaped}\"");
        self
    }

    /// Adds a number field.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a list of strings.
    pub fn strs(mut self, key: &str, values: &[String]) -> Self {
        self.key(key);
        let items: Vec<String> = values
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
        self
    }

    /// Adds a list of numbers.
    pub fn nums(mut self, key: &str, values: &[f64]) -> Self {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
        self
    }

    /// The object as JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn published(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list ends")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string ends")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        for (section, listed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = listed
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(published(section), want, "{section}");
        }
    }

    #[test]
    fn the_result_line_holds_every_listed_metric_in_order() {
        let mut r = Report::new();
        r.metric("efficiency_vs_serial", 0.5, "ratio");
        r.attempted = 10;
        let json = r.to_json(END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(json.contains("\"efficiency_vs_serial\": {\"value\": 0.5, \"unit\": \"ratio\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        let order: Vec<usize> = END_TO_END
            .iter()
            .map(|(n, _)| json.find(&format!("\"{n}\"")).expect("listed"))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "not in the published list")]
    fn an_unlisted_metric_is_refused() {
        let mut r = Report::new();
        r.metric("made_up", 1.0, "ms");
        r.to_json(END_TO_END);
    }
}
