//! The metric catalogue and the result a run prints: one JSON line of
//! host facts and sample counts, then the result line the benchmark
//! contract reads (`correct`, `attempted`, `failed`, `metrics`).

use std::collections::BTreeMap;

/// `(name, unit, better)` of every end-to-end metric, printed by an
/// untraced run. `BENCHMARK.json` lists the same metrics. The latency
/// tails (p90, p99) go to the record line instead: on a shared host the
/// wake-up latency of idle vCPUs moves them by up to 70% between runs.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_ops", "1/s", "higher"),
    ("plan_energy_mj", "mJ", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by a
/// traced run. A layer the workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str, &str); 37] = [
    ("server.self_us_p50", "us", "lower"),
    ("server.bytes_per_req", "bytes", "lower"),
    ("service.inline_us_p50", "us", "lower"),
    ("service.wait_us_p50", "us", "lower"),
    ("service.path_frac.inline-hit", "frac", "higher"),
    ("service.path_frac.cache-hit", "frac", "higher"),
    ("service.path_frac.flight-join", "frac", "higher"),
    ("service.path_frac.coalesced", "frac", "higher"),
    ("service.path_frac.registry-hit", "frac", "higher"),
    ("service.path_frac.solved", "frac", "lower"),
    ("service.mean_batch", "count", "higher"),
    ("service.max_queue_depth", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.failed", "count", "lower"),
    ("service.allocs_per_req", "count", "lower"),
    ("registry.hit_us_p50", "us", "lower"),
    ("registry.store_us_p50", "us", "lower"),
    ("registry.revalidate_us_per_entry", "us", "lower"),
    ("registry.hits", "count", "higher"),
    ("registry.writes", "count", "lower"),
    ("registry.quarantined", "count", "lower"),
    ("artifact.render_us_p50", "us", "lower"),
    ("artifact.decode_us_p50", "us", "lower"),
    ("artifact.fingerprint_us_p50", "us", "lower"),
    ("obs.plan_hash_us_p50", "us", "lower"),
    ("solver.solve_us_p50", "us", "lower"),
    ("solver.plan_us_p50", "us", "lower"),
    ("solver.sweep_us_per_window", "us", "lower"),
    ("solver.fill_us", "us", "lower"),
    ("solver.extract_us", "us", "lower"),
    ("planner.build_ms_p50", "ms", "lower"),
    ("dse.explore_ms", "ms", "lower"),
    ("dse.points", "count", "lower"),
    ("pareto.kept_frac", "frac", "lower"),
    ("pareto.reduce_us", "us", "lower"),
    ("tinyengine.lower_ms", "ms", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
];

/// The validity metrics every traced run adds after [`PER_LAYER`].
pub const TRACE_CHECKS: [(&str, &str, &str); 2] = [
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.residual_frac", "frac", "lower"),
];

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or returned a wrong output.
    pub failed: u64,
    /// Failed output, reference or workload-shape checks.
    pub violations: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    facts: Vec<(String, String)>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds a host fact or sample count; `json` is an encoded JSON value.
    pub fn fact(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.facts.push((key.into(), json.into()));
    }

    /// Counts `ops` attempted operations, `failed` of them failed.
    pub fn ops(&mut self, ops: usize, failed: usize) {
        self.attempted += ops as u64;
        self.failed += failed as u64;
    }

    /// Every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Renders the facts line and the result line, and whether the run
    /// was correct. End-to-end metrics must all have been measured;
    /// per-layer metrics default to 0.
    pub fn render(mut self, traced: bool) -> (String, String, bool) {
        let mut metrics = Vec::new();
        let catalogue: Vec<_> = if traced {
            PER_LAYER.iter().chain(&TRACE_CHECKS).collect()
        } else {
            END_TO_END.iter().collect()
        };
        for &(name, unit, _) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.violations.push(format!("{name} is not finite ({v})"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.violations.push(format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "'")))
            .collect();
        let mut facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        facts.push(format!("\"violations\": [{}]", violations.join(", ")));
        let facts = format!("{{\"record\": {{{}}}}}", facts.join(", "));
        let correct = self.correct();
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (facts, result, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_dvfs::artifact::json;

    #[test]
    fn result_line_lists_every_metric_and_flags_missing_ones() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.set("setup_s", 0.25);
        let (_, line, correct) = r.render(false);
        assert!(!correct, "unmeasured metrics fail the run");
        let value = json::parse(&line).expect("result line is JSON");
        let obj = value.as_object("result").expect("object");
        assert_eq!(obj.get_u64("attempted").unwrap(), 10);
        let metrics = obj.get("metrics").unwrap().as_object("metrics").unwrap();
        let setup = metrics.get("setup_s").unwrap().as_object("metric").unwrap();
        assert_eq!(setup.get_f64("value").unwrap(), 0.25);
        assert_eq!(setup.get_str("unit").unwrap(), "s");
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let value = json::parse(&text).expect("BENCHMARK.json parses");
        let obj = value.as_object("benchmark").unwrap();
        let listed = |key: &'static str| -> Vec<(String, String, String)> {
            obj.get(key)
                .unwrap()
                .as_array(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object(key).unwrap();
                    (
                        m.get_str("name").unwrap().to_string(),
                        m.get_str("unit").unwrap().to_string(),
                        m.get_str("better").unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        let per_layer: Vec<_> = PER_LAYER.iter().chain(&TRACE_CHECKS).copied().collect();
        assert_eq!(listed("per_layer"), own(&per_layer));
    }
}
