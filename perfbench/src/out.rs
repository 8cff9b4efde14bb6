//! The metric catalogue and the result a run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a test
//! keeps them equal). An untraced run prints every end-to-end metric; a
//! traced run prints every per-layer metric. A per-layer metric of a
//! layer the workload does not exercise is printed as 0 — for example
//! `exp.*` outside `paper-smoke` — and the doc lists which those are.

use crate::stats::Dist;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")];

/// The experiment ids of the registry, in registry order.
pub const EXPERIMENTS: [&str; 23] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "ext-stigroute",
    "ext-tiebreak",
    "ext-degradation",
    "ext-overhead",
    "ext-traffic",
    "ext-aco",
    "ext-dv",
    "ext-failure",
    "ext-livemap",
    "ext-zoo",
    "ext-zoo-pop",
    "ext-zoo-cache",
];

/// Per-layer metrics other than `exp.<id>_s`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("radio.advance_ms_p50", "ms"),
    ("radio.advance_share", "share"),
    ("radio.links_formed", "count"),
    ("radio.links_broken", "count"),
    ("radio.topology_bumps", "count"),
    ("radio.link_rebuilds", "count"),
    ("radio.grid_incremental_updates", "count"),
    ("radio.grid_cell_clamps", "count"),
    ("radio.edges", "count"),
    ("radio.bytes_computed", "bytes"),
    ("core.step_self_ms_p50", "ms"),
    ("core.route_entries", "count"),
    ("core.table_writes", "count"),
    ("core.migrations", "count"),
    ("core.mapping_step_us", "us"),
    ("core.routing_step_us", "us"),
    ("zoo.agents.step_us", "us"),
    ("zoo.stigmergic.step_us", "us"),
    ("zoo.antnet.step_us", "us"),
    ("zoo.epidemic.step_us", "us"),
    ("zoo.spray-and-wait.step_us", "us"),
    ("exec.cells", "count"),
    ("exec.cell_ms_p50", "ms"),
    ("exec.queue_wait_s", "s"),
    ("exec.busy_frac", "share"),
    ("serve.step_ms_p50", "ms"),
    ("serve.capture_ms_p50", "ms"),
    ("serve.publish_us_p50", "us"),
    ("serve.load_ns_p50", "ns"),
    ("serve.respond_ns.route", "ns"),
    ("serve.respond_ns.links", "ns"),
    ("serve.respond_ns.reach", "ns"),
    ("serve.respond_ns.info", "ns"),
    ("serve.queries_total", "count"),
    ("serve.errors_total", "count"),
    ("serve.snapshot_rejects_total", "count"),
    ("serve.steps_seen", "count"),
    ("serve.light.query_p50_us", "us"),
    ("serve.light.query_p99_us", "us"),
    ("gen.late_us_p50", "us"),
    ("gen.late_us_p99", "us"),
    ("gen.retries", "count"),
    ("paper.claims_failed", "count"),
    ("failed_frac", "share"),
    ("trace.overhead_frac", "share"),
    ("machine.nproc", "count"),
    ("machine.two_thread_speedup", "x"),
];

/// The name of the per-experiment metric of `id`.
pub fn exp_metric(id: &str) -> String {
    format!("exp.{id}_s")
}

/// Every per-layer metric, `exp.<id>_s` included, in catalogue order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(EXPERIMENTS.iter().map(|id| (exp_metric(id), "s")));
    names
}

#[derive(Clone, Debug)]
struct Value {
    value: f64,
    /// Samples behind a percentile, when the value is one.
    n: Option<usize>,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Out {
    values: BTreeMap<String, Value>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Out {
    /// Records a metric (unit comes from the catalogue).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), Value { value, n: None });
    }

    /// Records a percentile together with its sample count.
    pub fn set_n(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), Value { value, n: Some(n) });
    }

    /// Records `setup_s`, the median of one run's set-up times, and
    /// notes every sample.
    pub fn setup(&mut self, seconds: Vec<f64>) {
        let listed: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
        self.note(format!("setup samples (s): {}", listed.join(" ")));
        let d = Dist::new(seconds);
        self.set_n("setup_s", d.p(50.0), d.n());
    }

    /// Counts `n` operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations (error replies, lost replies).
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.failures.push(why.into());
        }
    }

    /// One correctness check: an attempted operation that fails when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// A line for the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Renders the human-readable lines and, last, the one-line JSON
    /// result holding exactly the `wanted` metrics. A wanted metric
    /// that was never recorded is 0 for a per-layer metric
    /// (`fill_missing`) and a failed check otherwise; a non-finite
    /// value is a failed check.
    pub fn render(&mut self, wanted: &[(String, &'static str)], fill_missing: bool) -> String {
        for (name, _) in wanted {
            match self.values.get(name) {
                Some(v) if v.value.is_finite() => {}
                Some(v) => {
                    let msg = format!("metric {name} is not finite ({})", v.value);
                    self.check(false, || msg);
                }
                None if fill_missing => self.set(name, 0.0),
                None => self.check(false, || format!("metric {name} was not measured")),
            }
        }
        let mut text = String::new();
        for line in &self.notes {
            let _ = writeln!(text, "{line}");
        }
        for (name, unit) in wanted {
            if let Some(v) = self.values.get(name) {
                let n = v.n.map(|n| format!(" (n={n})")).unwrap_or_default();
                let _ = writeln!(text, "{name} = {} {unit}{n}", v.value);
            }
        }
        for f in &self.failures {
            let _ = writeln!(text, "CHECK FAILED: {f}");
        }
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).map(|v| v.value).filter(|v| v.is_finite());
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", v.unwrap_or(0.0))
            })
            .collect();
        let _ = writeln!(
            text,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> =
            per_layer_names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn experiment_ids_match_the_registry() {
        let ids: Vec<&str> = agentnet_experiments::registry::all().iter().map(|e| e.id).collect();
        assert_eq!(ids, EXPERIMENTS);
    }

    #[test]
    fn render_prints_exactly_the_wanted_metrics_last() {
        let mut out = Out::default();
        out.set_n("op_p50_ms", 1.25, 10);
        out.set("setup_s", 0.5);
        out.check(true, String::new);
        let wanted = vec![("setup_s".to_string(), "s"), ("op_p50_ms".to_string(), "ms")];
        let text = out.render(&wanted, false);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(text.contains("op_p50_ms = 1.25 ms (n=10)"));
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut out = Out::default();
        out.check(true, String::new);
        let text = out.render(&[("setup_s".to_string(), "s")], false);
        assert!(!out.correct());
        assert!(text.contains("CHECK FAILED: metric setup_s was not measured"));
    }
}
