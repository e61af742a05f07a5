//! The metric catalogue every run reports, and the one-line JSON result.
//!
//! Every workload prints the same names: the end-to-end list untraced, the
//! per-layer list traced. A layer the workload's operation never calls
//! reports 0 (for example `classify.corpus_ms` on a load replay, which
//! classifies nothing). `BENCHMARK.json` lists the same names; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_cost_p50", "ratio"),
    ("op_cost_p90", "ratio"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured in the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_ms", "ms"),
    ("corpus.sites", "count"),
    ("corpus.body_bytes", "bytes"),
    ("corpus.sites_per_s", "1/s"),
    ("html.tokenize_ms", "ms"),
    ("html.tokens", "count"),
    ("html.mb_per_s", "MB/s"),
    ("html.text_content_ms", "ms"),
    ("html.title_ms", "ms"),
    ("html.class_set_ms", "ms"),
    ("classify.feed_text_ms", "ms"),
    ("classify.classify_ms", "ms"),
    ("classify.corpus_ms", "ms"),
    ("classify.us_per_site", "us"),
    ("github.history_ms", "ms"),
    ("github.prs", "count"),
    ("survey.pairs_ms", "ms"),
    ("survey.pairs_total", "count"),
    ("survey.run_ms", "ms"),
    ("survey.responses", "count"),
    ("analysis.scenario_ms", "ms"),
    ("analysis.run_all_ms", "ms"),
    ("analysis.table1_ms", "ms"),
    ("analysis.table2_ms", "ms"),
    ("analysis.table3_ms", "ms"),
    ("analysis.figure1_ms", "ms"),
    ("analysis.figure2_ms", "ms"),
    ("analysis.figure3_ms", "ms"),
    ("analysis.figure4_ms", "ms"),
    ("analysis.figure5_ms", "ms"),
    ("analysis.figure6_ms", "ms"),
    ("analysis.figure7_ms", "ms"),
    ("analysis.figure8_ms", "ms"),
    ("analysis.figure9_ms", "ms"),
    ("analysis.render_ms", "ms"),
    ("domain.resolver_hits", "count"),
    ("domain.resolver_misses", "count"),
    ("domain.resolver_hit_rate", "ratio"),
    ("domain.resolve_ns", "ns"),
    ("engine.pool_workers", "count"),
    ("engine.tasks_run", "count"),
    ("load.replay_ms", "ms"),
    ("load.replay_seq_ms", "ms"),
    ("load.fetch_calls", "count"),
    ("load.wire_requests", "count"),
    ("load.redirects_followed", "count"),
    ("load.well_known_probes", "count"),
    ("load.decisions", "count"),
    ("load.connection_reuse_ratio", "ratio"),
    ("load.retries", "count"),
    ("load.retry_success_rate", "ratio"),
    ("load.errors.invalid-url", "count"),
    ("load.errors.host-not-found", "count"),
    ("load.errors.connection-refused", "count"),
    ("load.errors.https-required", "count"),
    ("load.errors.http-status", "count"),
    ("load.errors.too-many-redirects", "count"),
    ("load.errors.invalid-json", "count"),
    ("load.errors.timeout", "count"),
    ("net.get_ns", "ns"),
    ("net.head_ns", "ns"),
    ("net.serve_ns", "ns"),
    ("browser.verdict_ns", "ns"),
    ("net.fetch_share", "ratio"),
    ("browser.verdict_share", "ratio"),
    ("domain.resolve_share", "ratio"),
    ("load.other_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The `NetError` classes, in `load.errors.<class>` order.
pub const ERROR_CLASSES: &[&str] = &[
    "invalid-url",
    "host-not-found",
    "connection-refused",
    "https-required",
    "http-status",
    "too-many-redirects",
    "invalid-json",
    "timeout",
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations (reproductions or replays) run and checked.
    pub attempted: u64,
    /// Operations whose output failed the gate.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// The run's environment, printed alongside the result.
    pub env: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn env(&mut self, key: &'static str, value: impl ToString) {
        self.env.push((key, value.to_string()));
    }

    /// `(name, value, unit)` for every metric of the catalogue, in order.
    /// End-to-end metrics must all be measured; a per-layer metric the
    /// workload does not exercise reads 0. A value outside the catalogue,
    /// or one that is not finite, is an error.
    pub fn rows(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(name, _)| name == k))
        {
            return Err(format!("metric {stray} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match (self.values.get(name), traced) {
                    (Some(v), _) => *v,
                    (None, true) => 0.0,
                    (None, false) => return Err(format!("metric {name} was not measured")),
                };
                if value.is_finite() {
                    Ok((name, value, unit))
                } else {
                    Err(format!("metric {name} is not finite: {value}"))
                }
            })
            .collect()
    }
}

/// Escape a string for a JSON literal (names and environment values are
/// plain ASCII, but stay safe).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(String, f64, &str)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The environment line printed before the result.
pub fn env_json(env: &[(&str, String)]) -> String {
    let fields: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{\"env\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for class in ERROR_CLASSES {
            assert!(seen.contains(format!("load.errors.{class}").as_str()));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"name\":").count();
        // Three workloads plus every metric.
        assert_eq!(listed, 3 + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn rows_fill_unexercised_layers_and_reject_strays() {
        let mut run = RunResult::default();
        run.set("load.replay_ms", 12.5);
        let rows = run.rows(true).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().any(|r| r.0 == "load.replay_ms" && r.1 == 12.5));
        assert!(rows
            .iter()
            .any(|r| r.0 == "classify.corpus_ms" && r.1 == 0.0));
        // End-to-end metrics may not be missing.
        assert!(run.rows(false).is_err());
        run.set("no.such_metric", 1.0);
        assert!(run.rows(true).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("setup_s".into(), 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
