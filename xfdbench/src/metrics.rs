//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end metrics
//! from an untraced run, the per-layer metrics from a traced run. A
//! per-layer metric of a layer the workload never calls reads 0.
//! `BENCHMARK.json` lists the same names and units; the smoke test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Open-loop request rates of the `serve-mix` traced run's rate steps.
/// They straddle the knee of two keep-alive connections, near 40
/// requests per second: once a connection is busy back to back, every
/// response takes about 40 ms, because the server sends it as several
/// small writes without `TCP_NODELAY` and they wait on delayed ACKs.
pub const RATE_STEPS: [u32; 4] = [10, 20, 40, 80];

/// The latency limit that `server.max_rps_at_slo` holds the p99 to.
pub const SLO_P99_MS: f64 = 25.0;

/// `(name, unit)` of the per-layer metrics, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // xml
    ("xml.parse_ms", "ms"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("xml.nodes", "count"),
    // schema
    ("schema.infer_ms", "ms"),
    ("corpus.plan_ms", "ms"),
    // relation
    ("relation.encode_ms", "ms"),
    ("relation.tuples", "count"),
    ("relation.cells", "count"),
    ("relation.merge_ms", "ms"),
    ("relation.shard_encode_ms", "ms"),
    ("corpus.partials_built", "count"),
    // partition
    ("partition.products_error_only", "count"),
    ("partition.products_materialized", "count"),
    ("partition.early_exits", "count"),
    ("partition.early_exit_ratio", "ratio"),
    ("partition.summary_hits", "count"),
    ("partition.cache_hit_ratio", "ratio"),
    ("partition.evictions", "count"),
    ("partition.peak_resident_bytes", "bytes"),
    // core
    ("core.discover_ms", "ms"),
    ("core.lattice_nodes", "count"),
    ("core.products", "count"),
    ("core.targets_created", "count"),
    ("core.redundancy_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.passes_ms", "ms"),
    ("core.memo_hit_ratio", "ratio"),
    // corpus
    ("corpus.add_ms", "ms"),
    ("corpus.rm_ms", "ms"),
    ("corpus.prepare_ms", "ms"),
    ("corpus.segment_bytes", "bytes"),
    ("corpus.memo_resident_bytes", "bytes"),
    ("corpus.stored_bytes_per_input_byte", "ratio"),
    ("corpus.cold_p50_ms", "ms"),
    // server
    ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.ttfb_p50_ms", "ms"),
    ("server.p50_ms.r10", "ms"),
    ("server.p50_ms.r20", "ms"),
    ("server.p50_ms.r40", "ms"),
    ("server.p50_ms.r80", "ms"),
    ("server.p99_ms.r10", "ms"),
    ("server.p99_ms.r20", "ms"),
    ("server.p99_ms.r40", "ms"),
    ("server.p99_ms.r80", "ms"),
    ("server.max_rps_at_slo", "1/s"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.parse_free_hits", "count"),
    ("server.rejected", "count"),
    ("server.worker_panics", "count"),
    ("server.result_cache_evictions", "count"),
    ("server.stage_s.infer", "s"),
    ("server.stage_s.encode", "s"),
    ("server.stage_s.discover", "s"),
    ("server.stage_s.redundancy", "s"),
    ("bench.gen_lag_p99_ms.r10", "ms"),
    ("bench.gen_lag_p99_ms.r20", "ms"),
    ("bench.gen_lag_p99_ms.r40", "ms"),
    ("bench.gen_lag_p99_ms.r80", "ms"),
    // cluster / transport
    ("cluster.respawn_ms", "ms"),
    ("cluster.warm_ms", "ms"),
    ("cluster.warm_hit_ratio", "ratio"),
    ("cluster.encode_remote", "count"),
    ("cluster.pass_remote", "count"),
    ("cluster.partials_pushed", "count"),
    ("cluster.forest_ships", "count"),
    ("cluster.retried", "count"),
    ("cluster.fallback", "count"),
    ("cluster.workers_lost", "count"),
    ("cluster.cold_p50_ms", "ms"),
    // the harness itself
    ("bench.trace_overhead_pct", "%"),
];

/// Metric values of one run, keyed by catalogued name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Set a catalogued metric. Panics on a name missing from the
    /// catalogue: that is a bug in the benchmark, not in the program.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `false` when any output differed from its reference.
    pub correct: bool,
    pub metrics: Metrics,
}

/// Counts toward the result line, shared by all workloads.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches (also counted in `failed`).
    pub mismatched: u64,
}

impl Tally {
    /// Record one attempted operation's outcome; a failure is logged to
    /// stderr with its reason.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            if f.mismatch {
                self.mismatched += 1;
            }
            if self.failed <= 5 {
                eprintln!("xfdbench: operation failed: {}", f.reason);
            }
        }
    }
}

/// Why an operation failed.
#[derive(Debug)]
pub struct Failure {
    pub reason: String,
    /// The operation completed but its output differed from the reference.
    pub mismatch: bool,
}

impl Failure {
    pub fn error(reason: impl Into<String>) -> Failure {
        Failure {
            reason: reason.into(),
            mismatch: false,
        }
    }

    pub fn mismatch(reason: impl Into<String>) -> Failure {
        Failure {
            reason: reason.into(),
            mismatch: true,
        }
    }
}

/// The result line: one JSON object with every metric of the run's kind.
pub fn result_line(result: &RunResult, traced: bool) -> String {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = result.metrics.get(name).unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Human-readable metric lines, one per metric.
pub fn metric_lines(result: &RunResult, traced: bool) -> String {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    for (name, unit) in catalogue {
        let v = result.metrics.get(name).unwrap_or(0.0);
        let _ = writeln!(out, "  {name:<36} {v:>14.4} {unit}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
        // Every rate step has its catalogued metrics (`set` panics if not).
        let mut m = Metrics::default();
        for r in RATE_STEPS {
            for kind in ["server.p50_ms", "server.p99_ms", "bench.gen_lag_p99_ms"] {
                m.set(&format!("{kind}.r{r}"), 1.0);
            }
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = RunResult {
            attempted: 3,
            correct: true,
            ..RunResult::default()
        };
        r.metrics.set("op_p50_ms", 1.25);
        let v = crate::json::parse(&result_line(&r, false)).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), END_TO_END.len());
        let p50 = m.get("op_p50_ms").unwrap();
        assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(p50.get("unit").and_then(|v| v.as_str()), Some("ms"));
    }
}
