//! Smoke test of the benchmark at `--smoke` scale: every workload runs
//! untraced once and traced twice with the same seed. It checks that
//!
//! * every metric `BENCHMARK.json` lists is printed, with its unit;
//! * no operation fails and every output matches its reference;
//! * count metrics repeat exactly for a seed;
//! * the trace file parses and has spans of every layer the workload
//!   calls.

use std::path::{Path, PathBuf};
use std::process::Command;

use xfdbench::json::{self, Value};
use xfdbench::run::Workload;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of the metrics listed under `key`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload and return its parsed result line.
fn run(dir: &Path, workload: &str, traced: bool, trace_file: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_xfdbench"))
        .current_dir(dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--trace-file")
        .arg(trace_file)
        .output()
        .expect("xfdbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {traced}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

fn metrics_of(result: &Value) -> Vec<(String, String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            (name.clone(), unit.to_string(), value)
        })
        .collect()
}

/// Layers whose spans each workload's traced run must contain.
fn layers(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::DocDeep | Workload::DocDblp => &["xml", "schema", "relation", "core"],
        Workload::ServeMix => &["server"],
        Workload::CorpusChurn => &["xml", "corpus", "relation", "core"],
        Workload::ClusterChurn => &["xml", "corpus", "cluster", "core"],
    }
}

#[test]
fn every_workload_meets_the_contract_at_smoke_scale() {
    let bench = benchmark_json();
    let end_to_end = listed(&bench, "end_to_end");
    let per_layer = listed(&bench, "per_layer");
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("xfdbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");

    for workload in Workload::ALL {
        let name = workload.name();
        let trace_file = dir.join(format!("trace-{name}.json"));
        let plain = run(&dir, name, false, &trace_file);
        let traced = [
            run(&dir, name, true, &trace_file),
            run(&dir, name, true, &trace_file),
        ];
        for (result, expected) in [(&plain, &end_to_end), (&traced[0], &per_layer)] {
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let got: Vec<(String, String)> = metrics_of(result)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(&got, expected, "{name}: metric names and units");
        }
        for (n, _, v) in metrics_of(&plain) {
            assert!(v > 0.0, "{name}: end-to-end metric {n} is {v}");
        }
        let counts = |r: &Value| -> Vec<(String, f64)> {
            metrics_of(r)
                .into_iter()
                .filter(|(_, u, _)| u == "count" || u == "bytes")
                .map(|(n, _, v)| (n, v))
                .collect()
        };
        assert_eq!(
            counts(&traced[0]),
            counts(&traced[1]),
            "{name}: counts repeat for a seed"
        );

        let trace = json::parse(&std::fs::read_to_string(&trace_file).expect("trace file"))
            .expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        for layer in layers(workload) {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("cat").and_then(Value::as_str) == Some(layer)
                }),
                "{name}: no span of layer {layer}"
            );
        }
    }
}
