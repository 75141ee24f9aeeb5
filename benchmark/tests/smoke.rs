//! Runs every workload in `--smoke` mode, untraced and traced, and
//! checks the output against `BENCHMARK.json`: every metric it names is
//! printed with its unit, and nothing else is.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use secflow_serve::Value;

const WORKLOADS: [&str; 4] = ["fig6_des", "mtd_stream", "flow_synth", "serve_mix"];

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> BTreeMap<String, String> {
    let Some(Value::Arr(items)) = spec.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("metric name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("metric unit")
                    .to_string(),
            )
        })
        .collect()
}

struct Run {
    /// `name → (unit, value)` from the per-metric lines.
    lines: BTreeMap<String, (String, f64)>,
    /// `name → (unit, value)` from the result line.
    result: BTreeMap<String, (String, f64)>,
    digest: String,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_secbench"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("secbench starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("not JSON: {l}: {e}")))
        .collect();
    let last = lines.last().expect("some output");
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Value::as_u64) >= Some(1));
    let Some(Value::Obj(metrics)) = last.get("metrics") else {
        panic!("result line without metrics: {stdout}");
    };
    let result = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            (name.clone(), (unit, value))
        })
        .collect();
    let mut per_line = BTreeMap::new();
    let mut digest = None;
    for l in &lines[..lines.len() - 1] {
        if let Some(name) = l.get("name").and_then(Value::as_str) {
            assert_eq!(l.get("workload").and_then(Value::as_str), Some(workload));
            let unit = l
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            let value = l
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(
                per_line.insert(name.to_string(), (unit, value)).is_none(),
                "{name} twice"
            );
        } else if let Some(d) = l.get("output_digest").and_then(Value::as_str) {
            digest = Some(d.to_string());
        } else {
            assert!(l.get("meta").is_some(), "unexpected line {l:?}");
        }
    }
    Run {
        lines: per_line,
        result,
        digest: digest.expect("an output_digest line"),
    }
}

fn units(m: &BTreeMap<String, (String, f64)>) -> BTreeMap<String, String> {
    m.iter().map(|(k, (u, _))| (k.clone(), u.clone())).collect()
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let spec = spec();
    let e2e = declared(&spec, "end_to_end");
    let layers = declared(&spec, "per_layer");
    for w in WORKLOADS {
        let plain = run(w, false);
        assert_eq!(units(&plain.result), e2e, "{w}: end-to-end metrics");
        assert_eq!(units(&plain.lines), e2e, "{w}: end-to-end metric lines");
        for (name, (_, v)) in &plain.result {
            assert!(v.is_finite() && *v > 0.0, "{w}: {name} = {v}");
        }
        let traced = run(w, true);
        assert_eq!(units(&traced.result), layers, "{w}: per-layer metrics");
        assert_eq!(units(&traced.lines), layers, "{w}: per-layer metric lines");
        for (name, (_, v)) in &traced.result {
            assert!(v.is_finite(), "{w}: {name} = {v}");
        }
        assert_eq!(
            plain.digest, traced.digest,
            "{w}: tracing changed the outputs"
        );
    }
}

#[test]
fn benchmark_json_names_every_workload() {
    let spec = spec();
    let Some(Value::Arr(items)) = spec.get("workloads") else {
        panic!("no workloads list");
    };
    let names: Vec<&str> = items
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}
