//! Smoke run: every workload at a twentieth of its size, one repetition,
//! end to end and traced. Each must print exactly the metrics
//! `BENCHMARK.json` names, with their units, and fail no run.

use cfp_trace::json::{self, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    let metrics = doc.get(section).and_then(Json::as_arr).expect("metric list");
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
    metrics.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn check(result: &Json, want: &[(String, String)], context: &str) {
    let Some(Json::Obj(top)) = Some(result) else { panic!("{context}: not an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{context}");
    assert!(matches!(result.get("correct"), Some(Json::Bool(true))), "{context}: {result:?}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{context}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1, "{context}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{context}: no metrics") };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{context}: {name} = {value:?}");
            (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
        })
        .collect();
    assert_eq!(got, want, "{context}");
}

#[test]
fn every_workload_prints_every_declared_metric_and_fails_nothing() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        for seed in [0, 7] {
            let result = run(name, seed, 0);
            check(&result, &end_to_end, &format!("{name} seed {seed}"));
            let success = result.get("metrics").and_then(|m| m.get("success_rate"));
            assert_eq!(success.and_then(|s| s.get("value")).and_then(Json::as_f64), Some(1.0));
        }
        check(&run(name, 0, 1), &per_layer, &format!("{name} traced"));
    }
}
