//! Smoke mode: a tiny run of each workload, untraced and traced. Every
//! metric `BENCHMARK.json` names must be printed with its unit, every
//! operation must pass the gate, and `predictions.json` must say where
//! each per-layer metric is measured and what it should move.

use std::process::Command;

#[path = "../src/json.rs"]
mod json;

use json::Json;

fn doc(text: &str) -> Json {
    json::parse(text).expect("the benchmark's own JSON parses")
}

fn benchmark() -> Json {
    doc(include_str!("../../BENCHMARK.json"))
}

fn predictions() -> Json {
    doc(include_str!("../predictions.json"))
}

fn text(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{v:?}: no {key}"))
        .to_string()
}

/// The `(name, unit)` pairs of one metric section.
fn section(key: &str) -> Vec<(String, String)> {
    let spec = benchmark();
    let list = spec.get(key).expect("the section exists").as_array();
    list.iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn workloads() -> Vec<String> {
    let spec = benchmark();
    let list = spec.get("workloads").expect("workloads").as_array();
    list.iter().map(|w| text(w, "name")).collect()
}

/// Whether `predictions.json` says `metric` is measured on `workload`.
fn measured_on(metric: &str, workload: &str) -> bool {
    predictions()
        .get("per_layer")
        .and_then(|p| p.get(metric))
        .and_then(|p| p.get("measured_on"))
        .is_some_and(|w| w.as_array().iter().any(|w| w.as_str() == Some(workload)))
}

/// One tiny run; returns its `metrics` object after checking that the
/// run passed its gate. The binary itself refuses to print a result
/// when a workload leaves out a metric `predictions.json` says it
/// measures.
fn run(workload: &str, seed: u64, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", &trace.to_string()])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.trim_end().lines().last().expect("a result line");
    let result = doc(line);
    let keys: Vec<&str> = result.as_object().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{line}");
    result.get("metrics").expect("metrics").clone()
}

/// Checks that exactly `metrics` are printed, each with its unit, and
/// returns their values in the same order.
fn values(workload: &str, printed: &Json, metrics: &[(String, String)]) -> Vec<f64> {
    let names: Vec<&str> = printed
        .as_object()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let wanted: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted, "{workload}: printed metrics");
    metrics
        .iter()
        .map(|(name, unit)| {
            let m = printed.get(name).expect("printed");
            assert_eq!(text(m, "unit"), *unit, "{workload}: unit of {name}");
            m.get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: {name} has no numeric value"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = section("end_to_end");
    for w in workloads() {
        for (v, (name, _)) in values(&w, &run(&w, 7, 0), &metrics).iter().zip(&metrics) {
            assert!(*v > 0.0, "{w}: end-to-end metric {name} reads {v}");
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    let metrics = section("per_layer");
    for w in workloads() {
        for (v, (name, unit)) in values(&w, &run(&w, 7, 1), &metrics).iter().zip(&metrics) {
            if !measured_on(name, &w) {
                assert_eq!(*v, 0.0, "{w}: {name} is not measured here");
            } else if ["s", "us", "ns"].contains(&unit.as_str()) {
                assert!(*v > 0.0, "{w}: host time {name} reads {v}");
            }
        }
    }
}

/// The indices of the metrics of `section` that must repeat exactly:
/// per-layer metrics marked exact, and the simulated end-to-end ones.
fn exact(section: &[(String, String)]) -> Vec<usize> {
    let spec = predictions();
    (0..section.len())
        .filter(|&i| {
            let name = &section[i].0;
            let p = spec.get("per_layer").and_then(|p| p.get(name));
            name.starts_with("sim_") || p.and_then(|p| p.get("exact")) == Some(&Json::Bool(true))
        })
        .collect()
}

#[test]
fn counts_and_simulated_metrics_repeat_across_runs() {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = section(key);
        let exact = exact(&metrics);
        assert!(!exact.is_empty());
        for w in workloads() {
            let a = values(&w, &run(&w, 3, trace), &metrics);
            let b = values(&w, &run(&w, 3, trace), &metrics);
            for &i in &exact {
                assert_eq!(a[i], b[i], "{w}: {} differs between runs", metrics[i].0);
            }
        }
    }
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let metrics = section("per_layer");
    let end_to_end = section("end_to_end");
    let workloads = workloads();
    let spec = predictions();
    let table = spec.get("per_layer").expect("per_layer").as_object();
    let named: Vec<&str> = table.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        named, wanted,
        "predictions.json lists the per-layer metrics"
    );
    for (name, p) in table {
        let measured = p.get("measured_on").expect("measured_on").as_array();
        assert!(!measured.is_empty(), "{name} is measured nowhere");
        for w in measured {
            assert!(workloads.iter().any(|x| Some(x.as_str()) == w.as_str()));
        }
        for pair in p.get("moves").expect("moves").as_array() {
            let [metric, workload] = pair.as_array() else {
                panic!("{name}: a move is [metric, workload]");
            };
            assert!(end_to_end
                .iter()
                .any(|(n, _)| Some(n.as_str()) == metric.as_str()));
            assert!(workloads
                .iter()
                .any(|x| Some(x.as_str()) == workload.as_str()));
        }
    }
    for w in &workloads {
        assert!(
            spec.get("workloads").and_then(|x| x.get(w)).is_some(),
            "{w}"
        );
    }
}

#[test]
fn unknown_workloads_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
