//! The metric names every run prints, and the pieces of them that all
//! workloads compute the same way.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::OnceLock;

use crate::json::{self, Json};
use crate::trace::{self, Span};
use crate::util::{median, peak_rss_mb, quantile, Metrics, Outcome};

/// Names and units of every metric, and its section.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
/// Which workloads measure each per-layer metric.
const PREDICTIONS: &str = include_str!("../predictions.json");

fn parsed(cell: &'static OnceLock<Json>, text: &'static str) -> &'static Json {
    cell.get_or_init(|| json::parse(text).expect("the benchmark's own JSON parses"))
}

/// The `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn section(key: &str) -> Vec<(&'static str, &'static str)> {
    static DOC: OnceLock<Json> = OnceLock::new();
    let doc = parsed(&DOC, BENCHMARK);
    let field = |m: &'static Json, k| m.get(k).and_then(Json::as_str).expect("name and unit");
    doc.get(key)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Whether `predictions.json` lists `workload` under the metric's
/// `measured_on`.
fn measured_on(metric: &str, workload: &str) -> bool {
    static DOC: OnceLock<Json> = OnceLock::new();
    parsed(&DOC, PREDICTIONS)
        .get("per_layer")
        .and_then(|p| p.get(metric))
        .and_then(|p| p.get("measured_on"))
        .is_some_and(|w| w.as_array().iter().any(|w| w.as_str() == Some(workload)))
}

/// The result line of a run of `workload`: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`, the metrics
/// in `BENCHMARK.json`'s order with its units. Adds `success_rate` and
/// `peak_rss_mb` to an untraced run. A traced run prints 0 for each
/// per-layer metric `predictions.json` does not measure on the
/// workload. A metric left out that should be there, or put that
/// should not, is a bug in the workload.
pub fn finalize(workload: &str, mut out: Outcome, traced: bool) -> String {
    if !traced {
        let ok = out.attempted - out.failed.min(out.attempted);
        out.metrics
            .put("success_rate", ok as f64 / out.attempted.max(1) as f64);
        out.metrics.put("peak_rss_mb", peak_rss_mb());
    }
    let list = section(if traced { "per_layer" } else { "end_to_end" });
    for (name, _) in &out.metrics.0 {
        assert!(
            list.iter().any(|&(n, _)| n == name),
            "{workload}: metric {name} is not in the list for this mode"
        );
    }
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let found = out.metrics.0.iter().find(|(n, _)| n == name);
            let expected = !traced || measured_on(name, workload);
            let value = match (found, expected) {
                (Some(&(_, v)), true) => v,
                (None, false) => 0.0,
                (None, true) => panic!("{workload}: metric {name} was not measured"),
                (Some(_), false) => {
                    panic!("{workload}: {name} is measured but predictions.json does not say so")
                }
            };
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The median over `windows` of what `f` makes of each window's
/// spans; windows that are `None` are left out.
pub fn per_window(
    spans: &[Span],
    windows: &[Option<Range<usize>>],
    f: impl Fn(&[Span]) -> f64,
) -> f64 {
    let mut v: Vec<f64> = windows
        .iter()
        .flatten()
        .map(|w| f(&spans[w.clone()]))
        .collect();
    median(&mut v)
}

/// Latency metrics measured by spans: compile, verify and load, for
/// the layers the workload calls. Busy time is per unit of fixed work:
/// the median over `windows` (set-ups, or traced steps).
pub fn span_metrics(m: &mut Metrics, spans: &[Span], windows: &[Option<Range<usize>>]) {
    for (span, prefix, busy) in [
        (
            "compiler.compile",
            "compiler.compile_us",
            Some("compiler.busy_s"),
        ),
        ("verify.verify", "verify.verify_us", Some("verify.busy_s")),
        ("vm.load", "vm.load_us", None),
    ] {
        let mut us = trace::durations_us(spans, span);
        if us.is_empty() {
            continue;
        }
        m.put(format!("{prefix}_p50"), quantile(&mut us, 0.5));
        m.put(format!("{prefix}_p99"), quantile(&mut us, 0.99));
        if let Some(busy) = busy {
            m.put(busy, per_window(spans, windows, |w| trace::busy_s(w, span)));
        }
    }
}

/// Simulated time per operation, in kilocycles, from exact per-op
/// cycle counts.
pub fn sim_latency(m: &mut Metrics, cycles: &mut [f64]) {
    m.put("sim_latency_p50_kcycles", quantile(cycles, 0.5) / 1e3);
    m.put("sim_latency_p99_kcycles", quantile(cycles, 0.99) / 1e3);
}

/// Where a traced run writes its spans: `out/` in the benchmark's
/// package directory, one file per workload (the latest run's).
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// Prints self time per layer and writes the Chrome trace.
pub fn finish_trace(workload: &str, spans: &[Span]) {
    let self_time = trace::self_time_by_layer(spans);
    for (layer, secs) in &self_time {
        eprintln!("{workload}: self time {layer:<10} {secs:.4} s");
    }
    let path = trace_path(workload);
    match trace::write_chrome(&path, spans, &self_time) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}
