//! H4 — the price of the static verifier: how long verification takes
//! per image.
//!
//! The verifier (`fpc-verify`) proves per-procedure stack-depth bounds,
//! call-target well-formedness and effect summaries ahead of time. Its
//! clean report mints the `Certificate` that licenses the native tier,
//! RPC auto-retry and migration safe points. A certificate is only a
//! good trade if it is cheap relative to the runs it licenses, so H4
//! reports the best-of host microseconds to verify each image
//! (`verify_us`) next to the image's code size, the verifier's input.

use std::time::Instant;

use fpc_compiler::{Linkage, Options};
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::MachineConfig;
use fpc_workloads::{compile_workload, corpus, Workload};

pub use super::h1::Params;

/// Workloads reported by H4: the call-dense set, plus iterative
/// contrast rows.
pub const WORKLOADS: [&str; 7] = [
    "fib",
    "ackermann",
    "tak",
    "hanoi",
    "leafcalls",
    "sieve",
    "matrix",
];

/// One workload's verification cost.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Image code size in bytes (the verifier's input).
    pub code_bytes: usize,
    /// Best-of host microseconds to verify the image.
    pub verify_us: f64,
}

/// Verifies one workload's image for the I3 machine under direct
/// linkage (the paper's full design) `p.runs` times, at least three.
fn measure(w: &Workload, p: Params) -> Row {
    let config = MachineConfig::i3();
    let compiled = compile_workload(
        w,
        Options {
            linkage: Linkage::Direct,
            bank_args: config.renaming(),
        },
    )
    .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
    let opts = VerifyOptions::for_config(&config);
    let mut verify_s = f64::INFINITY;
    for _ in 0..p.runs.max(3) {
        let t0 = Instant::now();
        let report = verify_image(&compiled.image, &opts);
        verify_s = verify_s.min(t0.elapsed().as_secs_f64());
        assert!(report.is_ok(), "{} must verify:\n{report}", w.name);
    }
    Row {
        workload: w.name,
        code_bytes: compiled.image.code.len(),
        verify_us: verify_s * 1e6,
    }
}

/// Runs the full measurement matrix.
pub fn measure_all(p: Params) -> Vec<Row> {
    let corpus = corpus();
    WORKLOADS
        .iter()
        .map(|&name| {
            let w = corpus
                .iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("no corpus entry {name}"));
            measure(w, p)
        })
        .collect()
}

/// The report and the `BENCH_host_verify.json` contents.
pub fn report_and_json(p: Params) -> (String, String) {
    let rows = measure_all(p);
    let mut out = String::new();
    out.push_str("H4: verification cost per image (host us), I3, direct linkage\n");
    out.push_str(&format!(
        "{:<10} {:>6} {:>10}\n",
        "workload", "bytes", "verify_us"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<10} {:>6} {:>10.1}\n",
            r.workload, r.code_bytes, r.verify_us,
        ));
    }
    let worst_verify_us = rows.iter().map(|r| r.verify_us).fold(0.0, f64::max);
    out.push_str(&format!(
        "worst verify cost {worst_verify_us:.1} us per image\n"
    ));

    let mut json = String::from(
        "{\n  \"experiment\": \"h4_verify_speed\",\n  \"unit\": \"host microseconds\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"code_bytes\": {}, \"verify_us\": {:.1}}}{}\n",
            r.workload,
            r.code_bytes,
            r.verify_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"worst_verify_us\": {worst_verify_us:.1}\n}}\n"
    ));
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_end_to_end() {
        let corpus = corpus();
        let w = corpus.iter().find(|w| w.name == "leafcalls").unwrap();
        let r = measure(w, Params::smoke());
        assert!(r.verify_us > 0.0 && r.code_bytes > 0);
    }
}
