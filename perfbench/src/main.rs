//! The repository's benchmark: three seeded closed-loop workloads over
//! the public APIs of `fpc-compiler`, `fpc-verify`, `fpc-vm`,
//! `fpc-sched` and `fpc-rpc`.
//!
//! ```text
//! perfbench --workload calls|jobs|rpc --seed N --seconds S --trace 0|1
//! perfbench --pin      # print a fresh data/reference.tsv
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run prints
//! the per-layer metrics and writes its spans to
//! `out/trace-<workload>.json`. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Simulated counters and host times are reported side by side and
//! never combined into one number. End-to-end host rates and times are
//! scaled to a reference host speed sampled during the run (see
//! `calibrate`); standard error shows how far the host was from it.

mod calibrate;
mod calls;
mod corpus;
mod gate;
mod jobs;
mod json;
mod layers;
mod rpc;
mod trace;
mod util;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload calls|jobs|rpc --seed N --seconds S --trace 0|1 | perfbench --pin";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--pin") {
        print!("{}", gate::pin());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "calls" => calls::run,
        "jobs" => jobs::run,
        "rpc" => rpc::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(args.seed, args.seconds, args.trace);
    println!("{}", layers::finalize(&args.workload, outcome, args.trace));
    ExitCode::SUCCESS
}
