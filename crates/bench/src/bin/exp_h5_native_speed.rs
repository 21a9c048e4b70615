//! Regenerates experiment H5 (see DESIGN.md §9): host dispatch speed
//! — the byte / fused / native dispatch ladder on call-dense
//! workloads.
//!
//! Usage: `exp_h5_native_speed [--smoke] [--out PATH]`
//!
//! `--smoke` runs one cheap sample per cell (CI mode — proves the
//! harness and the JSON shape, not the ratios); `--out` redirects the
//! JSON from the default `BENCH_host_native.json`.

use fpc_bench::experiments::{h1, h5};

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_host_native.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: exp_h5_native_speed [--smoke] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let params = if smoke {
        h1::Params::smoke()
    } else {
        h1::Params::full()
    };
    let (report, json) = h5::report_and_json(params);
    print!("{report}");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
