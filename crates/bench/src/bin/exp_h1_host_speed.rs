//! Regenerates experiment H1 (see DESIGN.md §4): host-side simulator
//! throughput, byte-decode vs fused predecoded dispatch.
//!
//! Usage: `exp_h1_host_speed [--smoke] [--out PATH]`
//!
//! `--smoke` runs one cheap sample per cell (CI mode — proves the
//! harness and the JSON shape, not the ratios); `--out` redirects the
//! JSON from the default `BENCH_host.json`.

use fpc_bench::experiments::h1;

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_host.json");
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
                    "unknown argument {other}; usage: exp_h1_host_speed [--smoke] [--out PATH]"
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
    let (report, json) = h1::report_and_json(params);
    print!("{report}");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
