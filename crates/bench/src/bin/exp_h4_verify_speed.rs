//! Regenerates experiment H4 (see DESIGN.md §8): the cost of static
//! verification per image, next to one run of the image it licenses.
//!
//! Usage: `exp_h4_verify_speed [--smoke] [--out PATH]`
//!
//! `--smoke` runs cheap samples (CI mode — proves the harness and the
//! JSON shape, not the timings); `--out` redirects the JSON from the
//! default `BENCH_host_verify.json`.

use fpc_bench::experiments::h4;

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_host_verify.json");
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
                    "unknown argument {other}; usage: exp_h4_verify_speed [--smoke] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let params = if smoke {
        h4::Params::smoke()
    } else {
        h4::Params::full()
    };
    let (report, json) = h4::report_and_json(params);
    print!("{report}");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
