//! H5 — host dispatch speed: the three [`Dispatch`] modes, topped by
//! the certificate-licensed direct-threaded compiler.
//!
//! `byte` re-decodes the code bytes on every step, `fused` dispatches
//! from the predecoded stream with superinstructions, and `native`
//! stops interpreting hot procedure bodies at all and runs them as
//! chains of the interpreter's own opcode handlers
//! (`crates/vm/src/native.rs`). All three are identical in every
//! simulated counter (`tests/predecode_parity.rs`).
//!
//! The workload set is the call-dense slice of the corpus — these
//! programs re-enter tiny procedure bodies millions of times, so after
//! a few dozen
//! invocations every hot body is compiled and the run spends its time
//! in native bursts. The native rung is timed *including* warm-up:
//! machines load cold, the license is armed, and hotness counting,
//! compilation and deoptimization checks all happen inside the timed
//! window, so the ratio is end-to-end honest.
//!
//! Arming requires an `fpc-verify` certificate; `prepare` verifies
//! each image and panics if the corpus ever stops verifying clean,
//! because an unarmed native rung would silently time the fused rung
//! twice.

use fpc_compiler::{Linkage, Options};
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Dispatch, Image, Machine, MachineConfig, NativeLicense};
use fpc_workloads::{compile_workload, corpus, Workload};

use super::h1::Params;
use crate::driver::{default_workers, parallel_map};

/// The call-dense slice of the corpus.
pub const WORKLOADS: [&str; 5] = ["fib", "ackermann", "tak", "hanoi", "leafcalls"];

/// The dispatch ladder, weakest first.
pub const DISPATCHES: [(&str, Dispatch); 3] = [
    ("byte", Dispatch::Byte),
    ("fused", Dispatch::Fused),
    ("native", Dispatch::Native),
];

/// Invocations before a body compiles. Low enough that warm-up is a
/// negligible slice of a corpus run, high enough to be a real tiering
/// decision rather than compile-everything-at-load.
const THRESHOLD: u32 = 16;

fn dispatch_config(base: MachineConfig, dispatch: Dispatch) -> MachineConfig {
    base.with_dispatch(dispatch)
        .with_native_threshold(THRESHOLD)
}

fn configs() -> [(&'static str, MachineConfig, Linkage); 4] {
    [
        ("i1", MachineConfig::i1(), Linkage::Mesa),
        ("i2", MachineConfig::i2(), Linkage::Mesa),
        ("i3", MachineConfig::i3(), Linkage::Direct),
        ("i4", MachineConfig::i4(), Linkage::Direct),
    ]
}

/// One (workload, config) measurement across the three-rung ladder.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Machine configuration name (i1–i4).
    pub config: &'static str,
    /// Simulated instructions per run (identical on every dispatch).
    pub instructions: u64,
    /// Simulated instructions per host second, per dispatch, in
    /// [`DISPATCHES`] order.
    pub ips: [f64; 3],
    /// Instructions retired by fast native handlers in one run.
    pub native_instrs: u64,
    /// Instructions retired through the interpreter fallback inside
    /// native bursts (calls, returns, traps and other fallible ops).
    pub interp_ops: u64,
    /// Bodies compiled by the end of one run.
    pub compiled_procs: usize,
    /// Invocation count of the hottest procedure (top of the
    /// `fpc-stats` hotness histogram).
    pub hottest_calls: u64,
}

impl Row {
    /// The headline ratio: native over fused dispatch.
    pub fn native_over_fused(&self) -> f64 {
        self.ips[2] / self.ips[1]
    }

    /// The whole ladder: native over the byte decoder.
    pub fn native_over_byte(&self) -> f64 {
        self.ips[2] / self.ips[0]
    }

    /// Fraction of all retired instructions that ran as fast native
    /// handlers.
    pub fn native_share(&self) -> f64 {
        self.native_instrs as f64 / self.instructions.max(1) as f64
    }
}

struct Cell {
    workload: Workload,
    cname: &'static str,
    config: MachineConfig,
    linkage: Linkage,
}

struct Prepared {
    image: Image,
    license: NativeLicense,
    instructions: u64,
    native_instrs: u64,
    interp_ops: u64,
    compiled_procs: usize,
    hottest_calls: u64,
}

/// Compiles and verifies one cell, then runs the weakest and strongest
/// dispatch once each: confirms the simulated counters agree, checks
/// the native tier genuinely engaged, and harvests its statistics.
/// Pure counter work — safe to fan out.
fn prepare(cell: &Cell) -> Prepared {
    let compiled = compile_workload(
        &cell.workload,
        Options {
            linkage: cell.linkage,
            bank_args: cell.config.renaming(),
        },
    )
    .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", cell.workload.name));
    let native_cfg = dispatch_config(cell.config, Dispatch::Native);
    let report = verify_image(&compiled.image, &VerifyOptions::for_config(&native_cfg));
    let license = report
        .certificate()
        .unwrap_or_else(|| {
            panic!(
                "{}/{}: corpus image no longer verifies clean:\n{report}",
                cell.workload.name, cell.cname
            )
        })
        .native_license();
    let mut byte = Machine::load(
        &compiled.image,
        dispatch_config(cell.config, Dispatch::Byte),
    )
    .expect("loads");
    byte.run(cell.workload.fuel).expect("runs");
    let mut native = Machine::load(&compiled.image, native_cfg).expect("loads");
    assert!(native.arm_native(license), "license must arm");
    native.run(cell.workload.fuel).expect("runs");
    assert_eq!(
        byte.stats().instructions,
        native.stats().instructions,
        "{}/{}: dispatch variants must simulate identically",
        cell.workload.name,
        cell.cname
    );
    assert_eq!(
        byte.output(),
        native.output(),
        "{}/{}: outputs must agree",
        cell.workload.name,
        cell.cname
    );
    let nstats = native.native_stats().expect("native tier is on");
    let hotness = native.native_hotness().expect("native tier is on");
    Prepared {
        image: compiled.image,
        license,
        instructions: native.stats().instructions,
        native_instrs: nstats.native_instrs,
        interp_ops: nstats.interp_ops,
        compiled_procs: nstats.compiled_procs,
        hottest_calls: hotness.top_k(1).first().map_or(0, |&(_, n)| n),
    }
}

/// Times one dispatch variant: load cold, arm when the variant is the
/// native rung, and run to completion `reps` times.
fn sample(
    image: &Image,
    config: MachineConfig,
    license: Option<NativeLicense>,
    fuel: u64,
    reps: usize,
) -> (u64, f64) {
    let mut instructions = 0;
    let mut elapsed = 0.0;
    for _ in 0..reps {
        let mut m = Machine::load(image, config).expect("loads");
        if let Some(license) = license {
            assert!(m.arm_native(license), "license must arm");
        }
        let t0 = std::time::Instant::now();
        m.run(fuel).expect("runs");
        elapsed += t0.elapsed().as_secs_f64();
        instructions = m.stats().instructions;
    }
    (instructions, elapsed / reps as f64)
}

/// Runs the full measurement matrix.
pub fn measure_all(p: Params) -> Vec<Row> {
    let corpus = corpus();
    let cells: Vec<Cell> = WORKLOADS
        .iter()
        .map(|&name| {
            corpus
                .iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("no corpus entry {name}"))
        })
        .flat_map(|w| {
            configs().map(|(cname, config, linkage)| Cell {
                workload: w.clone(),
                cname,
                config,
                linkage,
            })
        })
        .collect();
    // Stage 1 (parallel): compile + verify + harvest counters.
    let prepared = parallel_map(&cells, default_workers(cells.len()), prepare);
    // Stage 2 (serial, alternating): wall-clock per dispatch variant.
    cells
        .iter()
        .zip(prepared)
        .map(|(cell, prep)| {
            let mut best = [f64::INFINITY; 3];
            for _ in 0..p.runs {
                for (d, &(_, dispatch)) in DISPATCHES.iter().enumerate() {
                    let cfg = dispatch_config(cell.config, dispatch);
                    let license = (dispatch == Dispatch::Native).then_some(prep.license);
                    let (instrs, secs) =
                        sample(&prep.image, cfg, license, cell.workload.fuel, p.reps);
                    assert_eq!(instrs, prep.instructions, "{}", cell.workload.name);
                    best[d] = best[d].min(secs);
                }
            }
            Row {
                workload: cell.workload.name,
                config: cell.cname,
                instructions: prep.instructions,
                ips: best.map(|s| prep.instructions as f64 / s),
                native_instrs: prep.native_instrs,
                interp_ops: prep.interp_ops,
                compiled_procs: prep.compiled_procs,
                hottest_calls: prep.hottest_calls,
            }
        })
        .collect()
}

fn fmt_mips(ips: f64) -> String {
    format!("{:.1}", ips / 1e6)
}

/// Worst headline ratio over a config subset.
fn worst(rows: &[Row], keep: impl Fn(&Row) -> bool) -> f64 {
    rows.iter()
        .filter(|r| keep(r))
        .map(Row::native_over_fused)
        .fold(f64::INFINITY, f64::min)
}

/// The report and the `BENCH_host_native.json` contents.
pub fn report_and_json(p: Params) -> (String, String) {
    let rows = measure_all(p);
    let mut out = String::new();
    out.push_str("H5: tier-5 native execution (simulated Minstr/s) on call-dense workloads\n");
    out.push_str(&format!(
        "{:<10} {:>4} {:>12} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
        "workload", "cfg", "sim instrs", "byte", "fused", "native", "nat%", "vs fused"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<10} {:>4} {:>12} {:>8} {:>8} {:>8} {:>7.1}% {:>8.2}x\n",
            r.workload,
            r.config,
            r.instructions,
            fmt_mips(r.ips[0]),
            fmt_mips(r.ips[1]),
            fmt_mips(r.ips[2]),
            100.0 * r.native_share(),
            r.native_over_fused()
        ));
    }
    // i4 is reported but judged separately: compiled bodies run its
    // banked locals through the same handlers as the interpreter, but
    // its calls and returns — which leave compiled code — carry bank
    // activation and renaming, a larger share of its host time.
    let worst_i1_i3 = worst(&rows, |r| r.config != "i4");
    let worst_all = worst(&rows, |_| true);
    out.push_str(&format!(
        "worst-case native over fused: {worst_i1_i3:.2}x on i1-i3, {worst_all:.2}x including the bank machine (i4)\n"
    ));

    let mut json = String::from(
        "{\n  \"experiment\": \"h5_native_speed\",\n  \"unit\": \"simulated instructions per host second\",\n",
    );
    json.push_str(&format!(
        "  \"configs\": [{}],\n  \"dispatches\": [{}],\n  \"rows\": [\n",
        configs().map(|(c, _, _)| format!("\"{c}\"")).join(", "),
        DISPATCHES.map(|(d, _)| format!("\"{d}\"")).join(", ")
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"instructions\": {}, \
             \"ips\": {{\"byte\": {:.0}, \"fused\": {:.0}, \"native\": {:.0}}}, \
             \"native_instrs\": {}, \"interp_ops\": {}, \"compiled_procs\": {}, \"hottest_calls\": {}, \
             \"native_share\": {:.3}, \"native_over_fused\": {:.3}, \"native_over_byte\": {:.3}}}{}\n",
            r.workload,
            r.config,
            r.instructions,
            r.ips[0],
            r.ips[1],
            r.ips[2],
            r.native_instrs,
            r.interp_ops,
            r.compiled_procs,
            r.hottest_calls,
            r.native_share(),
            r.native_over_fused(),
            r.native_over_byte(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"worst_native_over_fused_i1_i3\": {worst_i1_i3:.3},\n  \"worst_native_over_fused_all\": {worst_all:.3}\n}}\n"
    ));
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_prepares_with_a_live_native_tier() {
        let corpus = corpus();
        let w = corpus.iter().find(|w| w.name == "fib").unwrap();
        let cell = Cell {
            workload: w.clone(),
            cname: "i2",
            config: MachineConfig::i2(),
            linkage: Linkage::Mesa,
        };
        let prep = prepare(&cell);
        assert!(prep.instructions > 0);
        assert!(prep.compiled_procs > 0, "hot bodies must compile");
        assert!(
            prep.native_instrs > prep.interp_ops,
            "fib bodies are mostly fast ops: {} native vs {} interp",
            prep.native_instrs,
            prep.interp_ops
        );
        assert!(prep.hottest_calls > 0, "hotness histogram must rank");
    }

    #[test]
    fn the_ladder_tops_out_at_native() {
        let base = MachineConfig::i2();
        let names: Vec<Dispatch> = DISPATCHES.iter().map(|&(_, d)| d).collect();
        assert_eq!(names, [Dispatch::Byte, Dispatch::Fused, Dispatch::Native]);
        let native = dispatch_config(base, Dispatch::Native);
        assert_eq!(native.dispatch, Dispatch::Native);
        assert_eq!(native.native_threshold, THRESHOLD);
    }
}
