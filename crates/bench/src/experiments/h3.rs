//! H3 — the cost of surviving: what a recovered fault charges, in
//! simulated counters and in host wall-clock.
//!
//! H1 and H5 price the happy path; H3 prices adversity. The scenario
//! is the paper's §5.3 replenisher loop made hostile: every free frame
//! is seized before the run starts, so the workload's first descent
//! frame-faults repeatedly, and each fault `XFER`s to a guest handler
//! that `DONATE`s a fixed grant of reserve words back to the frame
//! region before the faulting transfer restarts. The run completes;
//! the question is what that survival cost.
//!
//! Two prices are reported per implementation (I1–I4):
//!
//! * **Simulated** — the `FaultStats` handler accounting: instructions,
//!   cycles and memory references per recovered fault. These are
//!   deterministic architecture numbers, bit-identical on every host
//!   and every dispatch rung.
//! * **Host** — wall-clock of the pressured run versus the undisturbed
//!   run of the same image, best-of-N, divided by the fault count.
//!   This is the simulator's own trap-dispatch overhead, and is noisy
//!   in the usual wall-clock ways.
//!
//! The fault count differs by implementation on purpose: a fixed
//! donation grant buys a different number of frames from a general
//! heap (I1) than from the AV frame heap (I2–I4), so the per-fault
//! quotients are the comparable quantity, not the totals.

use std::time::Instant;

use fpc_isa::Instr;
use fpc_vm::{FaultKind, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec};

use super::h1::Params;

/// Recursion depth of the pressured workload.
const DEPTH: u16 = 48;

/// Reserve words donated back to the frame region per handler run.
const GRANT: u16 = 64;

/// Emergency reserve the machine is configured with — sized so the
/// replenisher never runs the reserve dry at [`DEPTH`].
const RESERVE: u32 = 4096;

const FUEL: u64 = 10_000_000;

fn configs() -> [(&'static str, MachineConfig); 4] {
    [
        ("i1", MachineConfig::i1()),
        ("i2", MachineConfig::i2()),
        ("i3", MachineConfig::i3()),
        ("i4", MachineConfig::i4()),
    ]
}

/// The pressured workload: `rec(n)` descends [`DEPTH`] frames twice
/// (module 0), and module 1 holds the entry point plus the `DONATE`
/// replenisher installed as the frame-fault handler. Same shape as the
/// differential tests in `tests/failure_injection.rs`.
fn fault_image(renaming: bool) -> (Image, ProcRef) {
    let mut b = ImageBuilder::new();
    if renaming {
        b.bank_args();
    }
    let lib = b.module("lib");
    b.proc_with(lib, ProcSpec::new("rec", 1, 2), move |a| {
        if !renaming {
            a.instr(Instr::StoreLocal(0));
        }
        let done = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::Ret);
        a.bind(done);
        a.instr(Instr::LoadImm(7));
        a.instr(Instr::Ret);
    });
    let main = b.module("main");
    let lv = b.import(
        main,
        ProcRef {
            module: 0,
            ev_index: 0,
        },
    );
    b.proc_with(main, ProcSpec::new("main", 0, 0), move |a| {
        for _ in 0..2 {
            a.instr(Instr::LoadImm(DEPTH));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    b.proc_with(main, ProcSpec::new("on_fault", 1, 2), move |a| {
        if !renaming {
            a.instr(Instr::StoreLocal(0));
        }
        a.instr(Instr::LoadImm(GRANT));
        a.instr(Instr::Donate);
        a.instr(Instr::Drop);
        a.instr(Instr::Ret);
    });
    let image = b
        .build(ProcRef {
            module: 1,
            ev_index: 0,
        })
        .unwrap();
    (
        image,
        ProcRef {
            module: 1,
            ev_index: 1,
        },
    )
}

fn load(image: &Image, fh: ProcRef, cfg: MachineConfig, pressured: bool) -> Machine {
    let mut m = Machine::load(image, cfg).expect("loads");
    m.install_fault_handler(FaultKind::FrameFault, image, fh)
        .expect("handler installs");
    if pressured {
        assert!(m.seize_free_frames() > 0, "nothing to seize");
    }
    m
}

/// One implementation's fault-cost measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Machine configuration name (i1–i4).
    pub config: &'static str,
    /// Frame faults raised and recovered in the pressured run.
    pub faults: u64,
    /// Simulated cycles of the undisturbed run.
    pub clean_cycles: u64,
    /// Simulated cycles of the pressured run.
    pub faulted_cycles: u64,
    /// Handler instructions charged by `FaultStats`.
    pub handler_instructions: u64,
    /// Handler cycles charged by `FaultStats`.
    pub handler_cycles: u64,
    /// Handler memory references charged by `FaultStats`.
    pub handler_refs: u64,
    /// Best-of host seconds for the undisturbed run.
    pub clean_secs: f64,
    /// Best-of host seconds for the pressured run.
    pub faulted_secs: f64,
}

impl Row {
    /// Simulated cycles one recovered fault costs.
    pub fn sim_cycles_per_fault(&self) -> f64 {
        self.handler_cycles as f64 / self.faults as f64
    }

    /// Simulated memory references one recovered fault costs.
    pub fn sim_refs_per_fault(&self) -> f64 {
        self.handler_refs as f64 / self.faults as f64
    }

    /// Whole-run simulated cycle overhead of surviving the pressure.
    pub fn cycle_overhead(&self) -> f64 {
        (self.faulted_cycles as f64 - self.clean_cycles as f64) / self.clean_cycles as f64
    }

    /// Host microseconds one recovered fault costs (wall-clock delta
    /// over the fault count; noisy, can dip negative in smoke runs).
    pub fn host_us_per_fault(&self) -> f64 {
        (self.faulted_secs - self.clean_secs) * 1e6 / self.faults as f64
    }
}

fn time_run(image: &Image, fh: ProcRef, cfg: MachineConfig, pressured: bool, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        let mut m = load(image, fh, cfg, pressured);
        m.run(FUEL).expect("runs");
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Runs the measurement for every implementation.
pub fn measure_all(p: Params) -> Vec<Row> {
    configs()
        .into_iter()
        .map(|(cname, base)| {
            let cfg = base.with_fault_reserve(RESERVE);
            let (image, fh) = fault_image(cfg.renaming());
            // Counter pass: one undisturbed and one pressured run.
            let mut clean = load(&image, fh, cfg, false);
            clean.run(FUEL).expect("clean run completes");
            let mut faulted = load(&image, fh, cfg, true);
            faulted.run(FUEL).expect("pressured run completes");
            assert_eq!(clean.output(), faulted.output(), "{cname}: output differs");
            let f = faulted.fault_stats();
            let faults = f.raised[FaultKind::FrameFault.index()];
            assert!(faults > 0, "{cname}: pressure raised no faults");
            assert_eq!(f.recovered, f.total_raised(), "{cname}: unrecovered fault");
            // Timing pass: best-of over alternating clean/pressured
            // samples, so both see the same host weather.
            let mut clean_secs = f64::INFINITY;
            let mut faulted_secs = f64::INFINITY;
            for _ in 0..p.runs {
                clean_secs = clean_secs.min(time_run(&image, fh, cfg, false, p.reps));
                faulted_secs = faulted_secs.min(time_run(&image, fh, cfg, true, p.reps));
            }
            Row {
                config: cname,
                faults,
                clean_cycles: clean.stats().cycles,
                faulted_cycles: faulted.stats().cycles,
                handler_instructions: f.handler_instructions,
                handler_cycles: f.handler_cycles,
                handler_refs: f.handler_refs,
                clean_secs,
                faulted_secs,
            }
        })
        .collect()
}

/// The report and the `BENCH_host_faults.json` contents.
pub fn report_and_json(p: Params) -> (String, String) {
    let rows = measure_all(p);
    let mut out = String::new();
    out.push_str(
        "H3: cost of a recovered frame fault (seize-everything pressure, DONATE replenisher)\n",
    );
    out.push_str(&format!(
        "{:<4} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9} {:>10}\n",
        "cfg", "faults", "clean cyc", "fault cyc", "cyc/fault", "ref/fault", "overhead", "us/fault"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<4} {:>7} {:>12} {:>12} {:>10.1} {:>10.1} {:>8.1}% {:>10.2}\n",
            r.config,
            r.faults,
            r.clean_cycles,
            r.faulted_cycles,
            r.sim_cycles_per_fault(),
            r.sim_refs_per_fault(),
            100.0 * r.cycle_overhead(),
            r.host_us_per_fault(),
        ));
    }
    let worst = rows
        .iter()
        .map(Row::sim_cycles_per_fault)
        .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "worst simulated cycles per recovered fault: {worst:.1}\n"
    ));

    let mut json = String::from(
        "{\n  \"experiment\": \"h3_fault_cost\",\n  \"unit\": \"per recovered frame fault\",\n",
    );
    json.push_str(&format!(
        "  \"depth\": {DEPTH},\n  \"grant\": {GRANT},\n  \"reserve\": {RESERVE},\n  \"configs\": [{}],\n  \"rows\": [\n",
        configs().map(|(c, _)| format!("\"{c}\"")).join(", ")
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"faults\": {}, \"clean_cycles\": {}, \"faulted_cycles\": {}, \
             \"handler_instructions\": {}, \"handler_cycles\": {}, \"handler_refs\": {}, \
             \"sim_cycles_per_fault\": {:.3}, \"sim_refs_per_fault\": {:.3}, \
             \"cycle_overhead\": {:.4}, \"host_us_per_fault\": {:.3}}}{}\n",
            r.config,
            r.faults,
            r.clean_cycles,
            r.faulted_cycles,
            r.handler_instructions,
            r.handler_cycles,
            r.handler_refs,
            r.sim_cycles_per_fault(),
            r.sim_refs_per_fault(),
            r.cycle_overhead(),
            r.host_us_per_fault(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"worst_sim_cycles_per_fault\": {worst:.3}\n}}\n"
    ));
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pressured_cell_faults_and_recovers_on_every_config() {
        for (cname, base) in configs() {
            let cfg = base.with_fault_reserve(RESERVE);
            let (image, fh) = fault_image(cfg.renaming());
            let mut m = load(&image, fh, cfg, true);
            m.run(FUEL).unwrap_or_else(|e| panic!("{cname}: {e}"));
            let f = m.fault_stats();
            assert!(f.raised[FaultKind::FrameFault.index()] > 0, "{cname}");
            assert_eq!(f.recovered, f.total_raised(), "{cname}");
            assert_eq!(m.output(), &[7, 7], "{cname}");
        }
    }

    #[test]
    fn per_fault_quotients_are_finite_and_positive() {
        let rows = measure_all(Params::smoke());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.sim_cycles_per_fault() > 0.0, "{}", r.config);
            assert!(r.sim_refs_per_fault() > 0.0, "{}", r.config);
            assert!(r.faulted_cycles > r.clean_cycles, "{}", r.config);
        }
    }
}
