//! The programs and machine presets the `calls` and `jobs` workloads
//! draw from.

use fpc_compiler::{Compiled, Linkage, Options};
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Image, Machine, MachineConfig};
use fpc_workloads::{compile_workload, corpus, programs, Kind, Workload};

use crate::gate::{self, Expect, Observed, Table};
use crate::trace;
use crate::util::{ratio, Metrics};

/// One of the paper's implementations with the linkage it is measured
/// under: the Mesa encoding on I1/I2, early-bound direct calls on
/// I3/I4.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    pub name: &'static str,
    pub config: MachineConfig,
    pub linkage: Linkage,
}

pub fn presets() -> [Preset; 4] {
    [
        Preset {
            name: "i1",
            config: MachineConfig::i1(),
            linkage: Linkage::Mesa,
        },
        Preset {
            name: "i2",
            config: MachineConfig::i2(),
            linkage: Linkage::Mesa,
        },
        Preset {
            name: "i3",
            config: MachineConfig::i3(),
            linkage: Linkage::Direct,
        },
        Preset {
            name: "i4",
            config: MachineConfig::i4(),
            linkage: Linkage::Direct,
        },
    ]
}

/// A corpus program under a label that names its size.
#[derive(Debug, Clone)]
pub struct Program {
    pub label: String,
    pub workload: Workload,
}

impl Program {
    /// Coroutine and process programs transfer in non-LIFO order.
    pub fn lifo(&self) -> bool {
        !matches!(self.workload.kind, Kind::Coroutine | Kind::Process)
    }

    /// Compiler options for this program on `preset`. `accounts`
    /// always keeps Mesa linkage: early binding collapses its module
    /// instances onto the owner (§6 D2) and changes its output.
    pub fn options(&self, preset: &Preset) -> Options {
        Options {
            linkage: if self.workload.name == "accounts" {
                Linkage::Mesa
            } else {
                preset.linkage
            },
            bank_args: preset.config.renaming(),
        }
    }

    pub fn compile(&self, preset: &Preset) -> Result<Compiled, fpc_compiler::CompileError> {
        compile_workload(&self.workload, self.options(preset))
    }
}

fn labelled(label: &str, workload: Workload) -> Program {
    Program {
        label: label.to_string(),
        workload,
    }
}

/// The `calls` programs: the corpus's transfer-bound entries scaled up
/// so one run takes milliseconds, LIFO recursion first.
pub fn calls_programs() -> Vec<Program> {
    vec![
        labelled("fib(20)", programs::fib(20)),
        labelled("ackermann(3,5)", programs::ackermann(3, 5)),
        labelled("tak(18,12,6)", programs::tak(18, 12, 6)),
        labelled("hanoi(14)", programs::hanoi(14)),
        labelled("treewalk(11)", programs::treewalk(11)),
        labelled("leafcalls(20000)", programs::leafcalls(20000)),
        labelled("prodcons(2000)", programs::prodcons(2000)),
        labelled("pingpong(2000)", programs::pingpong(2000)),
        labelled("pipeline3(300)", programs::pipeline3(300)),
    ]
}

/// The `jobs` programs: the stock corpus minus the pure recursion
/// benchmarks `calls` already scales up.
pub fn jobs_programs() -> Vec<Program> {
    const CALLS_ONLY: [&str; 5] = ["fib", "ackermann", "tak", "hanoi", "leafcalls"];
    corpus()
        .into_iter()
        .filter(|w| !CALLS_ONLY.contains(&w.name))
        .map(|w| labelled(w.name, w))
        .collect()
}

/// One (program, preset) pair, compiled and checked during set-up.
pub struct Pair {
    pub program: Program,
    pub preset: usize,
    pub expect: Expect,
    /// `None` when the program failed to compile, verify or match its
    /// reference: every operation on the pair then fails.
    pub image: Option<Image>,
}

/// Simulated totals over one deck (every pair once).
#[derive(Debug, Default, Clone, Copy)]
pub struct DeckSim {
    pub instructions: u64,
    pub transfers: u64,
    pub transfer_cycles: u64,
    /// Calls and returns on i4, and how many ran at jump speed.
    pub i4_calls_returns: u64,
    pub i4_fast: u64,
}

impl DeckSim {
    fn add(&mut self, m: &Machine, preset: &Preset) {
        let s = m.stats();
        let t = &s.transfers;
        let kinds = [
            &t.calls,
            &t.returns,
            &t.coroutines,
            &t.switches,
            &t.traps,
            &t.remotes,
        ];
        self.instructions += s.instructions;
        self.transfers += kinds.iter().map(|k| k.count).sum::<u64>();
        self.transfer_cycles += kinds.iter().map(|k| k.cycles).sum::<u64>();
        if preset.name == "i4" {
            self.i4_calls_returns += t.calls_and_returns();
            self.i4_fast += t.calls.fast + t.returns.fast;
        }
    }

    /// The exact counts of the `vm` layer.
    pub fn put(&self, m: &mut Metrics) {
        m.put("vm.instructions", self.instructions as f64);
        m.put(
            "vm.transfers_per_kinstr",
            ratio(self.transfers as f64 * 1e3, self.instructions as f64),
        );
        m.put(
            "vm.sim_cycles_per_transfer",
            ratio(self.transfer_cycles as f64, self.transfers as f64),
        );
        m.put(
            "vm.jump_speed_share",
            ratio(self.i4_fast as f64, self.i4_calls_returns as f64),
        );
    }
}

/// What set-up establishes about a deck of pairs.
pub struct Setup {
    pub pairs: Vec<Pair>,
    pub sim: DeckSim,
    pub code_bytes: u64,
    pub certified: usize,
    /// Whether the negative control was caught by the gate.
    pub control: bool,
}

/// Compiles and verifies every (program, preset) pair, runs each once
/// and checks it against the pinned table.
pub fn setup(programs: &[Program], table: &Table) -> Setup {
    let mut s = Setup {
        pairs: Vec::new(),
        sim: DeckSim::default(),
        code_bytes: 0,
        certified: 0,
        control: false,
    };
    for program in programs {
        for (pi, preset) in presets().iter().enumerate() {
            let expect = Expect {
                output_hash: gate::fnv1a(&program.workload.expected),
                counters: table.get(&program.label, preset.name),
            };
            let mut image = None;
            if let Ok(compiled) = trace::span("compiler.compile", 0, || program.compile(preset)) {
                s.code_bytes += compiled.stats.code_bytes as u64;
                let report = trace::span("verify.verify", 0, || {
                    verify_image(&compiled.image, &VerifyOptions::for_config(&preset.config))
                });
                s.certified += report.is_ok() as usize;
                if let Ok(mut m) = Machine::load(&compiled.image, preset.config) {
                    let run_ok = m.run(program.workload.fuel).is_ok();
                    let seen = Observed::of(&m, run_ok);
                    s.sim.add(&m, preset);
                    if s.pairs.is_empty() {
                        s.control = gate::negative_control(&expect, &seen);
                    }
                    if report.is_ok() && gate::check(&expect, &seen) {
                        image = Some(compiled.image);
                    }
                }
            }
            s.pairs.push(Pair {
                program: program.clone(),
                preset: pi,
                expect,
                image,
            });
        }
    }
    s
}
