#![warn(missing_docs)]
//! The benchmark corpus for the *Fast Procedure Calls* experiments.
//!
//! Two kinds of workload live here:
//!
//! * **Programs** — Mesa-lite sources spanning the behaviours the paper
//!   cares about: call-dense recursion (fib, ackermann, tak), iterative
//!   array code (sieve, matrix), mixed (quicksort, treewalk), module
//!   crossings, coroutines, processes, and pointer-taking code. Each
//!   carries a host-computed expected output so every machine
//!   configuration can be checked for correctness, not just speed.
//! * **Synthetic traces** ([`traces`]) — seeded random call/return/
//!   transfer sequences with controlled depth behaviour, used for the
//!   register-bank and return-stack statistics (experiments E5/E6)
//!   where long controlled runs matter more than real program
//!   semantics.
//!
//! # Example
//!
//! ```
//! use fpc_vm::MachineConfig;
//! use fpc_workloads::{corpus, run_workload};
//!
//! let w = corpus().into_iter().find(|w| w.name == "fib").unwrap();
//! let m = run_workload(&w, MachineConfig::i2(), Default::default()).unwrap();
//! assert_eq!(m.output(), w.expected.as_slice());
//! ```

pub mod programs;
pub mod traces;

use fpc_compiler::{compile, CompileError, Compiled, Options};
use fpc_vm::{Dispatch, Machine, MachineConfig, VmError};

/// Broad behaviour class, used by experiments to slice results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Dominated by procedure calls and returns.
    CallHeavy,
    /// Dominated by loops and data access.
    Iterative,
    /// Mixture of calls and data work.
    Mixed,
    /// Uses coroutine transfers.
    Coroutine,
    /// Uses multiple processes.
    Process,
    /// Takes addresses of locals (§7.4 behaviour).
    Pointer,
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name.
    pub name: &'static str,
    /// Module sources, in link order.
    pub sources: Vec<String>,
    /// Host-computed expected `out` stream.
    pub expected: Vec<u16>,
    /// Instruction budget.
    pub fuel: u64,
    /// Behaviour class.
    pub kind: Kind,
}

/// The full corpus.
pub fn corpus() -> Vec<Workload> {
    programs::all()
}

/// Compiles a workload with the given options.
///
/// # Errors
///
/// Propagates compiler errors (none are expected for corpus entries).
pub fn compile_workload(w: &Workload, options: Options) -> Result<Compiled, CompileError> {
    let refs: Vec<&str> = w.sources.iter().map(|s| s.as_str()).collect();
    compile(&refs, options)
}

/// Compiles and runs a workload, returning the halted machine.
///
/// The compiler's `bank_args` option is forced to match the machine's
/// renaming setting, so any corpus entry runs on any configuration.
///
/// # Errors
///
/// Compiler errors become [`VmError::BadImage`]; execution errors
/// propagate.
pub fn run_workload(
    w: &Workload,
    config: MachineConfig,
    mut options: Options,
) -> Result<Machine, VmError> {
    options.bank_args = config.renaming();
    let compiled = compile_workload(w, options).map_err(|e| VmError::BadImage(e.to_string()))?;
    let mut m = Machine::load(&compiled.image, config)?;
    if config.dispatch == Dispatch::Native {
        // The native tier runs only under a verifier license; the
        // whole corpus verifies clean, so this arms everywhere. A
        // dirty image simply stays on the interpreted rungs.
        let report = fpc_verify::verify_image(
            &compiled.image,
            &fpc_verify::VerifyOptions::for_config(&config),
        );
        if let Some(cert) = report.certificate() {
            m.arm_native(cert.native_license());
        }
    }
    m.run(w.fuel)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_compiler::Linkage;

    #[test]
    fn corpus_is_nonempty_and_named_uniquely() {
        let c = corpus();
        assert!(c.len() >= 10, "corpus has {} entries", c.len());
        let mut names: Vec<_> = c.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len(), "duplicate workload names");
    }

    #[test]
    fn every_workload_matches_its_reference_on_i2() {
        for w in corpus() {
            let m = run_workload(&w, MachineConfig::i2(), Options::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(m.output(), w.expected.as_slice(), "workload {}", w.name);
            assert!(m.halted(), "workload {} did not halt", w.name);
        }
    }

    #[test]
    fn every_workload_matches_on_all_configurations() {
        for w in corpus() {
            for config in [
                MachineConfig::i1(),
                MachineConfig::i3(),
                MachineConfig::i4(),
            ] {
                let m = run_workload(&w, config, Options::default())
                    .unwrap_or_else(|e| panic!("{} on {config:?}: {e}", w.name));
                assert_eq!(
                    m.output(),
                    w.expected.as_slice(),
                    "workload {} on {config:?}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn direct_linkage_preserves_behaviour() {
        for w in corpus() {
            if w.name == "accounts" {
                // The one documented exception: early binding collapses
                // module instances onto the owner (§6 D2), so the
                // instance workload legitimately behaves differently
                // under direct linkage. The collapse itself is asserted
                // in fpc-compiler's tests.
                continue;
            }
            let options = Options {
                linkage: Linkage::Direct,
                ..Default::default()
            };
            let m = run_workload(&w, MachineConfig::i3(), options)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(m.output(), w.expected.as_slice(), "workload {}", w.name);
        }
    }

    #[test]
    fn call_heavy_workloads_are_call_heavy() {
        for w in corpus() {
            if w.kind != Kind::CallHeavy {
                continue;
            }
            let m = run_workload(&w, MachineConfig::i2(), Options::default()).unwrap();
            let ipt = m.stats().instructions_per_transfer();
            assert!(
                ipt < 20.0,
                "{} claims call-heavy but runs {ipt:.1} instructions per transfer",
                w.name
            );
        }
    }
}
