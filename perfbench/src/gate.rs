//! The per-operation correctness gate.
//!
//! Every operation's output must equal the host-computed expectation,
//! and its simulated counters (instructions, cycles, refs, jumps) must
//! equal the reference table pinned in `data/reference.tsv` for its
//! (program, preset) pair. A mismatch, a guest error, an uncertified
//! image or a faulted context fails that operation; the run goes on
//! and the failure is counted.

use std::collections::BTreeMap;

use fpc_sched::FinalState;
use fpc_vm::Machine;

use crate::corpus::{calls_programs, jobs_programs, presets};

/// The pinned table: `program preset instructions cycles refs jumps`.
const PINNED: &str = include_str!("../data/reference.tsv");

/// The simulated counters the gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub instructions: u64,
    pub cycles: u64,
    pub refs: u64,
    pub jumps: u64,
}

impl Counters {
    pub fn of(m: &Machine) -> Self {
        let s = m.stats();
        Counters {
            instructions: s.instructions,
            cycles: s.cycles,
            refs: m.total_refs(),
            jumps: s.jumps_taken,
        }
    }

    pub fn of_final(f: &FinalState) -> Self {
        Counters {
            instructions: f.instructions,
            cycles: f.cycles,
            refs: f.refs,
            jumps: f.jumps,
        }
    }

    /// The fault-adjusted counters: recovery work through fault
    /// handlers is priced separately and taken out.
    pub fn adjusted(f: &FinalState) -> Self {
        let (_, instructions, cycles, refs, jumps, _) = f.adjusted();
        Counters {
            instructions,
            cycles,
            refs,
            jumps,
        }
    }
}

/// What a correct operation produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub output_hash: u64,
    pub counters: Counters,
}

/// What an operation produced. `clean` is false for a guest error, an
/// uncertified image or a faulted context.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub clean: bool,
    pub output_hash: u64,
    pub counters: Counters,
}

impl Observed {
    pub fn of(m: &Machine, run_ok: bool) -> Self {
        Observed {
            clean: run_ok && m.halted(),
            output_hash: fnv1a(m.output()),
            counters: Counters::of(m),
        }
    }
}

pub fn check(expect: &Expect, seen: &Observed) -> bool {
    seen.clean && seen.output_hash == expect.output_hash && seen.counters == expect.counters
}

/// The negative control: a real observation that passes must fail
/// once its expected output or its expected counters are wrong.
pub fn negative_control(expect: &Expect, seen: &Observed) -> bool {
    let wrong_output = Expect {
        output_hash: expect.output_hash ^ 1,
        ..*expect
    };
    let wrong_counters = Expect {
        counters: Counters {
            cycles: expect.counters.cycles + 1,
            ..expect.counters
        },
        ..*expect
    };
    check(expect, seen) && !check(&wrong_output, seen) && !check(&wrong_counters, seen)
}

/// FNV-1a over the output words' little-endian bytes: the hash
/// `FinalState::output_hash` carries.
pub fn fnv1a(words: &[u16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// The pinned reference table, keyed by (program label, preset name).
#[derive(Debug, Clone)]
pub struct Table(BTreeMap<(String, String), Counters>);

impl Table {
    pub fn pinned() -> Self {
        let mut map = BTreeMap::new();
        for line in PINNED.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> u64 {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("reference.tsv: bad field {i} in {line:?}"))
            };
            let counters = Counters {
                instructions: num(2),
                cycles: num(3),
                refs: num(4),
                jumps: num(5),
            };
            map.insert((f[0].to_string(), f[1].to_string()), counters);
        }
        Table(map)
    }

    /// The pinned counters; a pair missing from the table gets counters
    /// no run produces, so every operation on it fails the gate.
    pub fn get(&self, program: &str, preset: &str) -> Counters {
        self.0
            .get(&(program.to_string(), preset.to_string()))
            .copied()
            .unwrap_or(Counters {
                instructions: u64::MAX,
                ..Counters::default()
            })
    }
}

/// Regenerates `data/reference.tsv` from the code as it stands. Each
/// `calls` and `jobs` pair is run once to halt; the `rpc` client's row
/// is the fault-adjusted state of an undisturbed cluster.
pub fn pin() -> String {
    let mut out = String::from(
        "# Simulated counters per (program, preset), pinned by `perfbench --pin`.\n\
         # program\tpreset\tinstructions\tcycles\trefs\tjumps\n",
    );
    let mut row = |label: &str, preset: &str, c: Counters| {
        out.push_str(&format!(
            "{label}\t{preset}\t{}\t{}\t{}\t{}\n",
            c.instructions, c.cycles, c.refs, c.jumps
        ));
    };
    for program in calls_programs().iter().chain(jobs_programs().iter()) {
        for preset in presets() {
            let compiled = program
                .compile(&preset)
                .unwrap_or_else(|e| panic!("{}: {e}", program.label));
            let mut m = Machine::load(&compiled.image, preset.config)
                .unwrap_or_else(|e| panic!("{}: {e}", program.label));
            m.run(program.workload.fuel)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", program.label, preset.name));
            assert_eq!(m.output(), program.workload.expected.as_slice());
            row(&program.label, preset.name, Counters::of(&m));
        }
    }
    row(
        crate::rpc::CLIENT_LABEL,
        "i2",
        crate::rpc::reference_counters(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_negative_control_catches_wrong_expectations() {
        let counters = Counters {
            instructions: 10,
            cycles: 20,
            refs: 5,
            jumps: 1,
        };
        let expect = Expect {
            output_hash: fnv1a(&[42]),
            counters,
        };
        let seen = Observed {
            clean: true,
            output_hash: fnv1a(&[42]),
            counters,
        };
        assert!(check(&expect, &seen));
        assert!(negative_control(&expect, &seen));
        assert!(!check(
            &expect,
            &Observed {
                clean: false,
                ..seen
            }
        ));
    }

    #[test]
    fn the_pinned_table_covers_every_pair() {
        let table = Table::pinned();
        for program in calls_programs().iter().chain(jobs_programs().iter()) {
            for preset in presets() {
                assert_ne!(
                    table.get(&program.label, preset.name).instructions,
                    u64::MAX
                );
            }
        }
        assert_ne!(
            table.get(crate::rpc::CLIENT_LABEL, "i2").instructions,
            u64::MAX
        );
    }
}
