//! Differential tests for the host-side dispatch modes.
//!
//! Fused predecode and the native tier are host-side optimisations
//! only: a run under any [`fpc_vm::Dispatch`] mode must be
//! **bit-identical** in every simulated respect — outputs,
//! instruction/cycle/jump counters, memory-reference counters,
//! per-transfer-kind statistics, return stack, bank, frame-cache and
//! heap statistics — to a run re-parsing the code bytes on every step.
//! These tests enforce that over the whole corpus on all four machine
//! configurations, and across mid-run mutation (module relocation,
//! procedure replacement, a guest store rebinding a link-vector slot),
//! where a stale cache would be most tempting and most wrong.

mod common;

use common::ladder;
use fpc_isa::Instr;
use fpc_vm::{Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec, StepOutcome};
use fpc_workloads::{corpus, run_workload};

/// Every simulated-side observable, flattened through Debug. Any
/// divergence — one cycle, one table read, one histogram bucket —
/// shows up as a string diff.
fn fingerprint(m: &Machine) -> String {
    format!(
        "output={:?} stack={:?} stats={:?} mem={:?} rs={:?} banks={:?} cache={:?} heap={:?}",
        m.output(),
        m.stack(),
        m.stats(),
        m.mem_stats(),
        m.return_stack_stats(),
        m.bank_stats(),
        m.cache_stats(),
        m.heap_stats(),
    )
}

fn all_configs() -> [(&'static str, MachineConfig); 4] {
    [
        ("i1", MachineConfig::i1()),
        ("i2", MachineConfig::i2()),
        ("i3", MachineConfig::i3()),
        ("i4", MachineConfig::i4()),
    ]
}

#[test]
fn corpus_counters_identical_across_decode_paths() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 17, "parity must cover the whole corpus");
    let mut fused = 0u64;
    let mut native_instrs = 0u64;
    for w in &corpus {
        for (name, config) in all_configs() {
            let runs: Vec<(&str, Machine)> = ladder(config)
                .into_iter()
                .map(|(rung, cfg)| {
                    let m = run_workload(w, cfg, Default::default())
                        .unwrap_or_else(|e| panic!("{} on {name} ({rung}): {e}", w.name));
                    (rung, m)
                })
                .collect();
            let reference = fingerprint(&runs[0].1);
            assert_eq!(
                runs[0].1.output(),
                w.expected.as_slice(),
                "{} on {name}",
                w.name
            );
            for (rung, m) in &runs[1..] {
                assert_eq!(
                    fingerprint(m),
                    reference,
                    "{} on {name}: {rung} diverged from the byte-decoded run",
                    w.name
                );
            }
            let ps = runs[1].1.predecode_stats().expect("cache is on");
            assert!(
                ps.hits > ps.lazy_decodes,
                "{} on {name}: eager translation should serve the steady state \
                 ({ps:?})",
                w.name
            );
            assert!(runs[0].1.predecode_stats().is_none(), "cache is off");
            assert!(runs[0].1.fusion_stats().is_none(), "fusion is off");
            let top = &runs[1].1;
            fused += top.fusion_stats().expect("fusion is on").fused_execs;
            assert!(top.native_stats().is_none(), "native tier is off");
            let nstats = runs[2].1.native_stats().expect("native tier is on");
            assert!(
                nstats.armed,
                "{} on {name}: the corpus verifies clean, so the license arms",
                w.name
            );
            native_instrs += nstats.native_instrs;
        }
    }
    assert!(
        fused > 0,
        "the corpus must actually execute fused superinstructions"
    );
    assert!(
        native_instrs > 0,
        "the corpus must actually retire native-compiled instructions"
    );
}

/// The mid-run mutation loop: runs `image` through `run` on every rung
/// of the ladder over I2 and I3, and asserts each rung reproduces the
/// byte-decoded reference run bit for bit. Returns each config's runs,
/// reference first, for mutation-specific cache assertions.
fn assert_mutation_parity(
    what: &str,
    image: &Image,
    expected: &[u16],
    run: fn(&Image, MachineConfig) -> Machine,
) -> Vec<Vec<(&'static str, Machine)>> {
    [MachineConfig::i2(), MachineConfig::i3()]
        .into_iter()
        .map(|config| {
            let runs: Vec<(&str, Machine)> = ladder(config)
                .into_iter()
                .map(|(rung, cfg)| (rung, run(image, cfg)))
                .collect();
            let reference = fingerprint(&runs[0].1);
            assert_eq!(runs[0].1.output(), expected, "{what}");
            for (rung, m) in &runs[1..] {
                assert_eq!(
                    fingerprint(m),
                    reference,
                    "{what} under {config:?} diverged on {rung}"
                );
            }
            runs
        })
        .collect()
}

/// tri(n) recursion whose main calls it five times — long enough to
/// mutate code mid-run, deep enough that suspended frames span the
/// mutation.
fn tri_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("tri", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        let base = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(base);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
        a.bind(base);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..5 {
            a.instr(Instr::LoadImm(40));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

/// Steps to completion, relocating module 0 every ~500 *instructions*.
/// Pacing by the instruction counter (a fused step retires two) keeps
/// the mutation points aligned in simulated time across every rung of
/// the dispatch ladder.
fn run_with_relocations(image: &Image, config: MachineConfig) -> Machine {
    let mut machine = common::load(image, config);
    let mut last_move = 0u64;
    let mut moves = 0;
    loop {
        match machine.step().unwrap() {
            StepOutcome::Halted => break,
            StepOutcome::Ran => {
                let done = machine.stats().instructions;
                if done - last_move >= 500 && moves < 5 {
                    machine.relocate_module(0).unwrap();
                    moves += 1;
                    last_move = done;
                }
            }
        }
        assert!(machine.stats().instructions < 1_000_000, "runaway");
    }
    assert!(moves >= 3, "run long enough to move code: {moves}");
    machine
}

#[test]
fn relocation_mid_run_preserves_counters() {
    let image = tri_image();
    let expected = [820; 5];
    for runs in assert_mutation_parity("relocation", &image, &expected, run_with_relocations) {
        let ps = runs[1].1.predecode_stats().unwrap();
        assert!(
            ps.rebuilds >= 3,
            "each relocation re-keys the cache: {ps:?}"
        );
        let ns = runs[2].1.native_stats().unwrap();
        assert!(!ns.armed, "moving code lapses the certificate: {ns:?}");
    }
}

/// f(x) image whose entry 0 is swapped from x+1 to x*3 after the
/// second output.
fn replace_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("f", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..4 {
            a.instr(Instr::LoadImm(10));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

fn run_with_replacement(image: &Image, config: MachineConfig) -> Machine {
    let mut machine = common::load(image, config);
    while machine.output().len() < 2 {
        assert_eq!(machine.step().unwrap(), StepOutcome::Ran);
    }
    machine
        .replace_proc(0, 0, 1, 2, |a| {
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(3));
            a.instr(Instr::Mul);
            a.instr(Instr::StoreLocal(1));
            a.instr(Instr::LoadLocal(1));
            a.instr(Instr::Ret);
        })
        .unwrap();
    machine.run(10_000).unwrap();
    machine
}

#[test]
fn replacement_mid_run_preserves_counters() {
    let image = replace_image();
    let expected = [11, 11, 30, 30];
    for runs in assert_mutation_parity("replacement", &image, &expected, run_with_replacement) {
        // The replacement body must have been executed from the cache,
        // not just decoded lazily as a straggler.
        let ps = runs[1].1.predecode_stats().unwrap();
        assert!(ps.rebuilds >= 1, "{ps:?}");
    }
}

/// Calls through link-vector slot 0 in a loop, `f(x) = x+1` in a
/// library module. On the seventh iteration the guest itself copies
/// slot 1 (`g(x) = x*3`) over slot 0 with an ordinary indirect store,
/// so every later `EFC` through slot 0 must reach `g`. By then the
/// loop body is hot, so on the native rung the store and the next call
/// both retire inside one compiled burst.
fn link_rewrite_image() -> Image {
    let mut b = ImageBuilder::new();
    let lib = b.module("lib");
    b.proc_with(lib, ProcSpec::new("f", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::Ret);
    });
    b.proc_with(lib, ProcSpec::new("g", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(3));
        a.instr(Instr::Mul);
        a.instr(Instr::Ret);
    });
    let main = b.module("main");
    let g0 = b.global(main, 0);
    let lv_f = b.import(
        main,
        ProcRef {
            module: 0,
            ev_index: 0,
        },
    );
    b.import(
        main,
        ProcRef {
            module: 0,
            ev_index: 1,
        },
    );
    // Link-vector slot k sits at gf - 1 - k; global 0 at gf + 1.
    let slot = move |a: &mut fpc_isa::Assembler, k: u16| {
        a.instr(Instr::LoadGlobalAddr(g0));
        a.instr(Instr::LoadImm(2 + k));
        a.instr(Instr::Sub);
    };
    b.proc_with(main, ProcSpec::new("main", 0, 1), move |a| {
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        let call = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(6));
        a.instr(Instr::CmpEq);
        a.jump_zero(call);
        slot(a, 1);
        a.instr(Instr::Read);
        slot(a, 0);
        a.instr(Instr::Write);
        a.bind(call);
        a.instr(Instr::LoadImm(10));
        a.instr(Instr::ExternalCall(lv_f));
        a.instr(Instr::Out);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(12));
        a.instr(Instr::CmpLt);
        a.jump_not_zero(top);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 1,
        ev_index: 0,
    })
    .unwrap()
}

fn run_link_rewrite(image: &Image, config: MachineConfig) -> Machine {
    let mut machine = common::load(image, config);
    machine.run(10_000).unwrap();
    machine
}

#[test]
fn link_rewrite_mid_run_reaches_the_new_target() {
    let image = link_rewrite_image();
    let mut expected = vec![11; 6];
    expected.extend([30; 6]);
    for runs in assert_mutation_parity("link rewrite", &image, &expected, run_link_rewrite) {
        let ns = runs[2].1.native_stats().unwrap();
        assert!(
            ns.armed && ns.native_instrs > 0,
            "a guest table store neither deopts nor bypasses the tier: {ns:?}"
        );
    }
}
