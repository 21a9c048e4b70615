//! Fuel slicing is invisible: the property the host scheduler stands
//! on.
//!
//! `fpc-sched` preempts machines at arbitrary fuel boundaries and
//! resumes them on arbitrary workers. That is sound only if a run
//! split into slices `a + b + …` is *bit-identical* to the unsliced
//! run — stats, output, references, fusion statistics — on every rung
//! of the three-level dispatch ladder, including a zero-length first
//! slice and splits that land inside a fused pair or a native burst.
//!
//! The second half pins the same property for fault-injection plans:
//! a [`PlanCursor`] advanced across preemptions must fire every event
//! exactly once, so a sliced plan run matches the one-shot
//! [`run_with_plan`] to the counter.

mod common;

use common::{ladder, load};
use fpc_compiler::{Linkage, Options};
use fpc_rng::Rng;
use fpc_vm::{
    run_with_plan, Dispatch, FaultEvent, FaultPlan, Image, Machine, MachineConfig, PlanCursor,
    VmError,
};
use fpc_workloads::{compile_workload, programs};

const FUEL: u64 = 50_000_000;

/// Everything slicing must preserve: architectural state, plus the
/// fusion counters on interpreted rungs. The native rung's *tier occupancy* counters
/// (burst entries, native vs interpreted instruction shares) are
/// deliberately excluded: a pause exits a burst, so where preemption
/// lands changes which tier retires an instruction — but never what
/// it computes or charges, which is exactly the charge-not-perform
/// contract.
fn fingerprint(m: &Machine, include_tier: bool) -> String {
    let tier = if include_tier {
        format!(" fusion={:?}", m.fusion_stats())
    } else {
        String::new()
    };
    format!(
        "instr={} cycles={} jumps={} refs={} out={:?}{}",
        m.stats().instructions,
        m.stats().cycles,
        m.stats().jumps_taken,
        m.total_refs(),
        m.output(),
        tier,
    )
}

fn fib_image() -> Image {
    compile_workload(
        &programs::fib(14),
        Options {
            linkage: Linkage::Direct,
            ..Default::default()
        },
    )
    .expect("fib compiles")
    .image
}

/// Any two-slice split `a + b` of an exact-fuel run, including `a = 0`
/// (an empty first slice must be a true no-op) and odd offsets that
/// land mid-fused-pair and mid-native-burst, matches the one-shot run
/// on every rung.
#[test]
fn any_two_slice_split_is_bit_identical_on_every_rung() {
    let image = fib_image();
    for (rname, cfg) in ladder(MachineConfig::i3()) {
        let mut whole = load(&image, cfg);
        whole.run(FUEL).unwrap();
        let total = whole.stats().instructions;
        let tier = cfg.dispatch != Dispatch::Native;
        let want = fingerprint(&whole, tier);

        // An exact-fuel one-shot run must also halt cleanly: fuel
        // accounting has no off-by-one to hide behind.
        let mut exact = load(&image, cfg);
        exact.run(total).unwrap_or_else(|e| panic!("{rname}: {e}"));
        assert_eq!(fingerprint(&exact, tier), want, "{rname}: exact fuel");

        let mut rng = Rng::seed_from_u64(0xF0E1);
        let mut splits = vec![0, 1, 2, 3, total - 1, total / 2];
        splits.extend((0..8).map(|_| rng.next_u64() % total));
        for a in splits {
            let b = total - a;
            let mut m = load(&image, cfg);
            if a == 0 {
                // A zero-fuel slice is OutOfFuel by definition…
                assert!(matches!(m.run(0), Err(VmError::OutOfFuel)), "{rname}");
            } else {
                match m.run(a) {
                    // One fuel unit retires *at least* one instruction
                    // (a fused pair two, a native burst op one), so a
                    // split near `total` can finish inside slice `a`
                    // on the accelerated rungs — then the fingerprint
                    // must already match and there is no second leg.
                    Ok(()) => {
                        assert_eq!(fingerprint(&m, tier), want, "{rname}: a={a} completed");
                        continue;
                    }
                    Err(VmError::OutOfFuel) => {
                        assert!(m.stats().instructions >= a, "{rname}: a={a}")
                    }
                    Err(e) => panic!("{rname}: a={a}: {e}"),
                }
            }
            // …and the remainder finishes on exactly `b`.
            m.run(b).unwrap_or_else(|e| panic!("{rname}: a={a}: {e}"));
            assert!(m.halted(), "{rname}: a={a}");
            assert_eq!(fingerprint(&m, tier), want, "{rname}: split {a}+{b}");
        }
    }
}

/// Seeded random many-slice schedules (the scheduler's actual access
/// pattern) are bit-identical to the one-shot run on every rung.
#[test]
fn random_slice_schedules_are_bit_identical_on_every_rung() {
    let image = fib_image();
    for (rname, cfg) in ladder(MachineConfig::i3()) {
        let mut whole = load(&image, cfg);
        whole.run(FUEL).unwrap();
        let tier = cfg.dispatch != Dispatch::Native;
        let want = fingerprint(&whole, tier);
        for seed in [1u64, 2, 3] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut m = load(&image, cfg);
            let mut slices = 0u32;
            loop {
                // 1-instruction slices through multi-thousand quanta.
                let fuel = 1 + rng.next_u64() % (10u64.pow(rng.gen_index(4) as u32 + 1));
                match m.run(fuel) {
                    Ok(()) => break,
                    Err(VmError::OutOfFuel) => slices += 1,
                    Err(e) => panic!("{rname}/seed {seed}: {e}"),
                }
                assert!(slices < 1_000_000, "{rname}: runaway");
            }
            assert!(slices > 0, "{rname}: fib must outlast one slice");
            assert_eq!(fingerprint(&m, tier), want, "{rname}: seed {seed}");
        }
    }
}

/// Same-instant seize/release pairs. On I1's coalescing general heap
/// the release restores the free list exactly, so a handler-free run
/// survives every window; the seize/release references are real
/// counted traffic all the same.
fn pressure_blips(ats: &[u64]) -> FaultPlan {
    FaultPlan::from_events(
        ats.iter()
            .flat_map(|&at| {
                [
                    FaultEvent::FramePressure { at },
                    FaultEvent::ReleasePressure { at },
                ]
            })
            .collect(),
    )
}

/// A pressure plan applied through a [`PlanCursor`] in fuel slices
/// fires each event exactly once and matches the one-shot
/// [`run_with_plan`] bit-for-bit — preempting mid-plan neither drops
/// nor re-fires events.
#[test]
fn sliced_plan_runs_match_one_shot_plan_runs() {
    let image = fib_image();
    let plan = pressure_blips(&[10, 997, 5_000, 5_001]);
    for (rname, cfg) in ladder(MachineConfig::i1()) {
        let mut oneshot = load(&image, cfg);
        let report = run_with_plan(&mut oneshot, &plan, FUEL).unwrap();
        assert_eq!(report.applied, 8, "{rname}");
        assert!(report.frames_seized > 0, "{rname}");
        let tier = cfg.dispatch != Dispatch::Native;
        let want = fingerprint(&oneshot, tier);

        for quantum in [1u64, 97, 4096] {
            let mut m = load(&image, cfg);
            let mut cursor = PlanCursor::new(plan.clone());
            loop {
                match cursor.run(&mut m, quantum) {
                    Ok(()) => break,
                    Err(VmError::OutOfFuel) => {}
                    Err(e) => panic!("{rname}/q={quantum}: {e}"),
                }
            }
            assert!(cursor.exhausted(), "{rname}/q={quantum}: all events fired");
            assert_eq!(cursor.report(), report, "{rname}/q={quantum}");
            assert_eq!(fingerprint(&m, tier), want, "{rname}/q={quantum}");
        }
    }
}

/// The cursor is the resumable form — calling the *one-shot*
/// [`run_with_plan`] twice on a paused machine would re-fire events;
/// the cursor must not. This pins the exact bug class the scheduler
/// would otherwise hit when composing plans with preemption.
#[test]
fn plan_cursor_does_not_refire_applied_events_across_pauses() {
    let image = fib_image();
    let cfg = MachineConfig::i1();
    let mut m = load(&image, cfg);
    let mut cursor = PlanCursor::new(pressure_blips(&[5]));
    // Pause long after the events fired…
    assert!(matches!(cursor.run(&mut m, 1_000), Err(VmError::OutOfFuel)));
    let fired = cursor.report();
    assert_eq!(fired.applied, 2);
    assert!(fired.frames_seized > 0);
    assert!(cursor.exhausted());
    // …and resume: the events must not fire again.
    cursor.run(&mut m, FUEL).unwrap();
    assert_eq!(cursor.report(), fired);
}
