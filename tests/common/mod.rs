//! The dispatch ladder shared by the differential suites.

// Each suite uses a subset of these helpers.
#![allow(dead_code)]

use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Dispatch, Image, Machine, MachineConfig};

/// Compile threshold on the native rung: low, so even short runs spend
/// time in compiled bodies and random pauses land inside bursts.
pub const NATIVE_THRESHOLD: u32 = 4;

/// Every [`Dispatch`] mode applied to `base`, weakest first; element 0
/// (byte decode) is the reference the other rungs must match bit for
/// bit. The `match` below is exhaustive and chains each mode to its
/// successor, so a new variant fails to compile here until it joins
/// the ladder: no dispatch mode can skip parity.
pub fn ladder(base: MachineConfig) -> Vec<(&'static str, MachineConfig)> {
    let rung = |d: Dispatch| match d {
        Dispatch::Byte => ("byte", Some(Dispatch::Fused)),
        Dispatch::Fused => ("fused", Some(Dispatch::Native)),
        Dispatch::Native => ("native", None),
    };
    let mut rungs = Vec::new();
    let mut next = Some(Dispatch::Byte);
    while let Some(d) = next {
        let (name, after) = rung(d);
        let cfg = base
            .with_dispatch(d)
            .with_native_threshold(NATIVE_THRESHOLD);
        rungs.push((name, cfg));
        next = after;
    }
    rungs
}

/// Loads `image` on `cfg` and, on the native rung, arms the tier under
/// the license of a fresh verifier certificate (the image must verify
/// clean).
pub fn load(image: &Image, cfg: MachineConfig) -> Machine {
    let mut m = Machine::load(image, cfg).expect("loads");
    if cfg.dispatch == Dispatch::Native {
        let report = verify_image(image, &VerifyOptions::for_config(&cfg));
        let license = report
            .certificate()
            .unwrap_or_else(|| panic!("image must verify clean:\n{report}"))
            .native_license();
        assert!(m.arm_native(license), "license must arm");
    }
    m
}
