//! Charge-free effect-observation journal.
//!
//! When [`MachineConfig::observe_effects`] is on, the machine records
//! into an [`ObservedEffects`] every effect an instruction *actually*
//! performs — global-frame reads and writes (as per-segment interval
//! hulls, mirroring the static analysis's footprint domain), raw
//! memory-bank traffic, output, donations, module binds, traps taken,
//! context operations, handler installs and remote calls issued. The
//! journal is host-side bookkeeping: no simulated counter moves, so
//! the parity ladder is unaffected.
//!
//! Its purpose is the effect-soundness differential: after a run, every
//! observed effect must be covered by the `fpc-verify` static summary
//! of some procedure reachable from the entry (or that summary must be
//! ⊤). `tests/effect_soundness.rs` asserts this corpus-wide across
//! seeds and all three dispatch rungs.
//!
//! [`MachineConfig::observe_effects`]: crate::MachineConfig::observe_effects

use std::collections::BTreeMap;

/// Effects a machine actually performed, accumulated across the whole
/// run. Footprints are keyed by *code segment* (an instance records
/// against the module whose code it runs), matching the static
/// summary's domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservedEffects {
    /// Global-frame slots read, per code segment, as an interval hull.
    pub global_reads: BTreeMap<usize, (u32, u32)>,
    /// Global-frame slots written, per code segment, as an interval
    /// hull.
    pub global_writes: BTreeMap<usize, (u32, u32)>,
    /// A raw memory-bank read (`READ`/`LOADIX`) executed.
    pub reads_memory: bool,
    /// A raw memory-bank write (`WRITE`/`STOREIX`) executed.
    pub writes_memory: bool,
    /// An `OUT` executed.
    pub writes_output: bool,
    /// A `DONATE` executed.
    pub donates: bool,
    /// A `BINDMOD` executed.
    pub binds_modules: bool,
    /// A trap was dispatched (explicit `TRAP` or a zero divisor).
    pub trapped: bool,
    /// A context was created, freed, spawned, or transferred to.
    pub context_ops: bool,
    /// A fault/remote handler was installed (`RMTINFO`/`FAILOVER`).
    pub handler_ops: bool,
    /// A call was issued through a remote descriptor.
    pub called_remote: bool,
}

fn widen(map: &mut BTreeMap<usize, (u32, u32)>, seg: usize, slot: u32) {
    map.entry(seg)
        .and_modify(|(lo, hi)| {
            *lo = (*lo).min(slot);
            *hi = (*hi).max(slot);
        })
        .or_insert((slot, slot));
}

impl ObservedEffects {
    /// Records a global-frame read of `slot` in `seg`'s code.
    pub(crate) fn global_read(&mut self, seg: usize, slot: u32) {
        widen(&mut self.global_reads, seg, slot);
    }

    /// Records a global-frame write of `slot` in `seg`'s code.
    pub(crate) fn global_write(&mut self, seg: usize, slot: u32) {
        widen(&mut self.global_writes, seg, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_hull() {
        let mut o = ObservedEffects::default();
        o.global_read(0, 5);
        o.global_read(0, 2);
        o.global_write(1, 7);
        assert_eq!(o.global_reads.get(&0), Some(&(2, 5)));
        assert_eq!(o.global_writes.get(&1), Some(&(7, 7)));
        assert!(!o.global_writes.contains_key(&0));
    }
}
