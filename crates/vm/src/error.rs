//! Virtual-machine errors and trap codes.

use std::fmt;

use fpc_frames::FrameError;
use fpc_isa::DecodeError;

/// Architectural trap codes raised by the interpreter.
///
/// A trap is a control transfer like any other (§5.1 mentions
/// instructions combining `XFER` with other operations "to support
/// traps"); if a handler context is installed the machine transfers to
/// it, otherwise execution stops with [`VmError::UnhandledTrap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapCode {
    /// Division or modulus by zero.
    DivideByZero,
    /// Evaluation-stack overflow (expression too deep for the register
    /// stack).
    StackOverflow,
    /// A `TRAP n` instruction with a user code.
    User(u8),
}

impl TrapCode {
    /// The word pushed as the handler's argument.
    pub fn code(self) -> u16 {
        match self {
            TrapCode::DivideByZero => 0xFF00,
            TrapCode::StackOverflow => 0xFF01,
            TrapCode::User(n) => n as u16,
        }
    }
}

impl fmt::Display for TrapCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapCode::DivideByZero => write!(f, "divide by zero"),
            TrapCode::StackOverflow => write!(f, "evaluation stack overflow"),
            TrapCode::User(n) => write!(f, "user trap {n}"),
        }
    }
}

/// Recoverable architectural faults.
///
/// Unlike a [`TrapCode`] trap — which resumes *after* the trapping
/// instruction — a fault **restarts** the faulting instruction once its
/// handler returns, so the handler must remove the cause (donate frame
/// words, re-bind code) rather than emulate the instruction. This is
/// the paper's §5.3 software-replenisher shape generalised: the machine
/// commits no architectural state before any fault point, so the retry
/// is indistinguishable from a first execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Frame allocation failed: the AV free list was empty and the
    /// carve region is exhausted (or the general heap has no block).
    /// The handler is the software replenisher.
    FrameFault,
    /// A transfer targeted (or resumed into) a module whose code
    /// segment is unbound (swapped out). The handler re-binds it.
    UnboundProcedure,
    /// Evaluation-stack overflow, dispatched as a fault when a handler
    /// is installed (the handler runs on the emergency stack reserve).
    StackOverflow,
    /// A remote transfer failed terminally (dead node, deadline
    /// exceeded, undecodable reply, retries exhausted). The handler can
    /// inspect the failure with `RFINFO`, request a replica rebind with
    /// `FAILOVER`, and return to restart the call.
    RemoteFault,
}

impl FaultKind {
    /// The number of distinct fault kinds (handler-table size).
    pub const COUNT: usize = 4;

    /// Dense index for handler tables.
    pub fn index(self) -> usize {
        match self {
            FaultKind::FrameFault => 0,
            FaultKind::UnboundProcedure => 1,
            FaultKind::StackOverflow => 2,
            FaultKind::RemoteFault => 3,
        }
    }

    /// The word pushed as the handler's argument, disjoint from every
    /// [`TrapCode::code`] value.
    pub fn code(self) -> u16 {
        match self {
            FaultKind::FrameFault => 0xFE00,
            FaultKind::UnboundProcedure => 0xFE01,
            FaultKind::StackOverflow => 0xFE02,
            FaultKind::RemoteFault => 0xFE03,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::FrameFault => write!(f, "frame fault"),
            FaultKind::UnboundProcedure => write!(f, "unbound procedure"),
            FaultKind::StackOverflow => write!(f, "stack overflow fault"),
            FaultKind::RemoteFault => write!(f, "remote transfer fault"),
        }
    }
}

/// Why a remote transfer failed — the taxonomy a `RemoteFault` handler
/// reads back through `RFINFO` (low four bits of the info word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoteFaultClass {
    /// The transport reported the target node dead or unreachable.
    RemoteDead,
    /// The call's deadline elapsed without a reply.
    Timeout,
    /// A reply arrived but could not be decoded.
    DecodeError,
    /// The call policy's retry budget ran out.
    RetriesExhausted,
}

impl RemoteFaultClass {
    /// The number of distinct classes.
    pub const COUNT: usize = 4;

    /// Low-nibble encoding for the `RFINFO` info word.
    pub fn code(self) -> u16 {
        match self {
            RemoteFaultClass::RemoteDead => 0,
            RemoteFaultClass::Timeout => 1,
            RemoteFaultClass::DecodeError => 2,
            RemoteFaultClass::RetriesExhausted => 3,
        }
    }

    /// Inverse of [`RemoteFaultClass::code`].
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            0 => Some(RemoteFaultClass::RemoteDead),
            1 => Some(RemoteFaultClass::Timeout),
            2 => Some(RemoteFaultClass::DecodeError),
            3 => Some(RemoteFaultClass::RetriesExhausted),
            _ => None,
        }
    }
}

impl fmt::Display for RemoteFaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteFaultClass::RemoteDead => write!(f, "remote dead"),
            RemoteFaultClass::Timeout => write!(f, "timeout"),
            RemoteFaultClass::DecodeError => write!(f, "decode error"),
            RemoteFaultClass::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

/// Errors that stop the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The instruction stream could not be decoded.
    Decode(DecodeError),
    /// Frame allocation failed.
    Frame(FrameError),
    /// Evaluation-stack underflow: the compiler or hand-written code
    /// popped more than it pushed.
    StackUnderflow,
    /// `XFER` through the nil context outside a process root — e.g. a
    /// return along a link that was never set.
    XferToNil,
    /// `XFER` to a word that is not a valid context in this image.
    InvalidContext(u16),
    /// A trap with no handler installed.
    UnhandledTrap(TrapCode),
    /// `LLA` executed under [`PtrLocalPolicy::Outlaw`]
    /// (§7.4's "simplest solution is avoidance").
    ///
    /// [`PtrLocalPolicy::Outlaw`]: crate::PtrLocalPolicy::Outlaw
    PointerToLocalOutlawed,
    /// Strict stack discipline violated: a call found values on the
    /// evaluation stack beyond the arguments. The compiler must spill
    /// pending temporaries before a call (§5.2's `f[g[], h[]]` point).
    StrictStackViolation {
        /// Stack depth found.
        depth: usize,
        /// Arguments expected.
        nargs: usize,
    },
    /// The instruction budget ran out before `HALT`. The machine is
    /// left intact and resumable: calling `run` again continues.
    OutOfFuel,
    /// The image is malformed or incompatible with the configuration.
    BadImage(String),
    /// The configured memory size is not a power of two: guest-derived
    /// addresses are wrapped into the address space with a mask.
    MemorySize {
        /// The rejected `MachineConfig::memory_words`.
        words: u32,
    },
    /// A fault was raised with no handler installed for its kind (and
    /// no legacy terminal mapping applies).
    UnhandledFault(FaultKind),
    /// A second fault was raised while the machine was still
    /// dispatching the first — before the handler's first instruction
    /// completed. Restart is impossible; the machine stops.
    DoubleFault {
        /// The fault being dispatched when the second one hit.
        first: FaultKind,
        /// The fault raised during dispatch.
        second: FaultKind,
    },
    /// Nested fault handlers exceeded the configured depth bound.
    FaultDepthExceeded {
        /// The fault that would have exceeded the bound.
        kind: FaultKind,
        /// The configured bound.
        limit: u32,
    },
    /// A transfer targeted module `module` whose code is unbound and no
    /// `UnboundProcedure` handler is installed.
    UnboundCode {
        /// The unbound module's index.
        module: usize,
    },
    /// An `ExternalCall` resolved into a remote-marked link-vector
    /// entry and the call is now in flight. Like [`VmError::OutOfFuel`]
    /// this is a pause, not a death: the machine is parked on the call
    /// instruction with the argument record still on the evaluation
    /// stack, and resumes once the host delivers a completion
    /// (`Machine::complete_remote`) or a failure
    /// (`Machine::fail_remote`). Nothing is committed for the blocked
    /// attempt.
    RemoteBlocked,
    /// A remote call failed terminally for `class`; dispatched as a
    /// [`FaultKind::RemoteFault`] when a handler is installed.
    RemoteFailure {
        /// Why the call failed.
        class: RemoteFaultClass,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Decode(e) => write!(f, "decode error: {e}"),
            VmError::Frame(e) => write!(f, "frame allocation error: {e}"),
            VmError::StackUnderflow => write!(f, "evaluation stack underflow"),
            VmError::XferToNil => write!(f, "XFER to NIL context"),
            VmError::InvalidContext(w) => write!(f, "XFER to invalid context word {w:#06x}"),
            VmError::UnhandledTrap(t) => write!(f, "unhandled trap: {t}"),
            VmError::PointerToLocalOutlawed => {
                write!(f, "pointer to local taken while the policy outlaws it")
            }
            VmError::StrictStackViolation { depth, nargs } => write!(
                f,
                "call with {depth} values on the stack but only {nargs} arguments; \
                 pending temporaries must be spilled"
            ),
            VmError::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmError::BadImage(m) => write!(f, "bad image: {m}"),
            VmError::MemorySize { words } => {
                write!(f, "memory of {words} words is not a power of two")
            }
            VmError::UnhandledFault(k) => write!(f, "unhandled fault: {k}"),
            VmError::DoubleFault { first, second } => {
                write!(f, "double fault: {second} while dispatching {first}")
            }
            VmError::FaultDepthExceeded { kind, limit } => {
                write!(f, "{kind} exceeded fault depth limit {limit}")
            }
            VmError::UnboundCode { module } => {
                write!(f, "transfer into unbound code of module {module}")
            }
            VmError::RemoteBlocked => {
                write!(f, "remote call in flight; park and resume on completion")
            }
            VmError::RemoteFailure { class } => write!(f, "remote call failed: {class}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Decode(e) => Some(e),
            VmError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for VmError {
    fn from(e: DecodeError) -> Self {
        VmError::Decode(e)
    }
}

impl From<FrameError> for VmError {
    fn from(e: FrameError) -> Self {
        VmError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_codes_distinct() {
        assert_ne!(
            TrapCode::DivideByZero.code(),
            TrapCode::StackOverflow.code()
        );
        assert_eq!(TrapCode::User(7).code(), 7);
    }

    #[test]
    fn display_messages() {
        assert!(VmError::XferToNil.to_string().contains("NIL"));
        assert!(VmError::UnhandledTrap(TrapCode::DivideByZero)
            .to_string()
            .contains("divide"));
        assert!(VmError::StrictStackViolation { depth: 3, nargs: 1 }
            .to_string()
            .contains("spilled"));
    }

    #[test]
    fn conversions() {
        let e: VmError = FrameError::OutOfMemory.into();
        assert!(matches!(e, VmError::Frame(FrameError::OutOfMemory)));
    }

    #[test]
    fn fault_codes_disjoint_from_trap_codes() {
        let faults = [
            FaultKind::FrameFault,
            FaultKind::UnboundProcedure,
            FaultKind::StackOverflow,
            FaultKind::RemoteFault,
        ];
        for (i, a) in faults.iter().enumerate() {
            assert_eq!(a.index(), i);
            for b in &faults[i + 1..] {
                assert_ne!(a.code(), b.code());
            }
            for t in [TrapCode::DivideByZero, TrapCode::StackOverflow] {
                assert_ne!(a.code(), t.code());
            }
        }
        assert_eq!(faults.len(), FaultKind::COUNT);
    }

    #[test]
    fn fault_error_displays() {
        assert!(VmError::DoubleFault {
            first: FaultKind::FrameFault,
            second: FaultKind::StackOverflow,
        }
        .to_string()
        .contains("double fault"));
        assert!(VmError::FaultDepthExceeded {
            kind: FaultKind::FrameFault,
            limit: 8,
        }
        .to_string()
        .contains("depth limit 8"));
        assert!(VmError::UnboundCode { module: 2 }.to_string().contains("2"));
        assert!(VmError::UnhandledFault(FaultKind::UnboundProcedure)
            .to_string()
            .contains("unbound"));
    }

    #[test]
    fn remote_fault_classes_round_trip() {
        for c in [
            RemoteFaultClass::RemoteDead,
            RemoteFaultClass::Timeout,
            RemoteFaultClass::DecodeError,
            RemoteFaultClass::RetriesExhausted,
        ] {
            assert_eq!(RemoteFaultClass::from_code(c.code()), Some(c));
        }
        assert_eq!(RemoteFaultClass::from_code(9), None);
        assert!(VmError::RemoteFailure {
            class: RemoteFaultClass::Timeout
        }
        .to_string()
        .contains("timeout"));
        assert!(VmError::RemoteBlocked.to_string().contains("in flight"));
    }
}
