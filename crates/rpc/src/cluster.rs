//! The cluster driver: client scheduler + server nodes + transport.
//!
//! A [`Cluster`] is one client node (node 0) running a whole
//! [`Population`] of guest contexts under the deterministic
//! [`DetScheduler`], plus any number of [`ServerNode`]s that execute
//! marshalled requests run-to-completion, all joined by a
//! [`Transport`]. The driver loop interleaves three clocks:
//!
//! 1. **Scheduler ticks** advance client virtual time; a context that
//!    hits a remote `XFER` parks (it never spins) and its worker keeps
//!    running other contexts.
//! 2. **The transport** carries frames under the serialized-link cost
//!    model, interpreting the run's [`NetPlan`].
//! 3. **Server nodes** are serial executors: a request admitted at `t`
//!    replies at `max(t, node_free_at) + ADMIT_CYCLES + guest cycles`,
//!    so server contention is priced, not wished away.
//!
//! Every in-flight call sits in a `waiting` map keyed by wire sequence
//! number and runs the [`CallPolicy`] state machine: deadline →
//! backoff → resend (same seq, so duplicates and late replies dedup)
//! → `RetriesExhausted`. A failure that exhausts the policy is
//! delivered to the guest as a restartable `RemoteFault`; the guest
//! handler can read the failure word (`RFINFO`), request a rebind
//! (`FAILOVER`) — honoured here against the registered replica sets —
//! and restart the call.
//!
//! [`NetPlan`]: fpc_vm::inject::NetPlan

use std::collections::{BTreeMap, BTreeSet, HashMap};

use fpc_sched::{Context, DetScheduler, Population, SchedConfig, SchedReport, TickOutcome};
use fpc_stats::Histogram;
use fpc_vm::{Idempotence, Image, Machine, MachineConfig, ProcRef, RemoteFaultClass};

use crate::policy::CallPolicy;
use crate::transport::{Delivery, NetStats, NodeId, Transport};
use crate::wire::{self, Packet, Reply, Request};

/// The client node's id: the node every context in the population
/// lives on.
pub const CLIENT_NODE: NodeId = 0;

/// Consecutive idle scheduler ticks with no frame in flight and no
/// timer pending before the driver declares a lost wake-up. Idle ticks
/// *with* pending work are normal (virtual time passing toward a
/// delivery or deadline); idle ticks with nothing pending can only
/// mean the driver dropped a context.
const FUTILE_TICK_LIMIT: u64 = 10_000;

/// One exported procedure on a server node. The wire `proc` id is the
/// service's index in the node's service table.
#[derive(Debug, Clone)]
pub struct ServiceDef {
    /// Import name remote descriptors bind against.
    pub name: String,
    /// Entry procedure in the server image.
    pub entry: ProcRef,
    /// Argument words the service consumes off the wire.
    pub nargs: u8,
    /// Result words the service leaves on its stack.
    pub nret: u8,
}

/// A server machine: an image, a service table, and a serial virtual
/// clock. Each request loads a fresh [`Machine`] at the service's
/// entry (stateless servers — replicas are interchangeable, which is
/// what makes failover sound).
#[derive(Debug)]
pub struct ServerNode {
    image: Image,
    config: MachineConfig,
    services: Vec<ServiceDef>,
    /// Fuel budget per request; a service that exceeds it is reported
    /// dead, not hung.
    fuel: u64,
    /// When this serial executor frees up (virtual cycles).
    free_at: u64,
    /// Per-service idempotence certificates (lazily computed from the
    /// image's `fpc-verify` effect summaries on first consultation,
    /// so runs that never need one never pay for the analysis).
    certified: Option<Vec<bool>>,
}

impl ServerNode {
    /// A server over `image` with an empty service table.
    pub fn new(image: Image, config: MachineConfig) -> Self {
        ServerNode {
            image,
            config,
            services: Vec::new(),
            fuel: 1_000_000,
            free_at: 0,
            certified: None,
        }
    }

    /// Exports `entry` as a service; wire `proc` ids follow
    /// registration order.
    pub fn service(mut self, name: &str, entry: ProcRef, nargs: u8, nret: u8) -> Self {
        self.services.push(ServiceDef {
            name: name.to_string(),
            entry,
            nargs,
            nret,
        });
        self
    }

    /// Caps the fuel one request may burn.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Whether the serving procedure of service `idx` carries an
    /// idempotence certificate: the image verifies clean and the
    /// entry's transitive effect summary proves re-execution writes no
    /// observable state outside its reply record.
    fn service_certified(&mut self, idx: usize) -> bool {
        let image = &self.image;
        let config = &self.config;
        let services = &self.services;
        let verdicts = self.certified.get_or_insert_with(|| {
            let report =
                fpc_verify::verify_image(image, &fpc_verify::VerifyOptions::for_config(config));
            services
                .iter()
                .map(|svc| report.retry_safe(svc.entry.module, svc.entry.ev_index))
                .collect()
        });
        verdicts.get(idx).copied().unwrap_or(false)
    }
}

/// Where a waiting call is in the [`CallPolicy`] state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallState {
    /// Sent, awaiting a reply until the deadline.
    InFlight {
        /// Virtual time at which this attempt times out.
        deadline_at: u64,
    },
    /// A failed attempt cooling off before the resend.
    Backoff {
        /// Virtual time at which to resend.
        resend_at: u64,
    },
}

impl CallState {
    /// When this state's timer fires: the deadline or the resend time.
    fn due(self) -> u64 {
        match self {
            CallState::InFlight { deadline_at } => deadline_at,
            CallState::Backoff { resend_at } => resend_at,
        }
    }
}

/// A parked context plus everything needed to retry or fail its call.
#[derive(Debug)]
struct WaitingCall {
    ctx: Context,
    node: NodeId,
    proc: u16,
    args: Vec<u16>,
    nret: u8,
    /// The import site's declaration, from the remote descriptor.
    idempotence: Idempotence,
    attempts: u32,
    first_issued: u64,
    state: CallState,
}

/// Host-side RPC counters — like `FaultStats`, kept strictly apart
/// from the guests' architectural counters.
#[derive(Debug, Clone, Default)]
pub struct RpcStats {
    /// Logical calls issued (first attempts).
    pub issued: u64,
    /// Calls completed with results delivered.
    pub completed: u64,
    /// Resends after a failed attempt.
    pub retries: u64,
    /// Attempts that hit their deadline.
    pub timeouts: u64,
    /// Attempts bounced off a crashed node.
    pub naks: u64,
    /// Failures delivered to guests as restartable `RemoteFault`s.
    pub faults_delivered: u64,
    /// `FAILOVER` rebinds honoured.
    pub failovers: u64,
    /// Replies with no waiting call (late duplicates, post-retry
    /// originals) — dropped by seq dedup.
    pub stale_replies: u64,
    /// Frames that failed to decode at either end.
    pub corrupt_frames: u64,
    /// Requests server nodes executed (duplicates included).
    pub server_requests: u64,
    /// Guest cycles burned server-side.
    pub server_cycles: u64,
    /// Issue-to-complete latency of every completed call.
    pub latency: Histogram,
    /// Latency of calls that completed on the first attempt.
    pub clean_latency: Histogram,
    /// Latency of calls that needed at least one retry or failover —
    /// the priced cost of recovery.
    pub recovery_latency: Histogram,
}

/// Everything a cluster run produces.
#[derive(Debug)]
pub struct ClusterReport {
    /// The client scheduler's report (worker stats, trace, finals).
    pub sched: SchedReport,
    /// Host RPC accounting.
    pub rpc: RpcStats,
    /// Network-side accounting.
    pub net: NetStats,
}

/// A client population, a set of server nodes, and the machinery that
/// drives them to completion under one virtual clock.
pub struct Cluster<T: Transport> {
    sched: DetScheduler,
    transport: T,
    policy: CallPolicy,
    rng: fpc_rng::Rng,
    servers: BTreeMap<NodeId, ServerNode>,
    /// Replica sets per remote-link LV index; `FAILOVER` rotates
    /// through these.
    replicas: HashMap<u8, Vec<NodeId>>,
    waiting: BTreeMap<u32, WaitingCall>,
    /// One `(due, seq)` entry per waiting call, at its state's
    /// [`CallState::due`], so a tick finds its due timers without
    /// scanning `waiting`.
    timers: BTreeSet<(u64, u32)>,
    next_seq: u32,
    stats: RpcStats,
}

impl<T: Transport> Cluster<T> {
    /// Builds a cluster: `population` on the client under `sched_cfg`
    /// (the deterministic engine — the cluster owns virtual time, so
    /// real threads cannot drive it), `transport` between nodes,
    /// `policy` on every call, `seed` for backoff jitter.
    pub fn new(
        population: Population,
        sched_cfg: &SchedConfig,
        transport: T,
        policy: CallPolicy,
        seed: u64,
    ) -> Self {
        Cluster {
            sched: DetScheduler::new(population, sched_cfg),
            transport,
            policy,
            rng: fpc_rng::Rng::seed_from_u64(seed ^ 0x5ca1_ab1e),
            servers: BTreeMap::new(),
            replicas: HashMap::new(),
            waiting: BTreeMap::new(),
            timers: BTreeSet::new(),
            next_seq: 1,
            stats: RpcStats::default(),
        }
    }

    /// Installs a server node. Node 0 is the client; registering it is
    /// a bug.
    pub fn add_server(&mut self, node: NodeId, server: ServerNode) {
        assert_ne!(node, CLIENT_NODE, "node 0 is the client");
        self.servers.insert(node, server);
    }

    /// Registers the replica set a `FAILOVER` on remote-link `lv_index`
    /// rotates through.
    pub fn set_replicas(&mut self, lv_index: u8, nodes: Vec<NodeId>) {
        self.replicas.insert(lv_index, nodes);
    }

    /// Drives everything to completion and reports.
    pub fn run(mut self) -> ClusterReport {
        let mut futile = 0u64;
        loop {
            self.pump();
            match self.sched.tick_once() {
                // Contexts held in `waiting` still count as unretired,
                // so Done implies every call has resolved.
                TickOutcome::Done => break,
                TickOutcome::Ran => futile = 0,
                TickOutcome::Idle => {
                    if self.transport.in_flight() == 0 && self.waiting.is_empty() {
                        futile += 1;
                        assert!(
                            futile < FUTILE_TICK_LIMIT,
                            "cluster wedged: contexts remain but nothing is in \
                             flight, waiting, or runnable (lost wake-up?)"
                        );
                    } else {
                        futile = 0;
                    }
                }
            }
        }
        ClusterReport {
            net: self.transport.net_stats(),
            rpc: self.stats,
            sched: self.sched.into_report(),
        }
    }

    /// One round of host work between scheduler ticks: issue calls for
    /// freshly parked contexts, deliver due frames, fire due timers.
    fn pump(&mut self) {
        for ctx in self.sched.take_parked() {
            self.issue(ctx);
        }
        let now = self.sched.now();
        for d in self.transport.poll(now) {
            self.handle_delivery(now, d);
        }
        self.fire_timers(now);
        debug_assert_eq!(self.timers.len(), self.waiting.len());
        debug_assert!(self
            .timers
            .iter()
            .all(|&(due, seq)| self.waiting[&seq].state.due() == due));
    }

    /// Issues the remote call a parked context is blocked on: applies
    /// any pending `FAILOVER` rebind, resolves the service, marshals,
    /// sends, and files the call in the waiting map.
    fn issue(&mut self, mut ctx: Context) {
        // Guest-requested failovers are applied before re-reading the
        // request, so a handler's FAILOVER + restart reissues against
        // the next replica.
        for info in ctx.machine.take_failover_requests() {
            let lv = (info >> 4) as u8;
            let Some(req) = ctx.machine.remote_request() else {
                break;
            };
            if let Some(reps) = self.replicas.get(&lv) {
                if !reps.is_empty() {
                    let pos = reps.iter().position(|&n| n == req.node).unwrap_or(0);
                    let next = reps[(pos + 1) % reps.len()];
                    if ctx.machine.rebind_remote_link(req.module, lv, next) {
                        self.stats.failovers += 1;
                    }
                }
            }
        }
        let Some(req) = ctx.machine.remote_request() else {
            // Parked but not blocked: nothing to issue, hand it back.
            self.sched.wake(ctx);
            return;
        };
        let proc = self
            .servers
            .get(&req.node)
            .and_then(|s| s.services.iter().position(|d| d.name == req.name));
        let Some(proc) = proc else {
            // No such node or no such service there: the descriptor
            // points at nothing — immediately a dead remote.
            ctx.machine.fail_remote(RemoteFaultClass::RemoteDead);
            self.stats.faults_delivered += 1;
            self.sched.wake(ctx);
            return;
        };
        let now = self.sched.now();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.issued += 1;
        let call = WaitingCall {
            ctx,
            node: req.node,
            proc: proc as u16,
            args: req.args,
            nret: req.nret,
            idempotence: req.idempotence,
            attempts: 0,
            first_issued: now,
            // Unarmed until `send_attempt` files its timer.
            state: CallState::InFlight { deadline_at: 0 },
        };
        self.waiting.insert(seq, call);
        self.send_attempt(now, seq);
    }

    /// Sends (or resends) the request for `seq` and arms its deadline.
    fn send_attempt(&mut self, now: u64, seq: u32) {
        self.set_state(
            seq,
            CallState::InFlight {
                deadline_at: now + self.policy.deadline,
            },
        );
        let call = self.waiting.get_mut(&seq).expect("call filed");
        call.attempts += 1;
        let bytes = wire::encode(&Packet::Request(Request {
            seq,
            proc: call.proc,
            args: call.args.clone(),
        }));
        let node = call.node;
        self.transport.send(now, CLIENT_NODE, node, bytes);
    }

    /// Routes one delivered frame.
    fn handle_delivery(&mut self, now: u64, d: Delivery) {
        if d.nak {
            // Our own frame bounced off a crashed node; recover the
            // seq from the bounced bytes and treat it as a failure of
            // that attempt.
            if let Ok(Packet::Request(r)) = wire::decode(&d.bytes) {
                self.stats.naks += 1;
                self.attempt_failed(now, r.seq, RemoteFaultClass::RemoteDead);
            }
            return;
        }
        if d.to == CLIENT_NODE {
            match wire::decode(&d.bytes) {
                Ok(Packet::Reply(r)) => self.handle_reply(now, r),
                Ok(Packet::Request(_)) => self.stats.stale_replies += 1,
                Err(_) => {
                    // An undecodable frame names no seq; the attempt
                    // it answered will hit its deadline.
                    self.stats.corrupt_frames += 1;
                }
            }
        } else {
            self.serve(now, d);
        }
    }

    /// Executes a request on the destination server node and sends the
    /// reply. Stateless execution: duplicates re-run and the client's
    /// seq dedup drops the extra reply.
    fn serve(&mut self, now: u64, d: Delivery) {
        let Some(server) = self.servers.get_mut(&d.to) else {
            return; // frame addressed into the void
        };
        let req = match wire::decode(&d.bytes) {
            Ok(Packet::Request(r)) => r,
            Ok(Packet::Reply(_)) => return,
            Err(_) => {
                self.stats.corrupt_frames += 1;
                return; // can't even name a seq to refuse
            }
        };
        let refuse = |status: RemoteFaultClass| Reply {
            seq: req.seq,
            status: status.code() + 1,
            results: Vec::new(),
        };
        let (reply, cycles) = match server.services.get(req.proc as usize) {
            None => (refuse(RemoteFaultClass::DecodeError), 0),
            Some(svc) if req.args.len() != svc.nargs as usize => {
                // Frame decoded but the record does not match the
                // service signature.
                (refuse(RemoteFaultClass::DecodeError), 0)
            }
            Some(svc) => {
                let svc = svc.clone();
                match Machine::load_service(&server.image, server.config, svc.entry, &req.args) {
                    Ok(mut m) => match m.run(server.fuel) {
                        Ok(()) => {
                            let stack = m.stack();
                            let take = (svc.nret as usize).min(stack.len());
                            let results = stack[stack.len() - take..].to_vec();
                            let cycles = m.stats().cycles;
                            (
                                Reply {
                                    seq: req.seq,
                                    status: 0,
                                    results,
                                },
                                cycles,
                            )
                        }
                        // A service that faults or runs out of fuel is
                        // indistinguishable from a dead node to the
                        // caller.
                        Err(_) => (refuse(RemoteFaultClass::RemoteDead), m.stats().cycles),
                    },
                    Err(_) => (refuse(RemoteFaultClass::RemoteDead), 0),
                }
            }
        };
        self.stats.server_requests += 1;
        self.stats.server_cycles += cycles;
        // Serial executor: the reply departs when the node has both
        // received the request and finished running it.
        let done = server.free_at.max(now) + fpc_sched::ADMIT_CYCLES + cycles;
        server.free_at = done;
        let node = d.to;
        let bytes = wire::encode(&Packet::Reply(reply));
        self.transport.send(done, node, CLIENT_NODE, bytes);
    }

    /// Applies a reply to its waiting call, if any still waits.
    fn handle_reply(&mut self, now: u64, r: Reply) {
        let Some(call) = self.waiting.get(&r.seq) else {
            self.stats.stale_replies += 1;
            return;
        };
        if r.status != 0 {
            let class =
                RemoteFaultClass::from_code(r.status - 1).unwrap_or(RemoteFaultClass::RemoteDead);
            self.attempt_failed(now, r.seq, class);
            return;
        }
        if r.results.len() != call.nret as usize {
            // The reply decoded but the result record is malformed;
            // retrying a deterministic decode error is pointless.
            let call = self.unfile(r.seq);
            self.deliver_fault(call, RemoteFaultClass::DecodeError);
            return;
        }
        let mut call = self.unfile(r.seq);
        call.ctx.machine.complete_remote(r.results);
        self.stats.completed += 1;
        let lat = now.saturating_sub(call.first_issued);
        self.stats.latency.record(lat);
        if call.attempts > 1 {
            self.stats.recovery_latency.record(lat);
        } else {
            self.stats.clean_latency.record(lat);
        }
        self.sched.wake(call.ctx);
    }

    /// One attempt failed (`class` says how): retry under the policy's
    /// decision matrix or deliver the failure to the guest.
    fn attempt_failed(&mut self, now: u64, seq: u32, class: RemoteFaultClass) {
        let Some(call) = self.waiting.get(&seq) else {
            self.stats.stale_replies += 1;
            return;
        };
        let (node, proc, declared, attempts) =
            (call.node, call.proc, call.idempotence, call.attempts);
        // The certificate consultation is lazy: only an Unknown call
        // under IfCertified pays for (memoised) server verification.
        let servers = &mut self.servers;
        let retryable = self.policy.may_retry(declared, || {
            servers
                .get_mut(&node)
                .is_some_and(|s| s.service_certified(proc as usize))
        });
        if retryable && attempts < self.policy.max_attempts {
            let wait = self.policy.backoff(attempts, &mut self.rng);
            self.set_state(
                seq,
                CallState::Backoff {
                    resend_at: now + wait,
                },
            );
            return;
        }
        let exhausted = retryable && attempts >= self.policy.max_attempts;
        let class = if exhausted {
            RemoteFaultClass::RetriesExhausted
        } else {
            class
        };
        let call = self.unfile(seq);
        self.deliver_fault(call, class);
    }

    /// Moves waiting call `seq` to `state`, re-keying its timer entry.
    fn set_state(&mut self, seq: u32, state: CallState) {
        let call = self.waiting.get_mut(&seq).expect("call filed");
        self.timers.remove(&(call.state.due(), seq));
        self.timers.insert((state.due(), seq));
        call.state = state;
    }

    /// Takes waiting call `seq` out of the waiting map and its timer
    /// out of the index.
    fn unfile(&mut self, seq: u32) -> WaitingCall {
        let call = self.waiting.remove(&seq).expect("call filed");
        self.timers.remove(&(call.state.due(), seq));
        call
    }

    /// Hands a failure to the guest as a restartable `RemoteFault`.
    fn deliver_fault(&mut self, mut call: WaitingCall, class: RemoteFaultClass) {
        call.ctx.machine.fail_remote(class);
        self.stats.faults_delivered += 1;
        self.sched.wake(call.ctx);
    }

    /// Fires every deadline and resend timer due at `now`: first the
    /// timed-out attempts, then the resends (including backoffs the
    /// first phase just armed), each phase in seq order, so the jitter
    /// draws come in the same order whatever the timers' due times.
    fn fire_timers(&mut self, now: u64) {
        if self.timers.first().is_none_or(|&(due, _)| due > now) {
            return;
        }
        for seq in self.due_seqs(now, false) {
            self.stats.timeouts += 1;
            self.attempt_failed(now, seq, RemoteFaultClass::Timeout);
        }
        for seq in self.due_seqs(now, true) {
            self.stats.retries += 1;
            self.send_attempt(now, seq);
        }
    }

    /// The seqs, ascending, of calls whose timer is due at `now` and
    /// that are backing off (`backoff`) or in flight (`!backoff`).
    fn due_seqs(&self, now: u64, backoff: bool) -> Vec<u32> {
        let mut seqs: Vec<u32> = self
            .timers
            .range(..=(now, u32::MAX))
            .map(|&(_, seq)| seq)
            .filter(|seq| matches!(self.waiting[seq].state, CallState::Backoff { .. }) == backoff)
            .collect();
        seqs.sort_unstable();
        seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelTransport, LinkConfig};
    use fpc_isa::Instr;
    use fpc_sched::FuelPolicy;
    use fpc_vm::{ImageBuilder, ProcSpec};

    fn cluster(policy: CallPolicy) -> Cluster<ChannelTransport> {
        Cluster::new(
            Population::from_factory(0, |_, _| unreachable!("empty population")),
            &SchedConfig::default(),
            ChannelTransport::new(LinkConfig::default()),
            policy,
            7,
        )
    }

    /// Files a call for `seq` in `state`, as `issue` and the state
    /// transitions would have left it.
    fn file(c: &mut Cluster<ChannelTransport>, seq: u32, state: CallState) {
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| a.instr(Instr::Halt));
        let entry = ProcRef {
            module: 0,
            ev_index: 0,
        };
        let image = b.build(entry).unwrap();
        let machine = Machine::load(&image, MachineConfig::i2()).unwrap();
        let call = WaitingCall {
            ctx: Context::new(seq as u64, machine, FuelPolicy::Quantum(100)),
            node: 1,
            proc: 0,
            args: vec![seq as u16],
            nret: 1,
            idempotence: Idempotence::Unknown,
            attempts: 1,
            first_issued: 0,
            state,
        };
        c.waiting.insert(seq, call);
        c.timers.insert((state.due(), seq));
    }

    #[test]
    fn due_timers_fire_in_seq_order_whatever_their_due_times() {
        let mut c = cluster(CallPolicy::default());
        // Deadlines fall due in the reverse of seq order.
        for (seq, deadline_at) in [(1, 30), (2, 20), (3, 10)] {
            file(&mut c, seq, CallState::InFlight { deadline_at });
        }
        file(&mut c, 4, CallState::Backoff { resend_at: 5 });
        file(&mut c, 5, CallState::InFlight { deadline_at: 100 });
        let mut rng = c.rng.clone();
        let policy = c.policy;
        c.fire_timers(40);
        for seq in 1..=3 {
            let resend_at = 40 + policy.backoff(1, &mut rng);
            assert_eq!(
                c.waiting[&seq].state,
                CallState::Backoff { resend_at },
                "seq {seq} takes the jitter draw of its seq rank"
            );
        }
        assert_eq!(
            c.waiting[&4].state,
            CallState::InFlight {
                deadline_at: 40 + policy.deadline
            }
        );
        assert_eq!(c.waiting[&4].attempts, 2);
        assert_eq!(
            c.waiting[&5].state,
            CallState::InFlight { deadline_at: 100 }
        );
        assert_eq!((c.stats.timeouts, c.stats.retries), (3, 1));
        let timers: Vec<_> = c.timers.iter().copied().collect();
        let mut want: Vec<_> = c.waiting.iter().map(|(&s, w)| (w.state.due(), s)).collect();
        want.sort_unstable();
        assert_eq!(timers, want, "one timer per waiting call, at its due time");
    }

    #[test]
    fn backoffs_armed_by_a_timeout_resend_in_the_same_pump() {
        // No backoff at all: a timed-out call is due to resend at once,
        // and the resend phase re-reads the index to find it.
        let mut c = cluster(CallPolicy {
            backoff_base: 0,
            backoff_cap: 0,
            ..CallPolicy::default()
        });
        file(&mut c, 1, CallState::InFlight { deadline_at: 10 });
        file(&mut c, 2, CallState::InFlight { deadline_at: 10 });
        c.fire_timers(10);
        for seq in 1..=2 {
            assert_eq!(
                c.waiting[&seq].state,
                CallState::InFlight {
                    deadline_at: 10 + c.policy.deadline
                }
            );
            assert_eq!(c.waiting[&seq].attempts, 2);
        }
        assert_eq!((c.stats.timeouts, c.stats.retries), (2, 2));
        assert_eq!(c.transport.in_flight(), 2, "both resent");
        assert_eq!(c.timers.len(), 2);
    }
}
