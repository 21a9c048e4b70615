//! End-to-end cluster tests: remote `XFER`s park, marshal, fly,
//! retry, fail over, and complete — deterministically.

use fpc_isa::Instr;
use fpc_rpc::{CallPolicy, ChannelTransport, Cluster, LinkConfig, ServerNode, Transport};
use fpc_sched::{Context, FuelPolicy, Population, SchedConfig};
use fpc_vm::inject::{NetEvent, NetPlan};
use fpc_vm::{FaultKind, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec};

/// A client image making `calls` remote `inc` calls through one remote
/// descriptor bound to `node`, `Out`ing each result. When
/// `failover_handler`, a `RemoteFault` handler is included that reads
/// the failure word and requests a rebind before restarting the call.
fn client_image(calls: u16, node: u16, failover_handler: bool) -> (Image, Option<ProcRef>) {
    let mut b = ImageBuilder::new();
    let m = b.module("cli");
    let lv = b.import_remote(m, "inc", node, 1, 1);
    b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
        for i in 0..calls {
            a.instr(Instr::LoadImm(i * 10));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let handler = failover_handler.then(|| {
        let ev = b.proc_with(m, ProcSpec::new("on_remote_fault", 1, 2), |a| {
            // The fault code argument, then the failure word: route it
            // to FAILOVER so the host rotates the binding, and restart.
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::RemoteInfo);
            a.instr(Instr::Failover);
            a.instr(Instr::Ret);
        });
        ProcRef {
            module: 0,
            ev_index: ev,
        }
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    (image, handler)
}

/// A server image exporting `inc`: one argument in, argument + 1 left
/// on the stack at `Halt` (services are root activations — they halt
/// with results on the stack rather than returning to NIL).
fn server_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("srv");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("inc", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Add);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

const INC: ProcRef = ProcRef {
    module: 0,
    ev_index: 1,
};

fn population(contexts: u64, calls: u16, node: u16, handler: bool) -> Population {
    let (image, fh) = client_image(calls, node, handler);
    let cfg = MachineConfig::i2().with_fault_reserve(512);
    Population::from_factory(contexts, move |id, buf| {
        let mut m = Machine::load_in(&image, cfg, buf).unwrap();
        if let Some(fh) = fh {
            m.install_fault_handler(FaultKind::RemoteFault, &image, fh)
                .unwrap();
        }
        Context::new(id, m, FuelPolicy::Quantum(500))
    })
}

fn sched_cfg(workers: usize) -> SchedConfig {
    SchedConfig {
        workers,
        deterministic: true,
        seed: 42,
        record_trace: false,
        record_finals: true,
    }
}

fn inc_server() -> ServerNode {
    ServerNode::new(server_image(), MachineConfig::i2()).service("inc", INC, 1, 1)
}

#[test]
fn echo_cluster_completes_every_call() {
    let contexts = 4u64;
    let calls = 3u16;
    let mut cluster = Cluster::new(
        population(contexts, calls, 1, false),
        &sched_cfg(2),
        ChannelTransport::new(LinkConfig::default()),
        CallPolicy::default(),
        7,
    );
    cluster.add_server(1, inc_server());
    let report = cluster.run();
    assert_eq!(report.rpc.issued, contexts * calls as u64);
    assert_eq!(report.rpc.completed, contexts * calls as u64);
    assert_eq!(report.rpc.faults_delivered, 0);
    assert_eq!(report.rpc.retries, 0);
    assert_eq!(report.sched.retired(), contexts);
    assert_eq!(report.sched.faults(), 0);
    assert_eq!(report.net.sent, 2 * contexts * calls as u64);
    assert_eq!(
        report.rpc.latency.count(),
        contexts * calls as u64,
        "every completion recorded a latency"
    );
}

#[test]
fn cluster_runs_are_deterministic() {
    let run = || {
        let plan = NetPlan::generate(9, 40, 2);
        let mut cluster = Cluster::new(
            population(3, 4, 1, true),
            &sched_cfg(2),
            ChannelTransport::with_plan(LinkConfig::default(), plan),
            CallPolicy::default(),
            7,
        );
        cluster.add_server(1, inc_server());
        cluster.add_server(2, inc_server());
        cluster.set_replicas(0, vec![1, 2]);
        let report = cluster.run();
        let mut finals = report.sched.finals_sorted();
        finals.sort_by_key(|f| f.id);
        (
            report.rpc.issued,
            report.rpc.completed,
            report.rpc.retries,
            report.rpc.timeouts,
            report.net.sent,
            finals.iter().map(|f| f.architectural()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run(), "same seeds, same cluster history");
}

#[test]
fn dropped_frames_retry_and_complete() {
    // Drop the first two frames: attempt 1 of the first call(s) dies,
    // the deadline fires, backoff passes, the resend completes.
    let plan = NetPlan::from_events(vec![NetEvent::Drop { at: 0 }, NetEvent::Drop { at: 1 }]);
    let mut cluster = Cluster::new(
        population(2, 2, 1, false),
        &sched_cfg(1),
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        CallPolicy::default(),
        11,
    );
    cluster.add_server(1, inc_server());
    let report = cluster.run();
    assert_eq!(report.rpc.completed, 4);
    assert!(report.rpc.timeouts >= 1, "drops must surface as timeouts");
    assert!(report.rpc.retries >= 1, "timed-out attempts must resend");
    assert_eq!(report.rpc.faults_delivered, 0, "retries absorbed it all");
    assert_eq!(report.sched.faults(), 0);
    assert!(
        report.rpc.recovery_latency.count() >= 1,
        "recovered calls price their latency separately"
    );
}

#[test]
fn duplicated_replies_are_deduplicated() {
    // Duplicate the first request: the server executes it twice, the
    // client takes the first reply and drops the second as stale. A
    // second call keeps the client alive long enough to see the late
    // duplicate arrive.
    let plan = NetPlan::from_events(vec![NetEvent::Duplicate { at: 0 }]);
    let mut cluster = Cluster::new(
        population(1, 2, 1, false),
        &sched_cfg(1),
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        CallPolicy::default(),
        3,
    );
    cluster.add_server(1, inc_server());
    let report = cluster.run();
    assert_eq!(report.rpc.completed, 2);
    assert_eq!(report.rpc.server_requests, 3, "duplicate re-executed");
    assert_eq!(report.rpc.stale_replies, 1, "second reply deduplicated");
    assert_eq!(report.sched.faults(), 0);
}

#[test]
fn failover_rebinds_to_a_replica_and_restarts() {
    // Node 1 is dead from the start and never comes back; the guest
    // handler fails the call over to node 2.
    let plan = NetPlan::from_events(vec![NetEvent::CrashNode { at: 0, node: 1 }]);
    let contexts = 2u64;
    let calls = 2u16;
    let mut cluster = Cluster::new(
        population(contexts, calls, 1, true),
        &sched_cfg(1),
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        CallPolicy::fail_fast(),
        5,
    );
    cluster.add_server(1, inc_server());
    cluster.add_server(2, inc_server());
    cluster.set_replicas(0, vec![1, 2]);
    let report = cluster.run();
    assert_eq!(report.rpc.completed, contexts * calls as u64);
    assert!(report.rpc.naks >= 1, "dead node bounced at least one frame");
    assert!(
        report.rpc.faults_delivered >= 1,
        "fail-fast delivers the failure to the guest"
    );
    assert!(report.rpc.failovers >= 1, "FAILOVER rotated the binding");
    assert_eq!(report.sched.faults(), 0, "every context recovered");
}

#[test]
fn unhandled_remote_failure_faults_the_context() {
    // Dead node, no retries, no handler: the contexts die on the
    // structured RemoteFailure, and nothing panics.
    let plan = NetPlan::from_events(vec![NetEvent::CrashNode { at: 0, node: 1 }]);
    let mut cluster = Cluster::new(
        population(2, 1, 1, false),
        &sched_cfg(1),
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        CallPolicy::fail_fast(),
        13,
    );
    cluster.add_server(1, inc_server());
    let report = cluster.run();
    assert_eq!(report.rpc.completed, 0);
    assert_eq!(report.rpc.faults_delivered, 2);
    assert_eq!(report.sched.faults(), 2, "unhandled faults retire contexts");
    assert_eq!(report.sched.retired(), 2);
}

#[test]
fn unknown_service_is_a_dead_remote() {
    // The descriptor names a service nobody exports.
    let mut cluster = Cluster::new(
        population(1, 1, 9, false),
        &sched_cfg(1),
        ChannelTransport::new(LinkConfig::default()),
        CallPolicy::default(),
        1,
    );
    cluster.add_server(1, inc_server());
    let report = cluster.run();
    assert_eq!(report.rpc.completed, 0);
    assert_eq!(report.rpc.faults_delivered, 1);
    assert_eq!(report.net.sent, 0, "nothing was worth sending");
}

#[test]
fn partition_heals_and_calls_complete() {
    // Client partitioned from node 1 for the first frames; retries ride
    // out the partition until the heal.
    let plan = NetPlan::from_events(vec![
        NetEvent::Partition { at: 0, a: 0, b: 1 },
        NetEvent::Heal { at: 2 },
    ]);
    let mut cluster = Cluster::new(
        population(1, 2, 1, false),
        &sched_cfg(1),
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        CallPolicy::default(),
        17,
    );
    cluster.add_server(1, inc_server());
    let report = cluster.run();
    assert_eq!(report.rpc.completed, 2);
    assert!(report.net.partition_dropped >= 1);
    assert!(report.rpc.retries >= 1, "partition rode out on retries");
    assert_eq!(report.sched.faults(), 0);
}

/// A pure-compute image: counts `n` down to zero, then halts.
fn spinner_image(n: u16) -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("spin");
    b.proc_with(m, ProcSpec::new("main", 0, 1), move |a| {
        a.instr(Instr::LoadImm(n));
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.jump_not_zero(top);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

#[test]
fn timeouts_due_in_one_pump_match_timeouts_spread_out() {
    // Every caller's first request is dropped, so every call times out
    // once and resends. A spinner context shares the client's one
    // worker: with a long quantum its slice carries the clock past all
    // the deadlines at once, so they fall due in the same pump; with a
    // short one they fall due a pump or two at a time. Firing in seq
    // order hands each call the same backoff jitter draw either way,
    // and fuel slicing leaves guests' counters alone, so both runs must
    // agree on every count and every guest final.
    const CALLERS: u64 = 6;
    let run = |spin_quantum: u64| {
        let (image, _) = client_image(2, 1, false);
        let spin = spinner_image(8_000);
        let cfg = MachineConfig::i2().with_fault_reserve(512);
        let population = Population::from_factory(CALLERS + 1, move |id, buf| {
            if id == CALLERS {
                let m = Machine::load_in(&spin, cfg, buf).unwrap();
                Context::new(id, m, FuelPolicy::Quantum(spin_quantum))
            } else {
                let m = Machine::load_in(&image, cfg, buf).unwrap();
                Context::new(id, m, FuelPolicy::Quantum(500))
            }
        });
        let drops = (0..CALLERS).map(|at| NetEvent::Drop { at }).collect();
        let mut cluster = Cluster::new(
            population,
            &sched_cfg(1),
            ChannelTransport::with_plan(LinkConfig::default(), NetPlan::from_events(drops)),
            CallPolicy::default(),
            19,
        );
        cluster.add_server(1, inc_server());
        let report = cluster.run();
        let r = &report.rpc;
        (
            [
                r.issued,
                r.completed,
                r.retries,
                r.timeouts,
                r.naks,
                r.faults_delivered,
                r.stale_replies,
                r.server_requests,
                r.recovery_latency.count(),
                report.net.sent,
                report.net.dropped,
            ],
            report
                .sched
                .finals_sorted()
                .iter()
                .map(|f| f.architectural())
                .collect::<Vec<_>>(),
        )
    };
    let (bunched, bunched_finals) = run(1_000_000);
    let (spread, spread_finals) = run(50);
    assert_eq!(bunched[3], CALLERS, "each first attempt timed out once");
    assert_eq!(bunched[1], 2 * CALLERS, "every call completed");
    assert_eq!(bunched, spread, "rpc and net counts");
    assert_eq!(bunched_finals, spread_finals, "guest finals");
}

/// The transport trait object is usable too — the cluster is generic.
#[test]
fn transport_is_pollable_standalone() {
    let mut t = ChannelTransport::new(LinkConfig::default());
    t.send(0, 0, 1, vec![1, 2, 3, 4]);
    assert_eq!(t.in_flight(), 1);
    assert!(t.next_due().unwrap() > 0);
    let d = t.poll(u64::MAX);
    assert_eq!(d.len(), 1);
    assert_eq!(t.net_stats().delivered, 1);
}
