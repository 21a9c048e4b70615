//! `rpc`: rounds of a `Cluster` of i2 client guests calling a
//! replicated `double` service, each round under a seeded network
//! storm.
//!
//! Marshalling, the wire format, the transport, retry, dedup and
//! failover, and the virtual-time scheduler do the work; the parked
//! 128 KB guests make memory per guest visible. Each client doubles its
//! own seeded inputs, so its output and its fault-adjusted counters
//! are checked after every round.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fpc_isa::Instr;
use fpc_rng::Rng;
use fpc_rpc::{
    CallPolicy, ChannelTransport, Cluster, ClusterReport, Delivery, LinkConfig, NetStats, NodeId,
    ServerNode, Transport,
};
use fpc_sched::{Context, FuelPolicy, Population, SchedConfig};
use fpc_stats::Histogram;
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::inject::NetPlan;
use fpc_vm::{FaultKind, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec};

use crate::gate::{self, Counters, Expect, Observed, Table};
use crate::layers;
use crate::trace::{self, Span};
use crate::util::{
    drive, median, mix, quantile, ratio, repeated_setup, Done, Metrics, Outcome, Workload,
};

/// The client's row in the pinned reference table.
pub const CLIENT_LABEL: &str = "rpc_client(32)";
/// Client contexts per round.
const CLIENTS: u64 = 256;
/// Remote calls each client makes.
const CALLS: u16 = 32;
/// Preemption quantum for client contexts.
const QUANTUM: u64 = 400;
/// Fuel a server may burn per request.
const SERVER_FUEL: u64 = 100_000;
/// Rounds the exact counts and simulated latencies are taken over.
const PREFIX_ROUNDS: u64 = 8;
/// Round `r` runs under storm `NetPlan::generate(mix(STORM_SEED, r))`
/// whatever the run's seed. One partition more or less moves the p99
/// call latency by 3x, so a storm drawn from the run's seed would make
/// the simulated latencies of two seeds incomparable; the run's seed
/// draws the client inputs and the scheduler and retry-jitter seeds.
const STORM_SEED: u64 = 0x5704_4d00;

fn entry(ev_index: u16) -> ProcRef {
    ProcRef {
        module: 0,
        ev_index,
    }
}

fn client_config() -> MachineConfig {
    MachineConfig::i2().with_fault_reserve(512)
}

/// A client that calls `double` on each input through a remote
/// descriptor bound to node 1 and outputs the result, with a
/// `RemoteFault` handler that fails over to the next replica and
/// restarts the call.
fn client_image(inputs: &[u16]) -> (Image, ProcRef) {
    let mut b = ImageBuilder::new();
    let m = b.module("cli");
    let lv = b.import_remote(m, "double", 1, 1, 1);
    let inputs = inputs.to_vec();
    b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
        for &x in &inputs {
            a.instr(Instr::LoadImm(x));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let handler = b.proc_with(m, ProcSpec::new("on_remote_fault", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::RemoteInfo);
        a.instr(Instr::Failover);
        a.instr(Instr::Ret);
    });
    let image = b.build(entry(0)).expect("the client image builds");
    (image, entry(handler))
}

/// The server: `double(x)` halts with `x + x` on the stack.
fn server_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("srv");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("double", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Halt);
    });
    b.build(entry(0)).expect("the server image builds")
}

/// A retry policy sized to the population: the deadline covers the
/// worst-case burst of every client's frame queued on the serialized
/// link, so timeouts fire on lost frames, not on queued ones.
fn policy() -> CallPolicy {
    CallPolicy {
        deadline: 20_000 + CLIENTS * 2_000,
        backoff_base: 2_000,
        backoff_cap: 64_000,
        ..CallPolicy::default()
    }
}

/// Host time and traffic through the transport.
#[derive(Debug, Default, Clone, Copy)]
struct TransportTally {
    busy: Duration,
    sends: u64,
    bytes: u64,
    polls: u64,
}

/// `ChannelTransport` with its sends and polls counted and, when
/// `timed`, their host time measured.
struct TimedTransport<'a> {
    inner: ChannelTransport,
    timed: bool,
    tally: &'a mut TransportTally,
}

impl TimedTransport<'_> {
    fn clock<R>(&mut self, f: impl FnOnce(&mut ChannelTransport) -> R) -> R {
        if !self.timed {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.tally.busy += start.elapsed();
        r
    }
}

impl Transport for TimedTransport<'_> {
    fn send(&mut self, now: u64, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        self.tally.sends += 1;
        self.tally.bytes += bytes.len() as u64;
        self.clock(|t| t.send(now, from, to, bytes));
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery> {
        self.tally.polls += 1;
        self.clock(|t| t.poll(now))
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn next_due(&self) -> Option<u64> {
        self.inner.next_due()
    }

    fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }
}

/// Clients, each with its image, handler and expected outputs.
struct Clients {
    images: Vec<(Image, ProcRef)>,
    expect: Vec<Expect>,
    server: Image,
}

/// Runs one round of `clients` under `plan`.
fn run_round(
    clients: &Arc<Vec<(Image, ProcRef)>>,
    server: &Image,
    plan: NetPlan,
    seed: u64,
    transport: &mut TransportTally,
    timed: bool,
) -> ClusterReport {
    let images = clients.clone();
    let population = Population::from_factory(images.len() as u64, move |id, buf| {
        trace::span("rpc.admit", id, || {
            let (image, handler) = &images[id as usize];
            let mut m = trace::span("vm.load", id, || {
                Machine::load_in(image, client_config(), buf)
            })
            .expect("client images load");
            m.install_fault_handler(FaultKind::RemoteFault, image, *handler)
                .expect("the failover handler installs");
            Context::new(id, m, FuelPolicy::Quantum(QUANTUM))
        })
    });
    let sched = SchedConfig {
        workers: 2,
        deterministic: true,
        seed,
        record_trace: false,
        record_finals: true,
    };
    let transport = TimedTransport {
        inner: ChannelTransport::with_plan(LinkConfig::default(), plan),
        timed,
        tally: transport,
    };
    let mut cluster = Cluster::new(population, &sched, transport, policy(), seed);
    for node in [1, 2] {
        let server = ServerNode::new(server.clone(), MachineConfig::i2())
            .service("double", entry(1), 1, 1)
            .fuel(SERVER_FUEL);
        cluster.add_server(node, server);
    }
    cluster.set_replicas(0, vec![1, 2]);
    cluster.run()
}

/// Builds `CLIENTS` clients with seeded inputs. Inputs lie in
/// `256..16384`, where every `LoadImm` encodes in three bytes and
/// doubling does not wrap, so every client has the pinned counters.
fn build_clients(seed: u64, table: &Table) -> Clients {
    let mut rng = Rng::seed_from_u64(mix(seed, u64::MAX));
    let counters = table.get(CLIENT_LABEL, "i2");
    let mut images = Vec::new();
    let mut expect = Vec::new();
    for _ in 0..CLIENTS {
        let inputs: Vec<u16> = (0..CALLS)
            .map(|_| rng.gen_range_u32(256, 16384) as u16)
            .collect();
        let doubled: Vec<u16> = inputs.iter().map(|x| x.wrapping_mul(2)).collect();
        images.push(client_image(&inputs));
        expect.push(Expect {
            output_hash: gate::fnv1a(&doubled),
            counters,
        });
    }
    Clients {
        images,
        expect,
        server: server_image(),
    }
}

/// The fault-adjusted counters of one client in an undisturbed
/// cluster: the client's row of the reference table.
pub fn reference_counters() -> Counters {
    let inputs: Vec<u16> = (0..CALLS).map(|i| 300 + i).collect();
    let clients = Arc::new(vec![client_image(&inputs)]);
    let report = run_round(
        &clients,
        &server_image(),
        NetPlan::from_events(Vec::new()),
        1,
        &mut TransportTally::default(),
        false,
    );
    Counters::adjusted(&report.sched.finals_sorted()[0])
}

/// The result of set-up: clients, verification and the negative
/// control.
struct Setup {
    clients: Clients,
    certified: usize,
    verified: usize,
    control: bool,
}

/// Builds the clients and server, verifies the images and checks an
/// undisturbed round of a few clients against the pinned counters.
fn setup(seed: u64, table: &Table) -> Setup {
    let clients = build_clients(seed, table);
    let config = client_config();
    let mut certified = 0;
    let images = std::iter::once(&clients.server).chain(clients.images.iter().map(|(i, _)| i));
    let mut verified = 0;
    for image in images {
        let ok = trace::span("verify.verify", 0, || {
            verify_image(image, &VerifyOptions::for_config(&config)).is_ok()
        });
        certified += ok as usize;
        verified += 1;
    }
    let few = Arc::new(clients.images[..4].to_vec());
    let report = run_round(
        &few,
        &clients.server,
        NetPlan::from_events(Vec::new()),
        seed,
        &mut TransportTally::default(),
        false,
    );
    let finals = report.sched.finals_sorted();
    let observed = |i: usize| Observed {
        clean: !finals[i].faulted,
        output_hash: finals[i].output_hash,
        counters: Counters::adjusted(&finals[i]),
    };
    let reference_ok =
        finals.len() == 4 && (0..4).all(|i| gate::check(&clients.expect[i], &observed(i)));
    let control = reference_ok && gate::negative_control(&clients.expect[0], &observed(0));
    Setup {
        clients,
        certified,
        verified,
        control,
    }
}

/// Exact counts over the prefix rounds.
#[derive(Debug, Default)]
struct PrefixCounts {
    latency: Histogram,
    issued: u64,
    completed: u64,
    retries: u64,
    timeouts: u64,
    naks: u64,
    failovers: u64,
    stale_replies: u64,
    server_requests: u64,
    net_sent: u64,
    net_dropped: u64,
    transport: TransportTally,
}

struct Rpc {
    images: Arc<Vec<(Image, ProcRef)>>,
    expect: Vec<Expect>,
    server: Image,
    /// Whether the verifier certified every image; if not, every call
    /// fails the gate.
    certified: bool,
    seed: u64,
    rounds: u64,
    attempted: u64,
    failed: u64,
    /// Untraced: host ms per round.
    round_ms: Vec<f64>,
    prefix: PrefixCounts,
    /// Traced: host seconds in the transport, per round.
    transport_s: Vec<f64>,
}

impl Workload for Rpc {
    fn step(&mut self, traced: bool, slowdown: f64) -> Done {
        let round = self.rounds;
        let seed = mix(self.seed, round);
        let horizon = CLIENTS * CALLS as u64;
        let plan = NetPlan::generate(mix(STORM_SEED, round), horizon, 2);
        let mut tally = TransportTally::default();
        let start = Instant::now();
        let report = trace::span("rpc.cluster", round, || {
            run_round(&self.images, &self.server, plan, seed, &mut tally, traced)
        });
        let elapsed = start.elapsed();
        let finals = report.sched.finals_sorted();
        let mut bad_clients = 0;
        for f in &finals {
            let seen = Observed {
                clean: !f.faulted,
                output_hash: f.output_hash,
                counters: Counters::adjusted(f),
            };
            let ok = self.certified && gate::check(&self.expect[f.id as usize], &seen);
            bad_clients += !ok as u64;
        }
        bad_clients += CLIENTS - finals.len() as u64;
        let calls = CLIENTS * CALLS as u64;
        let failed = (bad_clients * CALLS as u64).max(calls - report.rpc.completed.min(calls));
        self.attempted += calls;
        self.failed += failed;
        if round < PREFIX_ROUNDS {
            let p = &mut self.prefix;
            let r = &report.rpc;
            p.latency.merge(&r.latency);
            p.issued += r.issued;
            p.completed += r.completed;
            p.retries += r.retries;
            p.timeouts += r.timeouts;
            p.naks += r.naks;
            p.failovers += r.failovers;
            p.stale_replies += r.stale_replies;
            p.server_requests += r.server_requests;
            p.net_sent += report.net.sent;
            p.net_dropped += report.net.dropped + report.net.partition_dropped;
            p.transport.sends += tally.sends;
            p.transport.bytes += tally.bytes;
            p.transport.polls += tally.polls;
        }
        if traced {
            self.transport_s.push(tally.busy.as_secs_f64());
        } else {
            self.round_ms.push(elapsed.as_secs_f64() * 1e3 / slowdown);
        }
        self.rounds += 1;
        Done {
            ops: report.rpc.completed,
            instructions: report.sched.instructions(),
        }
    }

    fn prefix_done(&self) -> bool {
        self.rounds >= PREFIX_ROUNDS
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let table = Table::pinned();
    trace::set_enabled(traced);
    let set_up = repeated_setup(|| setup(seed, &table));
    trace::set_enabled(false);
    let s = set_up.value;
    let mut w = Rpc {
        images: Arc::new(s.clients.images),
        expect: s.clients.expect,
        server: s.clients.server,
        certified: s.certified == s.verified,
        seed,
        rounds: 0,
        attempted: 0,
        failed: 0,
        round_ms: Vec::new(),
        prefix: PrefixCounts::default(),
        transport_s: Vec::new(),
    };
    let (plain, tracedp) = drive(&mut w, seconds, traced);
    let mut m = Metrics::default();
    let p = &w.prefix;
    if !traced {
        m.put("setup_s", set_up.setup_s);
        m.put("ops_per_s", plain.ops_per_s());
        m.put("minstr_per_s", plain.minstr_per_s());
        m.put("request_ms_p50", quantile(&mut w.round_ms, 0.5));
        m.put("request_ms_p90", quantile(&mut w.round_ms, 0.9));
        for (name, q) in [
            ("sim_latency_p50_kcycles", 0.5),
            ("sim_latency_p99_kcycles", 0.99),
        ] {
            m.put(name, p.latency.quantile(q).unwrap_or(0) as f64 / 1e3);
        }
        eprintln!(
            "rpc: {} rounds timed, {} calls; host {:.3}x slower than reference",
            w.round_ms.len(),
            plain.ops(),
            plain.slowdown()
        );
    } else {
        let spans = trace::spans();
        layers::span_metrics(&mut m, &spans, &set_up.windows);
        m.put(
            "verify.certified_ratio",
            s.certified as f64 / s.verified as f64,
        );
        // Host times are per round, the median over traced rounds;
        // the transport's are kept per traced round, in step order.
        let rounds = tracedp.windows();
        let in_round = |r: &[Span], name| trace::busy_s(r, name);
        let cluster_s = layers::per_window(&spans, &rounds, |r| in_round(r, "rpc.cluster"));
        let admit_s = layers::per_window(&spans, &rounds, |r| in_round(r, "rpc.admit"));
        let mut self_s: Vec<f64> = rounds
            .iter()
            .zip(&w.transport_s)
            .filter_map(|(r, transport)| {
                let r = &spans[r.clone()?];
                Some(in_round(r, "rpc.cluster") - transport - in_round(r, "rpc.admit"))
            })
            .collect();
        m.put("rpc.cluster_wall_s", cluster_s);
        m.put("rpc.admit_busy_s", admit_s);
        m.put("rpc.transport_busy_s", median(&mut w.transport_s));
        m.put("rpc.self_s", median(&mut self_s));
        m.put("rpc.transport.sends", p.transport.sends as f64);
        m.put("rpc.transport.bytes", p.transport.bytes as f64);
        m.put("rpc.transport.polls", p.transport.polls as f64);
        for (name, v) in [
            ("rpc.issued", p.issued),
            ("rpc.completed", p.completed),
            ("rpc.retries", p.retries),
            ("rpc.timeouts", p.timeouts),
            ("rpc.naks", p.naks),
            ("rpc.failovers", p.failovers),
            ("rpc.stale_replies", p.stale_replies),
            ("rpc.server_requests", p.server_requests),
            ("net.sent", p.net_sent),
            ("net.dropped", p.net_dropped),
        ] {
            m.put(name, v as f64);
        }
        m.put(
            "rpc.useful_ratio",
            ratio(p.completed as f64, p.server_requests as f64),
        );
        m.put(
            "trace.overhead",
            ratio(tracedp.ops_per_s(), plain.ops_per_s()),
        );
        layers::finish_trace("rpc", &spans);
    }
    Outcome {
        correct: s.control && w.failed == 0,
        attempted: w.attempted,
        failed: w.failed,
        metrics: m,
    }
}
