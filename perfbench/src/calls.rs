//! `calls`: one thread loads an image compiled during set-up and runs
//! it to halt, in a seeded order over every (program, preset) pair.
//!
//! Dispatch and `XFER` do nearly all the work, so a host-speed change
//! in the VM moves this workload almost one to one. Each deck runs
//! every pair exactly once in a seeded order, so any whole number of
//! decks has the same mix whatever the seed.

use std::time::Instant;

use fpc_vm::Machine;

use crate::corpus::{calls_programs, presets, setup, Pair};
use crate::gate::{self, Observed, Table};
use crate::layers;
use crate::trace;
use crate::util::{
    drive, median, mix, quantile, ratio, repeated_setup, shuffled, Done, Metrics, Outcome, Workload,
};

struct Calls {
    pairs: Vec<Pair>,
    seed: u64,
    deck: Vec<usize>,
    pos: usize,
    decks: u64,
    op: u64,
    attempted: u64,
    failed: u64,
    /// Untraced host ms of each run, per pair. The request quantiles
    /// are taken over the pairs' median times: pooled over a run, the
    /// p50 sits on the edge between the short and the long programs and
    /// jumps with the host's mood, and a quantile per deck still moves
    /// with a single slow run.
    pair_ms: Vec<Vec<f64>>,
    /// Traced: run time and instructions per preset, and per non-LIFO
    /// (index 0) and LIFO (index 1) program.
    run_ns: [f64; 4],
    run_instr: [u64; 4],
    order_ns: [f64; 2],
    order_instr: [u64; 2],
    /// Guest cycles of each operation in the first deck.
    first_deck_cycles: Vec<f64>,
}

impl Calls {
    /// Runs the deck's next operation.
    fn op(&mut self, traced: bool, slowdown: f64) -> Done {
        let index = self.deck[self.pos];
        let pair = &self.pairs[index];
        let op = self.op;
        let fuel = pair.program.workload.fuel;
        let start = Instant::now();
        let result = trace::span("op", op, || {
            let image = pair.image.as_ref()?;
            let config = presets()[pair.preset].config;
            let mut m = trace::span("vm.load", op, || Machine::load(image, config)).ok()?;
            let (r, run) = trace::timed("vm.run", op, || m.run(fuel));
            Some((Observed::of(&m, r.is_ok()), run))
        });
        let elapsed = start.elapsed();
        let mut done = Done {
            ops: 1,
            instructions: 0,
        };
        let ok = result
            .as_ref()
            .is_some_and(|(seen, _)| gate::check(&pair.expect, seen));
        self.attempted += 1;
        self.failed += !ok as u64;
        if let Some((seen, run)) = result {
            let instr = seen.counters.instructions;
            if traced {
                let run_ns = run.as_nanos() as f64;
                let lifo = pair.program.lifo() as usize;
                self.run_ns[pair.preset] += run_ns;
                self.run_instr[pair.preset] += instr;
                self.order_ns[lifo] += run_ns;
                self.order_instr[lifo] += instr;
            } else {
                self.pair_ms[index].push(elapsed.as_secs_f64() * 1e3 / slowdown);
            }
            if self.decks == 0 {
                self.first_deck_cycles.push(seen.counters.cycles as f64);
            }
            done.instructions = instr;
        }
        self.op += 1;
        self.pos += 1;
        done
    }
}

impl Workload for Calls {
    /// Runs one deck: every pair once, in a seeded order.
    fn step(&mut self, traced: bool, slowdown: f64) -> Done {
        let mut done = Done::default();
        while self.pos < self.deck.len() {
            let d = self.op(traced, slowdown);
            done.ops += d.ops;
            done.instructions += d.instructions;
        }
        self.decks += 1;
        self.pos = 0;
        self.deck = shuffled(self.pairs.len(), mix(self.seed, self.decks));
        done
    }

    fn prefix_done(&self) -> bool {
        self.decks >= 1
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let table = Table::pinned();
    let programs = calls_programs();
    trace::set_enabled(traced);
    let set_up = repeated_setup(|| setup(&programs, &table));
    trace::set_enabled(false);
    let s = set_up.value;
    let n = s.pairs.len();
    let mut w = Calls {
        deck: shuffled(n, mix(seed, 0)),
        pairs: s.pairs,
        seed,
        pos: 0,
        decks: 0,
        op: 0,
        attempted: 0,
        failed: 0,
        pair_ms: vec![Vec::new(); n],
        run_ns: [0.0; 4],
        run_instr: [0; 4],
        order_ns: [0.0; 2],
        order_instr: [0; 2],
        first_deck_cycles: Vec::new(),
    };
    let (plain, tracedp) = drive(&mut w, seconds, traced);
    let mut m = Metrics::default();
    if !traced {
        m.put("setup_s", set_up.setup_s);
        m.put("ops_per_s", plain.ops_per_s());
        m.put("minstr_per_s", plain.minstr_per_s());
        let mut pair_ms: Vec<f64> = w.pair_ms.iter_mut().map(|ms| median(ms)).collect();
        m.put("request_ms_p50", quantile(&mut pair_ms, 0.5));
        m.put("request_ms_p90", quantile(&mut pair_ms, 0.9));
        layers::sim_latency(&mut m, &mut w.first_deck_cycles);
        eprintln!(
            "calls: {} operations timed over {} decks; host {:.3}x slower than reference",
            w.pair_ms.iter().map(Vec::len).sum::<usize>(),
            w.decks,
            plain.slowdown()
        );
    } else {
        let spans = trace::spans();
        layers::span_metrics(&mut m, &spans, &set_up.windows);
        m.put("compiler.code_bytes", s.code_bytes as f64);
        m.put("verify.certified_ratio", s.certified as f64 / n as f64);
        let run_ns: f64 = w.run_ns.iter().sum();
        let run_instr: u64 = w.run_instr.iter().sum();
        let decks = tracedp.windows();
        let deck_run_s = layers::per_window(&spans, &decks, |d| trace::busy_s(d, "vm.run"));
        m.put("vm.run_busy_s", deck_run_s);
        m.put("vm.ns_per_instr", ratio(run_ns, run_instr as f64));
        for (i, p) in presets().iter().enumerate() {
            m.put(
                format!("vm.ns_per_instr.{}", p.name),
                ratio(w.run_ns[i], w.run_instr[i] as f64),
            );
        }
        m.put(
            "vm.ns_per_instr.lifo",
            ratio(w.order_ns[1], w.order_instr[1] as f64),
        );
        m.put(
            "vm.ns_per_instr.nonlifo",
            ratio(w.order_ns[0], w.order_instr[0] as f64),
        );
        s.sim.put(&mut m);
        m.put(
            "trace.overhead",
            ratio(tracedp.ops_per_s(), plain.ops_per_s()),
        );
        layers::finish_trace("calls", &spans);
    }
    Outcome {
        correct: s.control && w.failed == 0,
        attempted: w.attempted,
        failed: w.failed,
        metrics: m,
    }
}
