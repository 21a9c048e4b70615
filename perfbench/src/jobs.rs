//! `jobs`: source to result on the real-thread scheduler.
//!
//! Each operation is one job admitted through
//! `Population::from_factory`: the factory compiles a stock-corpus
//! program for a preset, verifies it and `load_in`s it; the scheduler
//! then runs it in fixed quanta on two worker threads. Guests are cold
//! and short, so compile + verify + load is about half of each job: a
//! compiler, verifier or scheduler change shows here, a dispatch change
//! only partly. A batch is four decks of every (program, preset) pair in
//! a seeded order, so every batch has the same mix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fpc_compiler::{compile, Options};
use fpc_sched::{Context, FuelPolicy, Population, SchedConfig};
use fpc_stats::Histogram;
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Image, Machine};

use crate::corpus::{jobs_programs, presets, setup, Pair};
use crate::gate::{self, Counters, Observed, Table};
use crate::layers;
use crate::trace::{self, SpanId};
use crate::util::{
    drive, mix, quantile, ratio, repeated_setup, shuffled, Done, Metrics, Outcome, Workload,
};

/// Scheduler worker threads: the fewest that exercise stealing.
const WORKERS: usize = 2;
/// Instructions per scheduling slice.
const QUANTUM: u64 = 1024;
/// Decks of (program, preset) pairs per scheduler run.
const DECKS_PER_BATCH: usize = 4;

/// What the factory of one batch needs.
struct Batch {
    pairs: Arc<Vec<Pair>>,
    /// Pair index per job id.
    plan: Vec<usize>,
    /// Per job id: compiled and certified by the verifier.
    certified: Vec<AtomicBool>,
    /// Loaded in place of a job that did not compile or verify, so the
    /// scheduler still retires it; the gate fails it.
    stub: Arc<Image>,
    first_op: u64,
    parent: SpanId,
}

/// The factory: compile, verify and load one job.
fn admit(b: &Batch, id: u64, buf: fpc_mem::MemoryBuffer) -> Context {
    let pair = &b.pairs[b.plan[id as usize]];
    let config = presets()[pair.preset].config;
    let op = b.first_op + id;
    let (m, _) = trace::timed_under(b.parent, "sched.admit", op, || {
        let sources: Vec<&str> = pair
            .program
            .workload
            .sources
            .iter()
            .map(String::as_str)
            .collect();
        let options: Options = pair.program.options(&presets()[pair.preset]);
        let image = trace::span("compiler.compile", op, || compile(&sources, options))
            .ok()
            .map(|c| c.image)
            .filter(|image| {
                trace::span("verify.verify", op, || {
                    verify_image(image, &VerifyOptions::for_config(&config)).is_ok()
                })
            });
        b.certified[id as usize].store(image.is_some(), Ordering::Relaxed);
        let image = image.as_ref().unwrap_or(&b.stub);
        trace::span("vm.load", op, || Machine::load_in(image, config, buf))
    });
    let m = m.unwrap_or_else(|_| {
        b.certified[id as usize].store(false, Ordering::Relaxed);
        Machine::load(&b.stub, config).expect("the stub image loads on every preset")
    });
    Context::new(id, m, FuelPolicy::Quantum(QUANTUM))
}

/// Scheduler counters summed over traced batches.
#[derive(Default)]
struct SchedTotals {
    batches: u64,
    slices: u64,
    preemptions: u64,
    steals: u64,
    steal_attempts: u64,
    ttc_kcycles: Histogram,
}

struct Jobs {
    pairs: Arc<Vec<Pair>>,
    stub: Arc<Image>,
    seed: u64,
    batches: u64,
    next_op: u64,
    attempted: u64,
    failed: u64,
    /// Untraced: host ms per batch.
    batch_ms: Vec<f64>,
    sched: SchedTotals,
    /// Guest cycles of each job in the first batch.
    first_batch_cycles: Vec<f64>,
}

impl Workload for Jobs {
    fn step(&mut self, traced: bool, slowdown: f64) -> Done {
        let n = self.pairs.len();
        let plan: Vec<usize> = (0..DECKS_PER_BATCH)
            .flat_map(|d| {
                shuffled(
                    n,
                    mix(self.seed, self.batches * DECKS_PER_BATCH as u64 + d as u64),
                )
            })
            .collect();
        let jobs = plan.len();
        let config = SchedConfig {
            workers: WORKERS,
            deterministic: false,
            seed: mix(self.seed, self.batches),
            record_trace: false,
            record_finals: true,
        };
        let first_op = self.next_op;
        let start = Instant::now();
        let (report, batch) = trace::span("sched.run", first_op, || {
            let batch = Arc::new(Batch {
                pairs: self.pairs.clone(),
                plan,
                certified: (0..jobs).map(|_| AtomicBool::new(false)).collect(),
                stub: self.stub.clone(),
                first_op,
                parent: trace::current(),
            });
            let factory = batch.clone();
            let population =
                Population::from_factory(jobs as u64, move |id, buf| admit(&factory, id, buf));
            (fpc_sched::run(population, &config), batch)
        });
        let elapsed = start.elapsed();
        let finals = report.finals_sorted();
        let mut ok_jobs = 0u64;
        for f in &finals {
            let pair = &self.pairs[batch.plan[f.id as usize]];
            let seen = Observed {
                clean: !f.faulted && batch.certified[f.id as usize].load(Ordering::Relaxed),
                output_hash: f.output_hash,
                counters: Counters::of_final(f),
            };
            ok_jobs += gate::check(&pair.expect, &seen) as u64;
            if self.batches == 0 {
                self.first_batch_cycles.push(f.cycles as f64);
            }
        }
        self.attempted += jobs as u64;
        self.failed += jobs as u64 - ok_jobs;
        self.next_op += jobs as u64;
        self.batches += 1;
        if traced {
            let s = &mut self.sched;
            s.batches += 1;
            s.slices += report.slices();
            s.preemptions += report.preemptions();
            s.steals += report.steals();
            s.steal_attempts += report.steal_attempts();
            for w in &report.workers {
                s.ttc_kcycles.merge(&w.ttc_kcycles);
            }
        } else {
            self.batch_ms.push(elapsed.as_secs_f64() * 1e3 / slowdown);
        }
        Done {
            ops: jobs as u64,
            instructions: report.instructions(),
        }
    }

    fn prefix_done(&self) -> bool {
        self.batches >= 1
    }
}

/// An image that halts at once.
fn stub_image() -> Image {
    compile(
        &["module Stub; proc main() begin end; end."],
        Options::default(),
    )
    .expect("the stub program compiles")
    .image
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let table = Table::pinned();
    let programs = jobs_programs();
    trace::set_enabled(traced);
    let set_up = repeated_setup(|| setup(&programs, &table));
    trace::set_enabled(false);
    let s = set_up.value;
    let n = s.pairs.len();
    let mut w = Jobs {
        pairs: Arc::new(s.pairs),
        stub: Arc::new(stub_image()),
        seed,
        batches: 0,
        next_op: 0,
        attempted: 0,
        failed: 0,
        batch_ms: Vec::new(),
        sched: SchedTotals::default(),
        first_batch_cycles: Vec::new(),
    };
    let (plain, tracedp) = drive(&mut w, seconds, traced);
    let mut m = Metrics::default();
    if !traced {
        m.put("setup_s", set_up.setup_s);
        m.put("ops_per_s", plain.ops_per_s());
        m.put("minstr_per_s", plain.minstr_per_s());
        m.put("request_ms_p50", quantile(&mut w.batch_ms, 0.5));
        m.put("request_ms_p90", quantile(&mut w.batch_ms, 0.9));
        layers::sim_latency(&mut m, &mut w.first_batch_cycles);
        eprintln!(
            "jobs: {} batches timed, {} jobs; host {:.3}x slower than reference",
            w.batch_ms.len(),
            plain.ops(),
            plain.slowdown()
        );
    } else {
        let spans = trace::spans();
        let batches = tracedp.windows();
        layers::span_metrics(&mut m, &spans, &batches);
        m.put("compiler.code_bytes", s.code_bytes as f64);
        m.put("verify.certified_ratio", s.certified as f64 / n as f64);
        s.sim.put(&mut m);
        // Host times are per batch, the median over traced batches;
        // counts are the mean per traced batch.
        let sc = &w.sched;
        let per_batch = |count: u64| ratio(count as f64, sc.batches as f64);
        let wall_s = layers::per_window(&spans, &batches, |b| trace::busy_s(b, "sched.run"));
        let admit_s = layers::per_window(&spans, &batches, |b| trace::busy_s(b, "sched.admit"));
        let exec_s = layers::per_window(&spans, &batches, |b| {
            WORKERS as f64 * trace::busy_s(b, "sched.run") - trace::busy_s(b, "sched.admit")
        });
        m.put("sched.wall_s", wall_s);
        m.put("sched.admit_busy_s", admit_s);
        m.put("sched.exec_s", exec_s);
        m.put(
            "sched.ns_per_slice",
            ratio(exec_s * 1e9, per_batch(sc.slices)),
        );
        m.put("sched.slices", per_batch(sc.slices));
        m.put("sched.preemptions", per_batch(sc.preemptions));
        m.put("sched.steals", per_batch(sc.steals));
        m.put("sched.steal_attempts", per_batch(sc.steal_attempts));
        m.put(
            "sched.steal_success_ratio",
            ratio(sc.steals as f64, sc.steal_attempts as f64),
        );
        for (name, q) in [
            ("sched.ttc_p50_kcycles", 0.5),
            ("sched.ttc_p99_kcycles", 0.99),
        ] {
            m.put(name, sc.ttc_kcycles.quantile(q).unwrap_or(0) as f64);
        }
        m.put(
            "trace.overhead",
            ratio(tracedp.ops_per_s(), plain.ops_per_s()),
        );
        layers::finish_trace("jobs", &spans);
    }
    Outcome {
        correct: s.control && w.failed == 0,
        attempted: w.attempted,
        failed: w.failed,
        metrics: m,
    }
}
