//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and operation id. Spans are
//! recorded only while tracing is enabled; they stay in memory and are
//! written out as Chrome trace-event JSON (opens in Perfetto) when the
//! run ends. A layer is the span name's prefix before the first `.`;
//! its self time is each span's duration minus the part of it that its
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Spans kept in memory; later ones are counted but not stored, so a
/// long traced run cannot exhaust memory.
const MAX_SPANS: usize = 1_000_000;

/// Span id 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static DROPPED: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 when none).
pub fn current() -> SpanId {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Runs `f` inside a span named `name`, always returning its host
/// duration; the span itself is recorded only while tracing is on.
pub fn timed<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, Duration) {
    timed_under(0, name, op, f)
}

/// Like [`timed`], with `parent` as the parent when this thread has no
/// open span (work a scheduler worker does on behalf of a span opened
/// on another thread).
pub fn timed_under<R>(
    parent: SpanId,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    if !enabled() {
        let start = Instant::now();
        let r = f();
        return (r, start.elapsed());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(parent);
        s.push(id);
        p
    });
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        name,
        id,
        parent,
        op,
        tid: TID.with(|t| *t),
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    };
    let mut spans = SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread");
    if spans.len() < MAX_SPANS {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    (r, end - start)
}

/// Runs `f` inside a span; see [`timed`].
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    timed(name, op, f).0
}

fn stored() -> usize {
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread")
        .len()
}

/// Runs `f` and returns the index range, in [`spans`], of the spans
/// that ended during it: a window over one unit of work. `None` when
/// tracing is off or the buffer overflowed, so the window would be
/// short of spans.
pub fn window<R>(f: impl FnOnce() -> R) -> (R, Option<Range<usize>>) {
    let on = enabled();
    let (from, dropped) = (stored(), DROPPED.load(Ordering::Relaxed));
    let r = f();
    let complete = on && DROPPED.load(Ordering::Relaxed) == dropped;
    (r, complete.then(|| from..stored()))
}

/// Every recorded span, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread")
        .clone()
}

/// Durations of the recorded spans named `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Total host seconds of the spans named `name`.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / 1e9
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in seconds: each span's duration minus the
/// union of its children's intervals, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        *out.entry(layer(s.name).to_string()).or_default() +=
            s.dur_ns().saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Spans written to the trace file; the rest still count toward every
/// metric, but a bigger file is hard to open.
const MAX_EXPORTED: usize = 200_000;

/// Writes `spans` as Chrome trace-event JSON, with the per-layer self
/// times under `otherData`.
pub fn write_chrome(
    path: &Path,
    spans: &[Span],
    self_time: &BTreeMap<String, f64>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\": \"ns\", \"otherData\": {{")?;
    writeln!(
        w,
        "  \"spans_recorded\": {}, \"spans_dropped\": {}, \"spans_exported\": {},",
        spans.len(),
        DROPPED.load(Ordering::Relaxed),
        spans.len().min(MAX_EXPORTED)
    )?;
    let layers: Vec<String> = self_time
        .iter()
        .map(|(k, v)| format!("\"self_s.{k}\": {v}"))
        .collect();
    writeln!(w, "  {}", layers.join(", "))?;
    writeln!(w, "}}, \"traceEvents\": [")?;
    for (i, s) in spans.iter().take(MAX_EXPORTED).enumerate() {
        let sep = if i + 1 == spans.len().min(MAX_EXPORTED) {
            ""
        } else {
            ","
        };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}{sep}",
            s.name,
            layer(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            at("op", 1, 0, 0, 100),
            at("vm.load", 2, 1, 10, 30),
            at("vm.run", 3, 1, 20, 60),
            at("vm.run", 4, 1, 90, 120),
        ];
        let st = self_time_by_layer(&spans);
        // Children cover 10..60 and 90..100 of the op: 60 ns.
        assert!((st["op"] - 40e-9).abs() < 1e-15);
        assert!((st["vm"] - (20e-9 + 40e-9 + 30e-9)).abs() < 1e-15);
    }
}
