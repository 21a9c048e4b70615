//! The measurement loop, set-up timing and small numeric helpers
//! every workload shares.

use std::ops::Range;
use std::time::{Duration, Instant};

use fpc_rng::Rng;

use crate::{calibrate, trace};

/// Collects metrics by name, in the order they are measured; their
/// units come from `BENCHMARK.json` (see `layers::finalize`).
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// What a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// What one step of a workload completed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Done {
    pub ops: u64,
    /// Guest instructions retired.
    pub instructions: u64,
}

/// A workload as the measurement loop sees it.
pub trait Workload {
    /// Runs one unit of work with the same mix every time: a deck of
    /// program runs, a batch of jobs or a cluster round. Host times the
    /// workload records are divided by `slowdown`, the host's current
    /// slowdown against the reference speed.
    fn step(&mut self, traced: bool, slowdown: f64) -> Done;
    /// Whether the fixed prefix of work that the exact counts are
    /// taken over has run. The loop keeps going until it has, so the
    /// counts repeat exactly whatever the host speed.
    fn prefix_done(&self) -> bool;
}

/// One step as the measurement loop saw it.
#[derive(Debug, Clone)]
struct Step {
    done: Done,
    /// Host seconds.
    secs: f64,
    /// Host slowdown against the reference speed.
    slowdown: f64,
    /// Traced: the step's window of spans.
    spans: Option<Range<usize>>,
}

/// The steps of one tracing mode.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    steps: Vec<Step>,
}

impl Phase {
    /// The median slowdown of the host against the reference speed.
    pub fn slowdown(&self) -> f64 {
        let mut s: Vec<f64> = self.steps.iter().map(|st| st.slowdown).collect();
        median(&mut s)
    }

    /// The span window of each step, in step order (`None` untraced).
    pub fn windows(&self) -> Vec<Option<Range<usize>>> {
        self.steps.iter().map(|st| st.spans.clone()).collect()
    }

    /// Host rates are taken per step, at the reference host speed, and
    /// reported as the median step: every step is the same mix of work,
    /// and a burst on a shared host then moves a few steps, not the
    /// result.
    fn median_rate(&self, f: impl Fn(&Done) -> u64) -> f64 {
        let mut rates: Vec<f64> = self
            .steps
            .iter()
            .map(|st| f(&st.done) as f64 / st.secs.max(1e-9) * st.slowdown)
            .collect();
        median(&mut rates)
    }

    /// Operations per host second at the reference host speed.
    pub fn ops_per_s(&self) -> f64 {
        self.median_rate(|d| d.ops)
    }

    /// Millions of guest instructions per host second at the reference
    /// host speed.
    pub fn minstr_per_s(&self) -> f64 {
        self.median_rate(|d| d.instructions) / 1e6
    }

    pub fn ops(&self) -> u64 {
        self.steps.iter().map(|st| st.done.ops).sum()
    }
}

/// How often the host speed is sampled between steps.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// The host's current slowdown against the reference speed: the
/// median of the last few samples of the reference interpreter.
#[derive(Debug, Default)]
struct HostSpeed {
    recent: Vec<f64>,
    sampled: Option<Instant>,
}

impl HostSpeed {
    fn slowdown(&mut self) -> f64 {
        if self.sampled.is_none_or(|t| t.elapsed() >= CALIBRATE_EVERY) {
            let tracing = trace::enabled();
            trace::set_enabled(false);
            if self.recent.len() == 3 {
                self.recent.remove(0);
            }
            self.recent
                .push(calibrate::sample_ms() / calibrate::NOMINAL_MS);
            trace::set_enabled(tracing);
            self.sampled = Some(Instant::now());
        }
        let mut r = self.recent.clone();
        median(&mut r)
    }
}

/// Runs `w` for `seconds`. Untraced, that is one phase. Traced, the
/// time is split into four alternating untraced/traced segments so
/// the two rates compared for `trace.overhead` see the same machine
/// state. Returns the (untraced, traced) phases.
pub fn drive(w: &mut impl Workload, seconds: f64, trace: bool) -> (Phase, Phase) {
    let segments: &[bool] = if trace {
        &[false, true, false, true]
    } else {
        &[false]
    };
    let budget = Duration::from_secs_f64(seconds / segments.len() as f64);
    let mut phases = [Phase::default(), Phase::default()];
    let mut host = HostSpeed::default();
    for (i, &traced) in segments.iter().enumerate() {
        let last = i + 1 == segments.len();
        let start = Instant::now();
        loop {
            let slowdown = host.slowdown();
            trace::set_enabled(traced);
            let start_step = Instant::now();
            let (done, spans) = trace::window(|| w.step(traced, slowdown));
            let secs = start_step.elapsed().as_secs_f64();
            trace::set_enabled(false);
            phases[traced as usize].steps.push(Step {
                done,
                secs,
                slowdown,
                spans,
            });
            if start.elapsed() >= budget && (!last || w.prefix_done()) {
                break;
            }
        }
    }
    let [plain, traced] = phases;
    (plain, traced)
}

/// Set-ups per run: at least this many, and for at least
/// `SETUP_SECONDS`; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_SECONDS: f64 = 3.0;

/// What [`repeated_setup`] measured.
pub struct SetupRun<T> {
    /// The last set-up's result.
    pub value: T,
    /// The median set-up time in seconds at the reference host speed.
    pub setup_s: f64,
    /// Each set-up's window of spans (`None` untraced).
    pub windows: Vec<Option<Range<usize>>>,
}

/// Runs `setup` repeatedly. Each set-up's time is scaled by the mean of
/// the host speed sampled just before and just after it: the host can
/// change speed twofold within a set-up, and one sample either side
/// tracks that better than a sample per run.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> SetupRun<T> {
    let mut times = Vec::new();
    let mut windows = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    let mut before = calibrate::sample_ms() / calibrate::NOMINAL_MS;
    while times.len() < SETUP_REPS || begin.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        let (value, spans) = trace::window(&mut setup);
        let secs = start.elapsed().as_secs_f64();
        let after = calibrate::sample_ms() / calibrate::NOMINAL_MS;
        times.push(secs / ((before + after) / 2.0));
        before = after;
        windows.push(spans);
        last = Some(value);
    }
    SetupRun {
        value: last.expect("at least one set-up ran"),
        setup_s: median(&mut times),
        windows,
    }
}

/// The `q` quantile (0..=1) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process in MB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A seed for the `index`-th sub-draw of the run seeded by `seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `0..n` in a seeded order.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_index(i + 1);
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(36, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..36).collect::<Vec<_>>());
        assert_eq!(a, shuffled(36, 7));
        assert_ne!(a, shuffled(36, 8));
    }
}
