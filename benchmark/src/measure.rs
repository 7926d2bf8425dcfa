//! Timing, statistics and reporting shared by every workload.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One named, measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Steps attempted: windows, campaign cells, run-level checks.
    pub attempted: u64,
    /// Steps that failed a correctness check, returned an error or
    /// panicked.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one step; `ok == false` counts it as failed and records why.
    pub fn step(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// The result line: one JSON object, every value with all its digits.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Batches of set-up repetitions whose median is reported as `setup_s`.
const SETUP_BATCHES: usize = 21;

/// Shortest batch: sub-millisecond set-ups are repeated until a batch
/// lasts this long, so timer resolution does not decide the figure. Kept
/// short, so that few batches hold one of the host's periodic stalls and
/// the median misses them.
const SETUP_BATCH_MIN: Duration = Duration::from_millis(5);

/// Times a set-up in [`SETUP_BATCHES`] batches spread evenly over a run.
/// Host speed on a shared machine drifts over seconds, so batches taken
/// back to back would report whichever second they fell in.
pub struct SetupTimer<'a> {
    setup: Box<dyn FnMut() + 'a>,
    per_call: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    pub fn new<T>(mut setup: impl FnMut() -> T + 'a) -> Self {
        SetupTimer {
            setup: Box::new(move || {
                std::hint::black_box(setup());
            }),
            per_call: Vec::with_capacity(SETUP_BATCHES),
        }
    }

    /// Times the next batch if its turn has come when `done` (0 to 1) of
    /// the run has passed.
    pub fn tick(&mut self, done: f64) {
        if (self.per_call.len() as f64) < done * SETUP_BATCHES as f64 {
            self.batch();
        }
    }

    fn batch(&mut self) {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed() < SETUP_BATCH_MIN {
            (self.setup)();
            calls += 1;
        }
        self.per_call
            .push(start.elapsed().as_secs_f64() / f64::from(calls));
    }

    /// Times the batches still due; the median host seconds per set-up.
    pub fn finish(mut self) -> f64 {
        while self.per_call.len() < SETUP_BATCHES {
            self.batch();
        }
        median(&self.per_call)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time of one traced call site. Counts are exact; the clock is read
/// around a pseudo-random 1 in `period` calls, so that spans on the per-op
/// path, where a call costs a few clock reads, do not swamp the run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    mask: u64,
    rng: u64,
    timed: u64,
    ns: u64,
}

impl Span {
    /// A span that times a random 1 in `period` (a power of two) calls.
    pub fn sampled(period: u64) -> Self {
        debug_assert!(period.is_power_of_two());
        Span {
            calls: 0,
            mask: period - 1,
            rng: 0x9e37_79b9_7f4a_7c15,
            timed: 0,
            ns: 0,
        }
    }

    /// A span that times every call.
    pub fn every_call() -> Self {
        Self::sampled(1)
    }

    /// Runs `f` inside this span.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if self.rng & self.mask != 0 {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.timed += 1;
        r
    }

    /// Mean host ns per call, less `clock_ns`, the cost of an empty span
    /// (0 when no call was timed).
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.ns as f64 / self.timed as f64 - clock_ns).max(0.0)
        }
    }

    /// Estimated host ns in all calls: the timed mean times the calls.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.mean_ns(clock_ns) * self.calls as f64
    }
}

/// The host ns an empty timed span measures: the clock's own cost, which
/// [`Span::mean_ns`] subtracts. Median of five batch means.
pub fn clock_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let total: u128 = (0..CALLS)
                .map(|_| std::hint::black_box(Instant::now()).elapsed().as_nanos())
                .sum();
            total as f64 / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.step(true, String::new);
        r.metrics.push(metric("setup_s", 0.5, "s"));
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
