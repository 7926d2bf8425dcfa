//! The two full-`Platform` workloads: `spec-quiet` and `hammer-heavy`.

use crate::measure::{
    clock_ns, guarded, metric, peak_rss_mb, percentile, ratio, Metric, Report, SetupTimer,
};
use crate::traced::TracedPlatform;
use anvil_attacks::Attack;
use anvil_bench::{vulnerable_pair_index, AttackKind};
use anvil_cache::CacheStats;
use anvil_core::{AnvilConfig, DetectorStats, LocalityReport, Platform, PlatformConfig};
use anvil_dram::{Cycle, DramStats, RowId};
use anvil_mem::{MemStats, MemoryConfig};
use anvil_workloads::{SpecBenchmark, Workload};
use std::time::{Duration, Instant};

/// A pass holds at least this many windows, so that `window_ms_p90` has
/// ten samples beyond it; the determinism digest covers the simulated
/// counters after this many.
const MIN_WINDOWS: usize = 100;

/// Timed passes over the same windows, each on a platform built afresh
/// from the seed. A window's time is its fastest pass: the windows' own
/// cost barely varies, so the spread between one window and the next is
/// the host's, and a stall or a slow stretch rarely hits both passes.
const PASSES: usize = 2;

/// The first pass stops here even if it is short of [`MIN_WINDOWS`].
const MAX_FIRST_PASS: Duration = Duration::from_secs(60);

/// Candidate aggressor pairs scanned for a vulnerable victim, as
/// `detection_run` scans them.
const PAIR_CANDIDATES: usize = 24;

/// The paper's Table 3 reference for the CLFLUSH-free heavy-load cell.
const PAPER_DETECT_MS: f64 = 35.3;
const PAPER_REFRESHES_PER_WINDOW: f64 = 4.53;

/// Which `Platform` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformWorkload {
    /// h264ref, hmmer and perlbench under baseline ANVIL (Tables 4/5).
    SpecQuiet,
    /// The CLFLUSH-free double-sided attack beside mcf, libquantum and
    /// omnetpp under baseline ANVIL (Table 3, heavy load).
    HammerHeavy,
}

/// The generated inputs of one run: what the seed decides.
struct Inputs {
    workloads: Vec<Box<dyn Workload>>,
    attack: Option<Box<dyn Attack>>,
}

impl PlatformWorkload {
    fn benchmarks(self) -> [SpecBenchmark; 3] {
        match self {
            PlatformWorkload::SpecQuiet => [
                SpecBenchmark::H264ref,
                SpecBenchmark::Hmmer,
                SpecBenchmark::Perlbench,
            ],
            PlatformWorkload::HammerHeavy => SpecBenchmark::memory_intensive(),
        }
    }

    /// Builds the programs from `seed`; the attack hammers the first
    /// aggressor pair whose victim row holds a vulnerable cell.
    fn inputs(self, seed: u64) -> Inputs {
        let attack = (self == PlatformWorkload::HammerHeavy).then(|| {
            let kind = AttackKind::ClflushFree;
            let pair = vulnerable_pair_index(kind, MemoryConfig::paper_platform(), PAIR_CANDIDATES)
                .unwrap_or(0);
            kind.build(pair)
        });
        Inputs {
            workloads: self.benchmarks().iter().map(|b| b.build(seed)).collect(),
            attack,
        }
    }

    /// The full set-up `setup_s` times: inputs, platform, arenas, attack.
    pub fn platform(self, seed: u64) -> Result<Platform, String> {
        let inputs = self.inputs(seed);
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        for w in inputs.workloads {
            p.add_workload(w).map_err(|e| e.to_string())?;
        }
        if let Some(a) = inputs.attack {
            p.add_attack(a).map_err(|e| e.to_string())?;
        }
        Ok(p)
    }

    /// The same run rebuilt by the traced replay.
    pub fn traced(self, seed: u64) -> Result<TracedPlatform, String> {
        let inputs = self.inputs(seed);
        let mut p = TracedPlatform::new(AnvilConfig::baseline());
        for w in inputs.workloads {
            p.add_workload(w)?;
        }
        if let Some(a) = inputs.attack {
            p.add_attack(a).map_err(|e| e.to_string())?;
        }
        Ok(p)
    }
}

/// Host-timed length of one step: one detector window.
pub fn window_ms() -> f64 {
    AnvilConfig::baseline().tc_ms
}

/// Every simulated counter of a `Platform` run. A change that only speeds
/// up the simulator leaves all of it identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounters {
    /// Per core, in pid order: ops executed and local clock.
    pub cores: Vec<(u64, Cycle)>,
    pub mem: MemStats,
    /// L1, L2, L3.
    pub caches: (CacheStats, CacheStats, CacheStats),
    pub dram: DramStats,
    pub detector: DetectorStats,
    /// Detections: cycle, analysis, rows refreshed.
    pub detections: Vec<(Cycle, LocalityReport, Vec<RowId>)>,
    pub refresh_log: Vec<(Cycle, RowId)>,
    pub flips: u64,
    pub pmu_samples: u64,
    pub pmu_interrupts: u64,
}

impl SimCounters {
    /// The counters of an untraced run.
    pub fn of(p: &Platform) -> Self {
        let cores = (100..)
            .map_while(|pid| p.core_stats(pid))
            .map(|c| (c.ops, c.cycles))
            .collect();
        SimCounters {
            cores,
            mem: *p.sys().stats(),
            caches: p.sys().hierarchy().stats(),
            dram: *p.sys().dram().stats(),
            detector: p.detector_stats().copied().unwrap_or_default(),
            detections: p
                .detections()
                .iter()
                .map(|d| (d.cycle, d.report.clone(), d.refreshed.clone()))
                .collect(),
            refresh_log: p.refresh_log().to_vec(),
            flips: p.total_flips(),
            pmu_samples: p.pmu().samples_taken(),
            pmu_interrupts: p.pmu().interrupts_raised(),
        }
    }

    /// FNV-1a over every counter.
    pub fn digest(&self) -> u64 {
        anvil_core::fnv1a64(format!("{self:?}").as_bytes())
    }
}

/// Runs detector windows on an untraced platform while `keep_going(windows
/// run)` holds, timing each and calling `at_window` after it. Stops at an
/// error or a panic; every window that errs, panics or leaves a flip
/// counts as failed.
fn run_windows(
    p: &mut Platform,
    report: &mut Report,
    mut keep_going: impl FnMut(usize) -> bool,
    mut at_window: impl FnMut(usize, &Platform),
) -> Vec<f64> {
    let ms = window_ms();
    let mut times = Vec::new();
    while keep_going(times.len()) {
        let start = Instant::now();
        let result = guarded(|| p.run_ms(ms));
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let n = times.len();
        match result {
            Ok(Ok(())) => {
                report.step(p.total_flips() == 0, || {
                    format!("window {n}: {} bit flips under ANVIL", p.total_flips())
                });
                at_window(n, p);
            }
            Ok(Err(e)) => {
                report.step(false, || format!("window {n}: {e}"));
                break;
            }
            Err(panic) => {
                report.step(false, || format!("window {n}: panic: {panic}"));
                break;
            }
        }
    }
    times
}

/// The untraced run: every end-to-end metric. The first pass runs windows
/// for a [`PASSES`]th of `seconds`; the later passes repeat them on a new
/// platform, which must end with the same simulated counters. Every
/// timing takes each window's fastest pass.
pub fn end_to_end(w: PlatformWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup = SetupTimer::new(|| w.platform(seed));
    let budget = Duration::from_secs_f64(seconds);
    let first_pass = budget / PASSES as u32;
    let start = Instant::now();
    let mut tick = || setup.tick(start.elapsed().as_secs_f64() / budget.as_secs_f64());
    let mut digest = None;
    let mut first: Option<(Vec<f64>, SimCounters)> = None;
    let mut best_ms = Vec::new();
    for pass in 0..PASSES {
        let mut p = match w.platform(seed) {
            Ok(p) => p,
            Err(e) => {
                report.step(false, || format!("set-up: {e}"));
                return report;
            }
        };
        let times = run_windows(
            &mut p,
            &mut report,
            |n| {
                tick();
                match &first {
                    None => {
                        let elapsed = start.elapsed();
                        (n < MIN_WINDOWS || elapsed < first_pass) && elapsed < MAX_FIRST_PASS
                    }
                    Some((times, _)) => n < times.len(),
                }
            },
            |n, p| {
                if pass == 0 && n == MIN_WINDOWS {
                    digest = Some(SimCounters::of(p).digest());
                }
            },
        );
        let counters = SimCounters::of(&p);
        match &first {
            None => {
                check_outcome(w, &p, &mut report);
                best_ms.clone_from(&times);
                first = Some((times, counters));
            }
            Some((_, first_counters)) => {
                report.step(counters == *first_counters, || {
                    format!("pass {pass} ended with other simulated counters than the first")
                });
                for (best, ms) in best_ms.iter_mut().zip(&times) {
                    *best = best.min(*ms);
                }
            }
        }
    }
    let setup_s = setup.finish();

    let host_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
    report.notes.push(format!(
        "{} windows of {} simulated ms, {PASSES} passes; each window timed by its fastest \
         pass, {host_s:.2} host s in all; window_ms_p50 and window_ms_p90 over {} samples",
        best_ms.len(),
        window_ms(),
        best_ms.len()
    ));
    report.notes.push(match digest {
        Some(d) => format!("digest after {MIN_WINDOWS} windows: {d:016x}"),
        None => format!("digest: run ended before {MIN_WINDOWS} windows"),
    });
    report.metrics = vec![
        metric("windows_per_s", best_ms.len() as f64 / host_s, "1/s"),
        metric("window_ms_p50", percentile(&best_ms, 50.0), "ms"),
        metric("window_ms_p90", percentile(&best_ms, 90.0), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    report
}

/// Run-level checks, plus the simulated outcome beside the paper's.
fn check_outcome(w: PlatformWorkload, p: &Platform, report: &mut Report) {
    let refreshes = p.refreshes_per_window();
    match w {
        PlatformWorkload::SpecQuiet => report.notes.push(format!(
            "false positives: {:.2} refreshes/s (paper: 0.00/s for h264ref, hmmer, perlbench)",
            p.refreshes_per_second()
        )),
        PlatformWorkload::HammerHeavy => {
            let detect = p.first_detection_ms();
            report.step(detect.is_some(), || "the attack was never detected".into());
            report.notes.push(format!(
                "detected after {} simulated ms (paper: {PAPER_DETECT_MS} ms); \
                 {refreshes:.2} refreshes per 64 ms (paper: {PAPER_REFRESHES_PER_WINDOW})",
                detect.map_or_else(|| "never".into(), |d| format!("{d:.1}"))
            ));
        }
    }
}

/// The traced run: the untraced platform, then the traced replay of the
/// same windows; every per-layer metric.
pub fn traced(w: PlatformWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut p = match w.platform(seed) {
        Ok(p) => p,
        Err(e) => {
            report.step(false, || format!("set-up: {e}"));
            return report;
        }
    };
    // Half the budget for the untraced run; the traced run then repeats
    // its windows.
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let times = run_windows(
        &mut p,
        &mut report,
        |n| n == 0 || (start.elapsed() < budget && start.elapsed() < MAX_FIRST_PASS),
        |_, _| {},
    );
    let windows = times.len();
    let untraced_ns = times.iter().sum::<f64>() * 1e6;

    let mut t = match w.traced(seed) {
        Ok(t) => t,
        Err(e) => {
            report.step(false, || format!("traced set-up: {e}"));
            return report;
        }
    };
    let start = Instant::now();
    for n in 1..=windows {
        match guarded(|| t.run_ms(window_ms())) {
            Ok(Ok(())) => report.step(true, String::new),
            Ok(Err(e)) => return failed(report, format!("traced window {n}: {e}")),
            Err(panic) => return failed(report, format!("traced window {n}: panic: {panic}")),
        }
    }
    let traced_ns = start.elapsed().as_nanos() as f64;

    let expected = SimCounters::of(&p);
    let got = t.counters();
    report.step(got == expected, || {
        format!(
            "traced replay diverged from Platform: digest {:016x}, expected {:016x}",
            got.digest(),
            expected.digest()
        )
    });
    report.notes.push(format!(
        "traced and untraced runs: {windows} windows each; digest {:016x} (untraced) {:016x} (traced)",
        expected.digest(),
        got.digest()
    ));
    report.metrics = layer_metrics(&p, &t, windows, untraced_ns, traced_ns);
    report
}

fn failed(mut report: Report, why: String) -> Report {
    report.step(false, || why);
    report
}

/// Per-layer metrics of the two `Platform` workloads.
fn layer_metrics(
    p: &Platform,
    t: &TracedPlatform,
    windows: usize,
    untraced_ns: f64,
    traced_ns: f64,
) -> Vec<Metric> {
    let c = SimCounters::of(p);
    let s = &t.spans;
    let clock = clock_ns();
    let det = &c.detector;
    vec![
        metric("workloads.next_op_ns", s.workload_op.mean_ns(clock), "ns"),
        metric("workloads.ops", s.workload_op.calls as f64, "count"),
        metric("mem.translate_ns", s.translate.mean_ns(clock), "ns"),
        metric("mem.translations", s.translate.calls as f64, "count"),
        metric("cache.access_ns", s.cache_access.mean_ns(clock), "ns"),
        metric("cache.accesses", s.cache_access.calls as f64, "count"),
        metric(
            "cache.l1_hit_rate",
            ratio(c.caches.0.hits, c.caches.0.accesses),
            "ratio",
        ),
        metric(
            "cache.llc_miss_rate",
            ratio(c.mem.llc_misses, c.mem.accesses),
            "ratio",
        ),
        metric("cache.writebacks", t.counts.writebacks as f64, "count"),
        metric("cache.prefetches", t.counts.prefetches as f64, "count"),
        metric("pmu.observe_ns", s.pmu.mean_ns(clock), "ns"),
        metric("pmu.samples", c.pmu_samples as f64, "count"),
        metric("pmu.interrupts", c.pmu_interrupts as f64, "count"),
        metric("dram.access_ns", s.dram.mean_ns(clock), "ns"),
        metric("dram.accesses", c.dram.accesses as f64, "count"),
        metric("dram.row_hit_rate", c.dram.row_hit_rate(), "ratio"),
        metric("dram.flips", c.flips as f64, "count"),
        metric("core.service_us", s.service.mean_ns(clock) / 1e3, "us"),
        metric("core.windows", windows as f64, "count"),
        metric("core.stage2_windows", det.stage2_windows as f64, "count"),
        metric(
            "core.stage2_share",
            ratio(det.stage2_windows, det.stage1_windows + det.stage2_windows),
            "ratio",
        ),
        metric(
            "core.samples_analyzed",
            det.samples_analyzed as f64,
            "count",
        ),
        metric("core.detections", det.detections as f64, "count"),
        metric(
            "core.selective_refreshes",
            det.selective_refreshes as f64,
            "count",
        ),
        metric(
            "core.detect_ms",
            p.first_detection_ms().unwrap_or(0.0),
            "ms",
        ),
        metric(
            "core.refreshes_per_window",
            p.refreshes_per_window(),
            "count",
        ),
        metric(
            "attacks.prepare_ms",
            s.attack_prepare.mean_ns(clock) / 1e6,
            "ms",
        ),
        metric("attacks.next_op_ns", s.attack_op.mean_ns(clock), "ns"),
        metric("attacks.ops", s.attack_op.calls as f64, "count"),
        metric("attacks.clflushes", c.mem.clflushes as f64, "count"),
        metric(
            "core.unattributed_share",
            1.0 - s.run_ns(clock) / untraced_ns,
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            traced_ns / untraced_ns - 1.0,
            "ratio",
        ),
        metric("trace.clock_ns", clock, "ns"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short variants: a few windows, enough for `hammer-heavy` to detect.
    const SHORT_WINDOWS: usize = 8;

    fn short_run(w: PlatformWorkload, seed: u64) -> (Platform, SimCounters) {
        let mut p = w.platform(seed).unwrap();
        for _ in 0..SHORT_WINDOWS {
            p.run_ms(window_ms()).unwrap();
        }
        let c = SimCounters::of(&p);
        (p, c)
    }

    #[test]
    fn two_runs_give_the_same_digest() {
        for w in [PlatformWorkload::SpecQuiet, PlatformWorkload::HammerHeavy] {
            let (_, a) = short_run(w, 7);
            let (_, b) = short_run(w, 7);
            assert_eq!(a.digest(), b.digest(), "{w:?}");
        }
    }

    #[test]
    fn the_seed_changes_the_run() {
        let (_, a) = short_run(PlatformWorkload::SpecQuiet, 1);
        let (_, b) = short_run(PlatformWorkload::SpecQuiet, 2);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn traced_replay_reproduces_the_platform_exactly() {
        for w in [PlatformWorkload::SpecQuiet, PlatformWorkload::HammerHeavy] {
            let (p, expected) = short_run(w, 3);
            let mut t = w.traced(3).unwrap();
            for _ in 0..SHORT_WINDOWS {
                t.run_ms(window_ms()).unwrap();
            }
            assert_eq!(t.counters(), expected, "{w:?}");
            if w == PlatformWorkload::HammerHeavy {
                assert!(
                    p.first_detection_ms().is_some(),
                    "the short attack is detected"
                );
                assert!(expected.detector.stage2_windows > 0);
                assert!(t.spans.attack_op.calls > 0 && t.spans.dram.calls > 0);
            }
        }
    }
}
