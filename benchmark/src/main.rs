//! The repository benchmark: runs one named workload of the ANVIL
//! simulator for a fixed host time, checks its outputs, and prints every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) by
//! name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! anvil-repo-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! See `benchmark/README.md` for the workloads and metrics.

mod campaign;
mod measure;
mod platform;
mod traced;

use campaign::CampaignWorkload;
use measure::{metric, Report};
use platform::PlatformWorkload;
use std::process::ExitCode;

/// The workload seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Host seconds measured when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 25.0;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("windows_per_s", "1/s"),
    ("window_ms_p50", "ms"),
    ("window_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
];

/// The per-layer metrics, in output order, with their units. A workload
/// that never calls a layer reports that layer's metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.next_op_ns", "ns"),
    ("workloads.ops", "count"),
    ("mem.translate_ns", "ns"),
    ("mem.translations", "count"),
    ("cache.access_ns", "ns"),
    ("cache.accesses", "count"),
    ("cache.l1_hit_rate", "ratio"),
    ("cache.llc_miss_rate", "ratio"),
    ("cache.writebacks", "count"),
    ("cache.prefetches", "count"),
    ("dram.access_ns", "ns"),
    ("dram.accesses", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.flips", "count"),
    ("pmu.observe_ns", "ns"),
    ("pmu.samples", "count"),
    ("pmu.interrupts", "count"),
    ("core.service_us", "us"),
    ("core.windows", "count"),
    ("core.stage2_windows", "count"),
    ("core.stage2_share", "ratio"),
    ("core.samples_analyzed", "count"),
    ("core.detections", "count"),
    ("core.selective_refreshes", "count"),
    ("core.detect_ms", "ms"),
    ("core.refreshes_per_window", "count"),
    ("core.unattributed_share", "ratio"),
    ("attacks.prepare_ms", "ms"),
    ("attacks.next_op_ns", "ns"),
    ("attacks.ops", "count"),
    ("attacks.clflushes", "count"),
    ("runtime.window_ns", "ns"),
    ("runtime.services", "count"),
    ("runtime.restarts", "count"),
    ("runtime.checkpoints_written", "count"),
    ("runtime.checkpoint_rejections", "count"),
    ("runtime.reloads", "count"),
    ("runtime.stage2_windows", "count"),
    ("runtime.fallback_share", "ratio"),
    ("faults.crashes", "count"),
    ("faults.stalls", "count"),
    ("faults.checkpoint_corruptions", "count"),
    ("fleet.machine_ms", "ms"),
    ("fleet.aggregate_ms", "ms"),
    ("fleet.domain_windows", "count"),
    ("fleet.outages", "count"),
    ("fleet.blind_windows", "count"),
    ("fleet.blanket_refreshes", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.clock_ns", "ns"),
];

/// The four workloads, by name.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Platform(PlatformWorkload),
    Campaign(CampaignWorkload),
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "spec-quiet" => Workload::Platform(PlatformWorkload::SpecQuiet),
            "hammer-heavy" => Workload::Platform(PlatformWorkload::HammerHeavy),
            "soak-standard" => Workload::Campaign(CampaignWorkload::SoakStandard),
            "fleet-standard" => Workload::Campaign(CampaignWorkload::FleetStandard),
            _ => return None,
        })
    }

    fn run(self, seed: u64, seconds: f64, trace: bool) -> Report {
        match (self, trace) {
            (Workload::Platform(w), false) => platform::end_to_end(w, seed, seconds),
            (Workload::Platform(w), true) => platform::traced(w, seed, seconds),
            (Workload::Campaign(w), false) => campaign::end_to_end(w, seed, seconds),
            (Workload::Campaign(w), true) => campaign::traced(w, seed, seconds),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: anvil-repo-benchmark --workload \
    <spec-quiet|hammer-heavy|soak-standard|fleet-standard> [--seed N] [--seconds S] [--trace 0|1]\n\
    default seed 1; check a claimed gain on the held-out seed 9001 as well";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Orders `report`'s metrics as `spec` lists them, filling absent ones
/// with 0.
fn complete(report: &mut Report, spec: &[(&'static str, &'static str)]) {
    let measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in spec {
        let found = measured.iter().find(|m| m.name == name);
        debug_assert!(found.is_none_or(|m| m.unit == unit), "{name} unit");
        report
            .metrics
            .push(metric(name, found.map_or(0.0, |m| m.value), unit));
    }
    debug_assert!(
        measured
            .iter()
            .all(|m| spec.iter().any(|(n, _)| *n == m.name)),
        "a measured metric is missing from the metric list"
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Soak and fleet cells inject thousands of detector crashes as caught
    // panics; each would otherwise print a report.
    anvil_runtime::install_quiet_panic_hook();

    let mut report = args.workload.run(args.seed, args.seconds, args.trace);
    if args.trace {
        complete(&mut report, PER_LAYER);
    } else {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.metrics.push(metric("ok_rate", ok, "ratio"));
        complete(&mut report, END_TO_END);
    }
    println!(
        "seed {}; {} steps attempted, {} failed",
        args.seed, report.attempted, report.failed
    );
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload hammer-heavy --seed 42 --seconds 20 --trace 1").unwrap();
        assert!(matches!(
            a.workload,
            Workload::Platform(PlatformWorkload::HammerHeavy)
        ));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
        let d = args("--workload soak-standard").unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload spec-quiet --trace 2").is_err());
    }

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in [
            "spec-quiet",
            "hammer-heavy",
            "soak-standard",
            "fleet-standard",
        ] {
            assert!(Workload::parse(w).is_some());
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
