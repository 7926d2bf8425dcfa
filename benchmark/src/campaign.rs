//! The two window-granular workloads: `soak-standard` and `fleet-standard`.
//!
//! Both run whole campaign cells through public calls
//! (`soak::run_with_engine` per soak cell, `run_machine` per fleet
//! machine), so host time is measured per cell and spread over the cell's
//! detector windows. Neither touches the cache, DRAM or `Platform`.

use crate::measure::{guarded, metric, peak_rss_mb, percentile, ratio, Metric, Report, SetupTimer};
use anvil_faults::hash64;
use anvil_fleet::{run_machine, FleetConfig, FleetRisk, MachineSummary};
use anvil_runtime::soak::run_with_engine;
use anvil_runtime::{Engine, SoakConfig, SoakSummary};
use std::time::{Duration, Instant};

/// Detector windows per soak cell: about 16 host ms per cell on a 2-core
/// x86-64 box, so each pass of a 25 s run holds about 310 cells.
const SOAK_CELL_WINDOWS: u64 = 5_000;

/// Windows per fleet machine (per domain): about 18 host ms per machine.
const FLEET_MACHINE_WINDOWS: u64 = 200;

/// A pass holds at least this many cells, so that `window_ms_p90` has ten
/// samples beyond it; the determinism digest covers the first this many.
const MIN_CELLS: usize = 100;

/// Timed passes over the same cells. A cell's time is its fastest pass.
/// Shared hosts stall a guest for whole milliseconds at a time (a 2-core
/// x86-64 VM was measured stalling 12.5 ms in every 125 ms). A cell a few
/// times shorter than that period is stalled in a fraction of its passes,
/// so the fastest pass times the cell rather than the host. Five passes
/// also outlast most stretches in which other tenants slow the host.
const PASSES: usize = 5;

/// The first pass stops here even if it is short of [`MIN_CELLS`].
const MAX_FIRST_PASS: Duration = Duration::from_secs(30);

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignWorkload {
    /// `SoakConfig::standard` under the default event engine.
    SoakStandard,
    /// Machines of `FleetConfig::standard`.
    FleetStandard,
}

/// The outcome of one cell: a soak campaign or one fleet machine.
#[derive(Debug, Clone, PartialEq)]
enum Cell {
    Soak(SoakSummary),
    Machine(MachineSummary),
}

/// Seed of soak cell `i` in a run seeded with `seed`.
fn soak_seed(seed: u64, i: u64) -> u64 {
    hash64(seed ^ hash64(i))
}

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig::standard(1, FLEET_MACHINE_WINDOWS, seed)
}

impl CampaignWorkload {
    /// Detector windows one cell services (every domain's, on fleet).
    fn cell_windows(self) -> u64 {
        match self {
            CampaignWorkload::SoakStandard => SOAK_CELL_WINDOWS,
            CampaignWorkload::FleetStandard => {
                FLEET_MACHINE_WINDOWS * u64::from(fleet_config(0).topology.domains())
            }
        }
    }

    /// Runs cell `i`.
    fn cell(self, seed: u64, i: u64) -> Cell {
        match self {
            CampaignWorkload::SoakStandard => Cell::Soak(run_with_engine(
                &SoakConfig::standard(SOAK_CELL_WINDOWS, soak_seed(seed, i)),
                Engine::Event,
            )),
            CampaignWorkload::FleetStandard => Cell::Machine(run_machine(&fleet_config(seed), i)),
        }
    }

    /// The campaign's own set-up, timed as `setup_s`: a zero-window run
    /// builds the PMU, supervisor and envelope (soak) or boots every
    /// domain of a machine (fleet).
    fn setup(self, seed: u64) -> Cell {
        match self {
            CampaignWorkload::SoakStandard => Cell::Soak(run_with_engine(
                &SoakConfig::standard(0, seed),
                Engine::Event,
            )),
            CampaignWorkload::FleetStandard => {
                let mut cfg = fleet_config(seed);
                cfg.windows = 0;
                Cell::Machine(run_machine(&cfg, 0))
            }
        }
    }
}

/// Checks one cell: the soak gate over every window, or zero undeclared
/// flips and every recovery gap within budget on a machine.
fn check_cell(cell: &Cell) -> Result<(), String> {
    match cell {
        Cell::Soak(s) if !s.holds() || s.windows != SOAK_CELL_WINDOWS => Err(format!(
            "soak gate failed: {} flips, within budget {}, {} of {SOAK_CELL_WINDOWS} windows",
            s.flips, s.within_budget, s.windows
        )),
        Cell::Machine(m) => {
            let undeclared: u64 = m.domains.iter().map(|d| d.undeclared_flips).sum();
            if undeclared > 0 || m.domains.iter().any(|d| !d.within_budget) {
                Err(format!(
                    "machine {}: {undeclared} undeclared flips or a recovery gap over budget",
                    m.machine
                ))
            } else {
                Ok(())
            }
        }
        Cell::Soak(_) => Ok(()),
    }
}

/// Cells run: the host ms and the digest of each, and the first cells in
/// full.
#[derive(Default)]
struct Cells {
    cells: Vec<Cell>,
    digests: Vec<u64>,
    ms: Vec<f64>,
}

impl Cells {
    fn machines(&self) -> Vec<MachineSummary> {
        self.cells
            .iter()
            .filter_map(|c| match c {
                Cell::Machine(m) => Some(m.clone()),
                Cell::Soak(_) => None,
            })
            .collect()
    }

    fn soaks(&self) -> impl Iterator<Item = &SoakSummary> {
        self.cells.iter().filter_map(|c| match c {
            Cell::Soak(s) => Some(s),
            Cell::Machine(_) => None,
        })
    }

    fn host_ns(&self) -> f64 {
        self.ms.iter().sum::<f64>() * 1e6
    }
}

/// Runs and checks cells `0..` while `keep_going(cells run)` holds, and
/// keeps the first `keep` in full; stops at the first panic. Keeping only
/// a fixed number holds the benchmark's own memory, and so `peak_rss_mb`,
/// apart from how many cells the host's speed lets a run reach.
fn run_cells(
    w: CampaignWorkload,
    seed: u64,
    report: &mut Report,
    keep: usize,
    mut keep_going: impl FnMut(usize) -> bool,
) -> Cells {
    let mut run = Cells::default();
    while keep_going(run.digests.len()) {
        let i = run.digests.len() as u64;
        let start = Instant::now();
        let result = guarded(|| w.cell(seed, i));
        run.ms.push(start.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(cell) => {
                let verdict = check_cell(&cell);
                report.step(verdict.is_ok(), || {
                    format!("cell {i}: {}", verdict.clone().err().unwrap_or_default())
                });
                run.digests.push(digest(std::slice::from_ref(&cell)));
                if run.cells.len() < keep {
                    run.cells.push(cell);
                }
            }
            Err(panic) => {
                report.step(false, || format!("cell {i}: panic: {panic}"));
                break;
            }
        }
    }
    run
}

/// Aggregates the fleet's machines and checks `FleetRisk::holds`.
fn aggregate_fleet(seed: u64, run: &Cells, report: &mut Report) -> FleetRisk {
    let risk = FleetRisk::aggregate(&fleet_config(seed), &run.machines(), 0);
    report.step(risk.holds(), || {
        format!(
            "fleet gate failed: {} undeclared flips, {} budget violations",
            risk.undeclared_flips, risk.budget_violations
        )
    });
    risk
}

/// The untraced run: every end-to-end metric. The first pass runs cells
/// for a [`PASSES`]th of `seconds`; the later passes repeat those cells,
/// which must come out identical. Every timing takes each cell's fastest
/// pass.
pub fn end_to_end(w: CampaignWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup = SetupTimer::new(|| w.setup(seed));
    let budget = Duration::from_secs_f64(seconds);
    let first_pass = budget / PASSES as u32;
    let start = Instant::now();
    let mut tick = || setup.tick(start.elapsed().as_secs_f64() / budget.as_secs_f64());
    let first = run_cells(w, seed, &mut report, MIN_CELLS, |n| {
        tick();
        let elapsed = start.elapsed();
        (n < MIN_CELLS || elapsed < first_pass) && elapsed < MAX_FIRST_PASS
    });
    let n = first.digests.len();
    let mut best_ms = first.ms.clone();
    for pass in 1..PASSES {
        let again = run_cells(w, seed, &mut report, 0, |i| {
            tick();
            i < n
        });
        report.step(again.digests == first.digests, || {
            format!("pass {pass} gave other cells than the first")
        });
        for (best, ms) in best_ms.iter_mut().zip(&again.ms) {
            *best = best.min(*ms);
        }
    }
    let setup_s = setup.finish();
    if w == CampaignWorkload::FleetStandard {
        // Over the machines kept in full; every machine was checked alone.
        let risk = aggregate_fleet(seed, &first, &mut report);
        report.notes.push(format!(
            "fleet of the first {} machines: {} outages, {} PMU-blind windows, {} undeclared flips",
            risk.machines, risk.outages, risk.blind_windows, risk.undeclared_flips
        ));
    }
    let windows = w.cell_windows();
    let window_ms: Vec<f64> = best_ms.iter().map(|ms| ms / windows as f64).collect();
    let digest_cells = first.cells.len();
    report.notes.push(format!(
        "{n} cells of {windows} detector windows, {PASSES} passes; each cell timed by its \
         fastest pass; window_ms_p50 and window_ms_p90 over {n} per-cell means"
    ));
    report.notes.push(format!(
        "digest of the first {digest_cells} cells: {:016x}",
        digest(&first.cells)
    ));
    report.metrics = vec![
        metric(
            "windows_per_s",
            (n as u64 * windows) as f64 / (best_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        metric("window_ms_p50", percentile(&window_ms, 50.0), "ms"),
        metric("window_ms_p90", percentile(&window_ms, 90.0), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    report
}

fn digest(cells: &[Cell]) -> u64 {
    anvil_core::fnv1a64(format!("{cells:?}").as_bytes())
}

/// The traced run: cells for half the budget untraced, then the same cells
/// again inside spans at the public calls; every per-layer metric.
pub fn traced(w: CampaignWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let untraced = run_cells(w, seed, &mut report, usize::MAX, |n| {
        n == 0 || (start.elapsed() < budget && start.elapsed() < MAX_FIRST_PASS)
    });
    let n = untraced.cells.len();
    let start = Instant::now();
    let traced = run_cells(w, seed, &mut report, usize::MAX, |i| i < n);
    let mut aggregate_ms = 0.0;
    if w == CampaignWorkload::FleetStandard {
        let t = Instant::now();
        aggregate_fleet(seed, &traced, &mut report);
        aggregate_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    let traced_ns = start.elapsed().as_nanos() as f64;
    report.step(traced.cells == untraced.cells, || {
        "the repeated cells differ from the first run".into()
    });
    report.notes.push(format!(
        "traced and untraced runs: {n} cells each; digest {:016x}",
        digest(&traced.cells)
    ));

    let windows = (n as u64 * w.cell_windows()) as f64;
    let spans_ns = traced.host_ns() + aggregate_ms * 1e6;
    let mut m = vec![
        metric(
            "core.unattributed_share",
            1.0 - spans_ns / traced_ns,
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            traced_ns / untraced.host_ns() - 1.0,
            "ratio",
        ),
    ];
    match w {
        CampaignWorkload::SoakStandard => m.extend(soak_metrics(&traced, windows)),
        CampaignWorkload::FleetStandard => m.extend(fleet_metrics(&traced, aggregate_ms)),
    }
    report.metrics = m;
    report
}

fn soak_metrics(run: &Cells, windows: f64) -> Vec<Metric> {
    let sum = |f: fn(&SoakSummary) -> u64| run.soaks().map(f).sum::<u64>();
    let stage2 = sum(|s| s.stage2_windows);
    // Windows that leave the quiet fast path: every trip and every
    // stage-2 window is replayed through the per-op service.
    let fallbacks = sum(|s| s.threshold_crossings) + stage2;
    vec![
        metric("runtime.window_ns", run.host_ns() / windows, "ns"),
        metric("runtime.services", sum(|s| s.services) as f64, "count"),
        metric("runtime.restarts", sum(|s| s.restarts) as f64, "count"),
        metric(
            "runtime.checkpoints_written",
            sum(|s| s.checkpoints_written) as f64,
            "count",
        ),
        metric(
            "runtime.checkpoint_rejections",
            sum(|s| s.checkpoint_rejections) as f64,
            "count",
        ),
        metric("runtime.reloads", sum(|s| s.reloads) as f64, "count"),
        metric("runtime.stage2_windows", stage2 as f64, "count"),
        metric(
            "runtime.fallback_share",
            ratio(fallbacks, windows as u64),
            "ratio",
        ),
        metric("faults.crashes", sum(|s| s.crashes) as f64, "count"),
        metric("faults.stalls", sum(|s| s.stalled_services) as f64, "count"),
        metric(
            "faults.checkpoint_corruptions",
            sum(|s| s.checkpoints_corrupted) as f64,
            "count",
        ),
    ]
}

fn fleet_metrics(run: &Cells, aggregate_ms: f64) -> Vec<Metric> {
    let machines = run.machines();
    let domains = machines.iter().flat_map(|m| &m.domains);
    vec![
        metric("fleet.machine_ms", percentile(&run.ms, 50.0), "ms"),
        metric("fleet.aggregate_ms", aggregate_ms, "ms"),
        metric(
            "fleet.domain_windows",
            (machines.len() as u64 * CampaignWorkload::FleetStandard.cell_windows()) as f64,
            "count",
        ),
        metric(
            "fleet.outages",
            machines.iter().map(|m| m.outages).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "fleet.blind_windows",
            machines.iter().map(|m| m.blind_windows).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "fleet.blanket_refreshes",
            domains.map(|d| d.blanket_refreshes).sum::<u64>() as f64,
            "count",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short variants: a few cells.
    const SHORT_CELLS: usize = 2;

    #[test]
    fn two_runs_give_the_same_cells() {
        for w in [
            CampaignWorkload::SoakStandard,
            CampaignWorkload::FleetStandard,
        ] {
            let mut report = Report::default();
            let a = run_cells(w, 5, &mut report, usize::MAX, |n| n < SHORT_CELLS);
            let b = run_cells(w, 5, &mut report, 1, |n| n < SHORT_CELLS);
            assert_eq!(a.digests, b.digests, "{w:?}");
            assert_eq!(b.cells.len(), 1);
            assert_eq!(digest(&a.cells[..1]), digest(&b.cells), "{w:?}");
            assert_eq!(report.failed, 0, "{:?}", report.notes);
            assert_eq!(report.attempted, 2 * SHORT_CELLS as u64);
        }
    }

    #[test]
    fn the_seed_changes_the_cells() {
        let w = CampaignWorkload::SoakStandard;
        let mut report = Report::default();
        let a = run_cells(w, 1, &mut report, 1, |n| n < 1);
        let b = run_cells(w, 2, &mut report, 1, |n| n < 1);
        assert_ne!(digest(&a.cells), digest(&b.cells));
    }
}
