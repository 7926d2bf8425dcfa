//! The traced `Platform` replay.
//!
//! `Platform` has no tracing of its own yet, so this module rebuilds a run
//! from the layers' public constructors and makes the calls
//! `Platform::step_op` and `Platform::service_detector` make, in the same
//! order, with a [`Span`] around each call into a layer. It composes
//! `CacheHierarchy::access_into` and `DramModule::access` itself, the way
//! `MemorySystem::access_at` does, so that cache and DRAM time are split.
//!
//! It covers the configurations the benchmark runs: ANVIL loaded, the
//! refresh-only response and no injected faults. Its numbers count only
//! when [`SimCounters`] of the traced run equal those of the untraced
//! `Platform` run over the same windows. Delete it once the program
//! records these spans itself.

use crate::measure::Span;
use crate::platform::SimCounters;
use anvil_attacks::{Attack, AttackEnv, AttackError, AttackOp};
use anvil_cache::{CacheHierarchy, HitLevel};
use anvil_core::{AnvilConfig, AnvilDetector, LocalityReport, ServiceOutcome, SCRUB_SLICES};
use anvil_dram::{BankId, Cycle, DramLocation, DramModule, RowId};
use anvil_faults::{FaultPlan, FaultRng};
use anvil_mem::{
    AccessKind, AccessOutcome, AllocationPolicy, FrameAllocator, MemStats, MemoryConfig,
    MemorySystem, PagemapPolicy, PhysicalMemory, Process,
};
use anvil_pmu::{Pmu, RetiredOp};
use anvil_workloads::Workload;

/// `Platform`'s batch quantum (`BATCH_OPS`), repeated so that batch
/// boundaries, and with them detector service points, fall where
/// `Platform` puts them.
const BATCH_OPS: u64 = 1024;

/// Calls on the per-op path of which a span times one, at random.
const OP_SAMPLE_PERIOD: u64 = 32;

/// Host time of every layer call the replay makes.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// `Workload::next_op`.
    pub workload_op: Span,
    /// `Attack::next_op`.
    pub attack_op: Span,
    /// `Attack::prepare`.
    pub attack_prepare: Span,
    /// `Process::translate` on the op path.
    pub translate: Span,
    /// `CacheHierarchy::access_into`.
    pub cache_access: Span,
    /// `CacheHierarchy::clflush`.
    pub cache_flush: Span,
    /// `DramModule::access` and `DramModule::refresh_bank`.
    pub dram: Span,
    /// `Pmu::observe_at`.
    pub pmu: Span,
    /// `AnvilDetector::scrub_state_slice` plus `AnvilDetector::service`.
    pub service: Span,
}

impl Spans {
    fn new() -> Self {
        let op = Span::sampled(OP_SAMPLE_PERIOD);
        Spans {
            workload_op: op,
            attack_op: op,
            attack_prepare: Span::every_call(),
            translate: op,
            cache_access: op,
            cache_flush: Span::every_call(),
            dram: op,
            pmu: op,
            service: Span::every_call(),
        }
    }

    /// Estimated host ns inside the simulation loop's spans (set-up spans
    /// excluded), each span less the clock's cost `clock_ns`.
    pub fn run_ns(&self, clock_ns: f64) -> f64 {
        [
            self.workload_op,
            self.attack_op,
            self.translate,
            self.cache_access,
            self.cache_flush,
            self.dram,
            self.pmu,
            self.service,
        ]
        .iter()
        .map(|s| s.total_ns(clock_ns))
        .sum()
    }
}

/// Counts the replay takes at layer boundaries that no layer exports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Dirty lines `access_into` displaced out of the hierarchy.
    pub writebacks: u64,
    /// Prefetch fills `access_into` issued.
    pub prefetches: u64,
}

enum Program {
    Workload(Box<dyn Workload>),
    Attack(Box<dyn Attack>),
}

struct Core {
    process: Process,
    program: Program,
    base_va: u64,
    local: Cycle,
    ops: u64,
}

/// The cache hierarchy, DRAM and backing store, with `MemorySystem`'s
/// clock and counters kept by hand.
struct Memory {
    config: MemoryConfig,
    hierarchy: CacheHierarchy,
    dram: DramModule,
    phys: PhysicalMemory,
    now: Cycle,
    stats: MemStats,
    wb: Vec<u64>,
    pf: Vec<u64>,
}

impl Memory {
    /// `MemorySystem::access_at`, with the cache and DRAM calls traced.
    fn access_at(
        &mut self,
        spans: &mut Spans,
        counts: &mut Counts,
        paddr: u64,
        kind: AccessKind,
        now: Cycle,
    ) -> AccessOutcome {
        self.now = now.max(self.now);
        let write = matches!(kind, AccessKind::Write);
        let (hierarchy, wb, pf) = (&mut self.hierarchy, &mut self.wb, &mut self.pf);
        let (level, _latency) = spans
            .cache_access
            .time(|| hierarchy.access_into(paddr, write, wb, pf));
        counts.writebacks += self.wb.len() as u64;
        counts.prefetches += self.pf.len() as u64;

        self.stats.accesses = self.stats.accesses.saturating_add(1);
        match kind {
            AccessKind::Read => self.stats.reads = self.stats.reads.saturating_add(1),
            AccessKind::Write => self.stats.writes = self.stats.writes.saturating_add(1),
        }
        let core = self.config.core;
        let (advance, dram_loc) = match level {
            HitLevel::L1 => (core.l1_hit_cost, None),
            HitLevel::L2 => (core.l2_hit_cost, None),
            HitLevel::L3 => (core.l3_hit_cost, None),
            HitLevel::Memory => {
                self.stats.llc_misses = self.stats.llc_misses.saturating_add(1);
                if matches!(kind, AccessKind::Read) {
                    self.stats.llc_miss_loads = self.stats.llc_miss_loads.saturating_add(1);
                }
                let d = self.dram_access(spans, paddr);
                (d.0 + core.miss_overhead, Some(d.1))
            }
        };
        for i in 0..self.wb.len() {
            let line = self.wb[i];
            self.dram_access(spans, line);
        }
        for i in 0..self.pf.len() {
            let line = self.pf[i];
            self.dram_access(spans, line);
        }
        self.wb.clear();
        self.pf.clear();
        if self.dram.total_flips() > 0 {
            self.apply_new_flips();
        }
        AccessOutcome {
            paddr,
            kind,
            level,
            advance,
            dram: dram_loc,
        }
    }

    fn dram_access(&mut self, spans: &mut Spans, paddr: u64) -> (Cycle, DramLocation) {
        let (dram, now) = (&mut self.dram, self.now);
        let d = spans.dram.time(|| dram.access(paddr, now));
        (d.latency, d.location)
    }

    /// `MemorySystem::clflush_at`.
    fn clflush_at(&mut self, spans: &mut Spans, paddr: u64, now: Cycle) {
        self.now = now.max(self.now);
        self.stats.clflushes = self.stats.clflushes.saturating_add(1);
        let hierarchy = &mut self.hierarchy;
        if let Some(dirty_line) = spans.cache_flush.time(|| hierarchy.clflush(paddr)) {
            self.dram_access(spans, dirty_line);
            self.apply_new_flips();
        }
    }

    /// `MemorySystem::refresh_bank`.
    fn refresh_bank(&mut self, spans: &mut Spans, bank: BankId, now: Cycle) {
        self.now = now.max(self.now);
        let (dram, now) = (&mut self.dram, self.now);
        spans.dram.time(|| dram.refresh_bank(bank, now));
    }

    fn apply_new_flips(&mut self) {
        for f in self.dram.drain_flips() {
            self.phys.flip_bit(f.paddr, f.flip.bit);
        }
    }
}

/// A `Platform` rebuilt from its layers, with every layer call traced.
pub struct TracedPlatform {
    mem: Memory,
    pmu: Pmu,
    detector: AnvilDetector,
    frames: FrameAllocator,
    cores: Vec<Core>,
    next_pid: u32,
    detections: Vec<(Cycle, LocalityReport, Vec<RowId>)>,
    refresh_log: Vec<(Cycle, RowId)>,
    scrub_slice: u64,
    last_compact: Cycle,
    /// Host time per layer.
    pub spans: Spans,
    /// Counts no layer exports.
    pub counts: Counts,
}

impl TracedPlatform {
    /// `Platform::new(PlatformConfig::with_anvil(anvil))`.
    pub fn new(anvil: AnvilConfig) -> Self {
        let config = MemoryConfig::paper_platform();
        let mut pmu = Pmu::new(anvil.sampling);
        let plan = FaultPlan::none();
        let root = FaultRng::new(plan.seed);
        pmu.set_fault_injector(plan.pebs_injector(root.fork(1)));
        pmu.set_counter_saturation(plan.counter.saturate_at);
        let mut dram = DramModule::new(config.dram);
        dram.set_refresh_postpone(plan.refresh_postpone());
        let detector = AnvilDetector::new(
            anvil,
            &config.clock,
            config.dram.timing.refresh_period,
            0,
            &mut pmu,
        );
        let phys = PhysicalMemory::new(config.dram.geometry.total_bytes());
        let frames = FrameAllocator::new(phys.capacity(), AllocationPolicy::Contiguous);
        TracedPlatform {
            mem: Memory {
                config,
                hierarchy: CacheHierarchy::new(config.hierarchy),
                dram,
                phys,
                now: 0,
                stats: MemStats::default(),
                wb: Vec::new(),
                pf: Vec::new(),
            },
            pmu,
            detector,
            frames,
            cores: Vec::new(),
            next_pid: 100,
            detections: Vec::new(),
            refresh_log: Vec::new(),
            scrub_slice: 0,
            last_compact: 0,
            spans: Spans::new(),
            counts: Counts::default(),
        }
    }

    fn now(&self) -> Cycle {
        self.cores
            .iter()
            .map(|c| c.local)
            .min()
            .unwrap_or(self.mem.now)
    }

    /// `Platform::add_workload`.
    pub fn add_workload(&mut self, workload: Box<dyn Workload>) -> Result<(), String> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut process = Process::new(pid, workload.name());
        let base_va = process
            .mmap(workload.arena_bytes(), &mut self.frames)
            .map_err(|e| format!("{e:?}"))?;
        let local = self.now();
        self.cores.push(Core {
            process,
            program: Program::Workload(workload),
            base_va,
            local,
            ops: 0,
        });
        Ok(())
    }

    /// `Platform::add_attack`. The attack prepares against a fresh
    /// `MemorySystem` of the same configuration: preparation only reads
    /// the address mapping and the cache geometry, and in `Platform` no
    /// op has run before the attack is added either.
    pub fn add_attack(&mut self, mut attack: Box<dyn Attack>) -> Result<(), AttackError> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut process = Process::new(pid, attack.name());
        let mut sys = MemorySystem::new(self.mem.config);
        let frames = &mut self.frames;
        self.spans.attack_prepare.time(|| {
            attack.prepare(&mut AttackEnv {
                sys: &mut sys,
                process: &mut process,
                frames,
                pagemap: PagemapPolicy::Open,
            })
        })?;
        let local = self.now();
        self.cores.push(Core {
            process,
            program: Program::Attack(attack),
            base_va: 0,
            local,
            ops: 0,
        });
        Ok(())
    }

    /// `Platform::run_ms`.
    pub fn run_ms(&mut self, ms: f64) -> Result<(), String> {
        let end = self.now() + self.mem.config.clock.ms_to_cycles(ms);
        if self.cores.is_empty() {
            return Err("no programs".into());
        }
        loop {
            let idx = self.min_core();
            if self.cores[idx].local >= end {
                return Ok(());
            }
            self.run_batch(idx, end)?;
            self.service_detector();
            self.maybe_compact();
        }
    }

    fn min_core(&self) -> usize {
        self.cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.local)
            .map_or(0, |(i, _)| i)
    }

    /// `Platform::run_batch`: stops at the first of its `BatchHorizons`
    /// (window boundary, refresh deadline, run end, scheduler yield).
    fn run_batch(&mut self, idx: usize, limit: Cycle) -> Result<(), String> {
        let mut yield_lo = Cycle::MAX;
        let mut yield_hi = Cycle::MAX;
        for (j, c) in self.cores.iter().enumerate() {
            if j < idx {
                yield_lo = yield_lo.min(c.local);
            } else if j > idx {
                yield_hi = yield_hi.min(c.local);
            }
        }
        let window = self.detector.deadline();
        let refresh = self
            .last_compact
            .saturating_add(self.mem.config.dram.timing.refresh_period);
        let mut ops = 0u64;
        loop {
            self.step_op(idx)?;
            ops += 1;
            let local = self.cores[idx].local;
            if local >= window
                || self.mem.now >= refresh
                || local >= limit
                || local >= yield_lo
                || local > yield_hi
                || ops >= BATCH_OPS
            {
                return Ok(());
            }
        }
    }

    /// `Platform::step_op`, one span per layer call.
    fn step_op(&mut self, idx: usize) -> Result<(), String> {
        let spans = &mut self.spans;
        let core = &mut self.cores[idx];
        let pid = core.process.pid();
        let unmapped = |vaddr: u64| format!("pid {pid}: unmapped access at {vaddr:#x}");
        let (vaddr, outcome) = match &mut core.program {
            Program::Workload(w) => {
                let op = spans.workload_op.time(|| w.next_op());
                let vaddr = core.base_va + op.offset;
                let t = core.local + op.compute_cycles;
                let process = &core.process;
                let paddr = spans
                    .translate
                    .time(|| process.translate(vaddr))
                    .ok_or_else(|| unmapped(vaddr))?;
                let o = self
                    .mem
                    .access_at(spans, &mut self.counts, paddr, op.kind, t);
                core.local = t + o.advance;
                (vaddr, Some(o))
            }
            Program::Attack(a) => match spans.attack_op.time(|| a.next_op()) {
                AttackOp::Access { vaddr, kind } => {
                    let process = &core.process;
                    let paddr = spans
                        .translate
                        .time(|| process.translate(vaddr))
                        .ok_or_else(|| unmapped(vaddr))?;
                    let o = self
                        .mem
                        .access_at(spans, &mut self.counts, paddr, kind, core.local);
                    core.local += o.advance;
                    (vaddr, Some(o))
                }
                AttackOp::Clflush { vaddr } => {
                    let process = &core.process;
                    let paddr = spans
                        .translate
                        .time(|| process.translate(vaddr))
                        .ok_or_else(|| unmapped(vaddr))?;
                    self.mem.clflush_at(spans, paddr, core.local);
                    core.local += self.mem.config.core.clflush_cost;
                    (vaddr, None)
                }
                AttackOp::Compute { cycles } => {
                    core.local += cycles;
                    (0, None)
                }
            },
        };
        core.ops += 1;

        if let Some(outcome) = outcome {
            let t = core.local;
            let pmu = &mut self.pmu;
            let op = RetiredOp {
                vaddr,
                pid,
                outcome,
            };
            let effect = spans.pmu.time(|| pmu.observe_at(&op, t));
            let costs = self.detector.config().costs;
            if effect.sampled {
                core.local += costs.sample;
            }
            if effect.interrupt.is_some() {
                core.local += costs.pmi;
            }
        }
        Ok(())
    }

    /// `Platform::service_detector` without injected faults.
    fn service_detector(&mut self) {
        let min_local = self.cores.iter().map(|c| c.local).min().unwrap_or(0);
        while self.detector.deadline() <= min_local {
            let now = self.detector.deadline();
            let mapping = *self.mem.dram.mapping();
            let (det, pmu, cores, slice) = (
                &mut self.detector,
                &mut self.pmu,
                &self.cores,
                self.scrub_slice,
            );
            let mut translate = |pid: u32, va: u64| {
                cores
                    .iter()
                    .find(|c| c.process.pid() == pid)
                    .and_then(|c| c.process.translate(va))
            };
            let outcome = self.spans.service.time(|| {
                det.scrub_state_slice(slice, SCRUB_SLICES);
                det.service(now, pmu, &mapping, &mut translate)
            });
            self.scrub_slice = (self.scrub_slice + 1) % SCRUB_SLICES;
            let costs = self.detector.config().costs;
            let victim = self.min_core();
            match outcome {
                ServiceOutcome::Quiet { cost, .. } | ServiceOutcome::Armed { cost, .. } => {
                    self.cores[victim].local += cost;
                }
                ServiceOutcome::Analyzed {
                    report,
                    refreshes,
                    cost,
                } => {
                    self.cores[victim].local += cost;
                    if report.detected() {
                        self.commit_detection(now, victim, costs.refresh_read, report, &refreshes);
                    }
                }
                ServiceOutcome::Degraded {
                    report,
                    refreshes,
                    banks,
                    cost,
                } => {
                    self.cores[victim].local += cost;
                    if report.detected() {
                        self.commit_detection(now, victim, costs.refresh_read, report, &refreshes);
                    }
                    for &bank in &banks {
                        self.mem.refresh_bank(&mut self.spans, bank, now);
                        self.cores[victim].local += costs.bank_refresh;
                    }
                }
            }
            self.detector.take_state_corruptions();
        }
    }

    /// `Platform::commit_detection` under the refresh-only response.
    fn commit_detection(
        &mut self,
        now: Cycle,
        victim: usize,
        refresh_read: Cycle,
        report: LocalityReport,
        refreshes: &[(RowId, u64)],
    ) {
        let mut refreshed = Vec::new();
        for &(row, paddr) in refreshes {
            self.mem.clflush_at(&mut self.spans, paddr, now);
            self.mem.access_at(
                &mut self.spans,
                &mut self.counts,
                paddr,
                AccessKind::Read,
                now,
            );
            self.cores[victim].local += refresh_read;
            self.refresh_log.push((now, row));
            refreshed.push(row);
        }
        self.detections.push((now, report, refreshed));
    }

    /// `Platform::maybe_compact`.
    fn maybe_compact(&mut self) {
        let period = self.mem.config.dram.timing.refresh_period;
        if self.mem.now.saturating_sub(self.last_compact) >= period {
            self.mem.dram.compact();
            self.last_compact = self.mem.now;
        }
    }

    /// The simulated counters, in the form the untraced run reports them.
    pub fn counters(&self) -> SimCounters {
        SimCounters {
            cores: self.cores.iter().map(|c| (c.ops, c.local)).collect(),
            mem: self.mem.stats,
            caches: self.mem.hierarchy.stats(),
            dram: *self.mem.dram.stats(),
            detector: *self.detector.stats(),
            detections: self.detections.clone(),
            refresh_log: self.refresh_log.clone(),
            flips: self.mem.dram.total_flips(),
            pmu_samples: self.pmu.samples_taken(),
            pmu_interrupts: self.pmu.interrupts_raised(),
        }
    }
}
