//! The outside-in traced pass: the same grid as `run_sweep`, rebuilt from
//! the crates' public items with a clock around each call into a layer.
//!
//! `SystemKind`'s prefetcher construction is private to `nvr_sim`, so
//! [`prefetcher_for`] rebuilds it for the benchmark's memory configuration
//! (default, no NSB, no admission override); every traced cell is compared
//! with the untraced `run_system` cell, which catches any drift.

use std::time::{Duration, Instant};

use nvr_common::Cycle;
use nvr_core::{NvrConfig, NvrPrefetcher};
use nvr_mem::{MemoryConfig, MemorySystem};
use nvr_npu::{NpuConfig, NpuEngine};
use nvr_prefetch::{
    DvrPrefetcher, ImpPrefetcher, NullPrefetcher, Prefetcher, StreamPrefetcher, TimelinessReport,
};
use nvr_sim::{RunOutcome, SweepSpec, SystemKind};
use nvr_trace::{AccessEvent, MemoryImage, NpuProgram, SnoopState};
use nvr_workloads::{WorkloadId, WorkloadSpec};

/// One `observe` call in this many is timed and its time scaled up by the
/// same factor. Every call is counted; timing each one would cost two
/// clock reads per demand access, a large share of a cheap `observe`. The
/// stride is prime so it does not lock onto the 16-element gather batches.
pub const OBSERVE_SAMPLE_STRIDE: u64 = 61;

/// Calls into one prefetcher family and the time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchTime {
    pub observe_calls: u64,
    /// Summed time of the sampled `observe` calls (unscaled).
    pub observe_sampled: Duration,
    pub advance_calls: u64,
    /// Summed `to - from` of the granted windows.
    pub advance_cycles: u64,
    pub advance: Duration,
}

impl PrefetchTime {
    /// Estimated total `observe` time, in seconds.
    pub fn observe_s(&self) -> f64 {
        self.observe_sampled.as_secs_f64() * OBSERVE_SAMPLE_STRIDE as f64
    }

    /// Estimated total time inside the prefetcher, in seconds.
    pub fn total_s(&self) -> f64 {
        self.observe_s() + self.advance.as_secs_f64()
    }
}

/// The per-layer times and counts of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `WorkloadId::build` time, indexed like `WorkloadId::ALL`.
    pub build_s: [f64; 8],
    pub ideal_runs: u64,
    pub ideal_run_s: f64,
    /// The NVR controller (`core`): NVR and NVR+NSB cells.
    pub core: PrefetchTime,
    /// The baseline prefetchers (`prefetch`): Stream, IMP and DVR cells.
    pub baseline: PrefetchTime,
    /// `NpuEngine::run` time minus the wrapped prefetcher's time.
    pub demand_path_s: f64,
    /// Wall time of the whole traced pass.
    pub wall_s: f64,
}

/// Delegates to `inner`, counting every call and timing the chosen ones.
struct Timed<'a> {
    inner: &'a mut dyn Prefetcher,
    time: &'a mut PrefetchTime,
}

impl Prefetcher for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        self.time.observe_calls += 1;
        if self
            .time
            .observe_calls
            .is_multiple_of(OBSERVE_SAMPLE_STRIDE)
        {
            let t0 = Instant::now();
            self.inner.observe(event, snoop, image, mem);
            self.time.observe_sampled += t0.elapsed();
        } else {
            self.inner.observe(event, snoop, image, mem);
        }
    }

    fn advance(
        &mut self,
        from: Cycle,
        to: Cycle,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        self.time.advance_calls += 1;
        self.time.advance_cycles += to.saturating_sub(from);
        let t0 = Instant::now();
        self.inner.advance(from, to, snoop, image, mem);
        self.time.advance += t0.elapsed();
    }

    fn fills_nsb(&self) -> bool {
        self.inner.fills_nsb()
    }

    fn finalize_run(&mut self, mem: &mut MemorySystem) {
        self.inner.finalize_run(mem);
    }

    fn timeliness(&self) -> Option<TimelinessReport> {
        self.inner.timeliness()
    }
}

/// The engine configuration `system` runs with.
fn npu_config(system: SystemKind) -> NpuConfig {
    match system {
        SystemKind::OutOfOrder => NpuConfig::out_of_order(),
        SystemKind::InOrder
        | SystemKind::Stream
        | SystemKind::Imp
        | SystemKind::Dvr
        | SystemKind::Nvr
        | SystemKind::NvrNsb => NpuConfig::default(),
    }
}

/// The prefetcher `system` runs with against a memory configuration
/// without an NSB and with no admission override.
fn prefetcher_for(system: SystemKind) -> Box<dyn Prefetcher> {
    match system {
        SystemKind::InOrder | SystemKind::OutOfOrder => Box::new(NullPrefetcher::new()),
        SystemKind::Stream => Box::new(StreamPrefetcher::default()),
        SystemKind::Imp => Box::new(ImpPrefetcher::default()),
        SystemKind::Dvr => Box::new(DvrPrefetcher::default()),
        SystemKind::Nvr => Box::new(NvrPrefetcher::new(NvrConfig::default())),
        SystemKind::NvrNsb => Box::new(NvrPrefetcher::new(NvrConfig::with_nsb())),
    }
}

/// Runs one cell like `run_system`, with spans around the timed run and
/// the paired ideal run.
fn traced_cell(program: &NpuProgram, system: SystemKind, layers: &mut LayerTimes) -> RunOutcome {
    let engine = NpuEngine::new(npu_config(system));
    let mem_cfg = system.effective_mem_cfg(&MemoryConfig::default());
    let mut mem = MemorySystem::new(mem_cfg.clone());
    let mut prefetcher = prefetcher_for(system);
    let family = match system {
        SystemKind::InOrder | SystemKind::OutOfOrder => None,
        SystemKind::Stream | SystemKind::Imp | SystemKind::Dvr => Some(&mut layers.baseline),
        SystemKind::Nvr | SystemKind::NvrNsb => Some(&mut layers.core),
    };
    let t0 = Instant::now();
    let (result, prefetch_s) = match family {
        None => (engine.run(program, &mut mem, prefetcher.as_mut()), 0.0),
        Some(time) => {
            let before = time.total_s();
            let mut timed = Timed {
                inner: prefetcher.as_mut(),
                time,
            };
            let result = engine.run(program, &mut mem, &mut timed);
            (result, timed.time.total_s() - before)
        }
    };
    layers.demand_path_s += t0.elapsed().as_secs_f64() - prefetch_s;
    prefetcher.finalize_run(&mut mem);
    let timeliness = prefetcher.timeliness();

    let t1 = Instant::now();
    let mut ideal = MemorySystem::ideal(mem_cfg);
    let base = engine.run(program, &mut ideal, &mut NullPrefetcher::new());
    layers.ideal_run_s += t1.elapsed().as_secs_f64();
    layers.ideal_runs += 1;

    RunOutcome {
        system,
        result,
        base_cycles: base.total_cycles,
        timeliness,
    }
}

/// Runs every cell of `spec` in `spec.jobs()` order and returns the
/// outcomes with the pass's layer times. Like `run_sweep`, it builds each
/// program once and shares it across the system axis; `spec` must have a
/// single scale, order, width and seed.
pub fn traced_pass(spec: &SweepSpec) -> (Vec<RunOutcome>, LayerTimes) {
    let t0 = Instant::now();
    let mut layers = LayerTimes::default();
    let mut outcomes = Vec::new();
    let mut program: Option<(WorkloadId, NpuProgram)> = None;
    for job in spec.jobs() {
        if program.as_ref().map(|p| p.0) != Some(job.workload) {
            let t = Instant::now();
            let built = job.workload.build(&WorkloadSpec {
                width: job.width,
                seed: job.seed,
                scale: job.scale,
                order: job.order,
            });
            let slot = WorkloadId::ALL
                .iter()
                .position(|&w| w == job.workload)
                .expect("every workload is in WorkloadId::ALL");
            layers.build_s[slot] += t.elapsed().as_secs_f64();
            program = Some((job.workload, built));
        }
        let (_, p) = program.as_ref().expect("built above");
        outcomes.push(traced_cell(p, job.system, &mut layers));
    }
    layers.wall_s = t0.elapsed().as_secs_f64();
    (outcomes, layers)
}
