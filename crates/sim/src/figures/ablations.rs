//! Ablations of NVR's design choices: NSB associativity (§IV-G argues
//! for a high-way mapping), LBD on/off, trigger policy, VMIG width, fuzzy
//! factor and lookahead budget.
//!
//! Every variant is compared against the in-order no-prefetch baseline of
//! the same program.

use std::fmt;

use nvr_common::DataWidth;
use nvr_core::{nsb_scored, NvrConfig, NvrPrefetcher, TriggerPolicy};
use nvr_mem::{MemoryConfig, MemorySystem};
use nvr_npu::{NpuConfig, NpuEngine};
use nvr_prefetch::NullPrefetcher;
use nvr_workloads::{Scale, TileOrder, WorkloadId, WorkloadSpec};

use crate::sweep::run_batch;

/// One NSB associativity point: H2O under NVR+NSB with a 16 KB NSB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsbWays {
    /// NSB associativity.
    pub ways: u64,
    /// Total cycles of the NVR+NSB run.
    pub cycles: u64,
    /// NSB demand hit rate, as a fraction.
    pub nsb_hit_rate: f64,
    /// NSB evictions.
    pub nsb_evictions: u64,
}

/// One NVR configuration variant on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// Variant label.
    pub label: &'static str,
    /// Workload the variant ran on.
    pub workload: WorkloadId,
    /// Total cycles of the NVR run.
    pub cycles: u64,
    /// Speedup over the in-order no-prefetch run of the same program.
    pub speedup: f64,
    /// Prefetch accuracy, as a fraction.
    pub accuracy: f64,
    /// Mean number of lanes packed per VMIG vector.
    pub pack_width: f64,
}

/// The ablation data set.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// The NSB associativity sweep, in increasing ways.
    pub nsb_ways: Vec<NsbWays>,
    /// Every NVR variant, grouped by workload.
    pub variants: Vec<Variant>,
}

/// NSB associativities swept at fixed capacity.
const NSB_WAYS: [u64; 5] = [1, 2, 4, 8, 16];

/// Workloads the NVR variants run on.
const WORKLOADS: [WorkloadId; 3] = [WorkloadId::Ds, WorkloadId::Gat, WorkloadId::Mk];

/// An edit of [`NvrConfig::default`].
type Edit = fn(&mut NvrConfig);

/// The NVR variants, in print order.
const VARIANTS: [(&str, Edit); 9] = [
    ("default", |_| {}),
    ("no LBD (fixed windows)", |c| c.use_lbd = false),
    ("stall-triggered (DVR-style)", |c| {
        c.trigger = TriggerPolicy::OnStall
    }),
    ("VMIG width 4", |c| c.vector_width = 4),
    ("VMIG width 8", |c| c.vector_width = 8),
    ("VMIG width 32", |c| c.vector_width = 32),
    ("no fuzzy range (factor 1.0)", |c| c.fuzzy_factor = 1.0),
    ("shallow lookahead (128 ln)", |c| c.lookahead_lines = 128),
    ("deep lookahead (2048 ln)", |c| c.lookahead_lines = 2048),
];

/// Runs the NSB associativity sweep and every NVR variant on `jobs`
/// workers. Each NSB point and each workload's variant set is one
/// independent sweep job.
#[must_use]
pub fn run_jobs(scale: Scale, seed: u64, jobs: usize) -> Ablations {
    let spec = WorkloadSpec {
        width: DataWidth::Fp16,
        seed,
        scale,
        order: TileOrder::Natural,
    };
    let nsb_tasks: Vec<_> = NSB_WAYS
        .iter()
        .map(|&ways| {
            move || {
                let program = WorkloadId::H2o.build(&spec);
                let nsb = nsb_scored(16).with_ways(ways);
                let mut mem = MemorySystem::new(MemoryConfig::default().with_nsb(nsb));
                let mut nvr = NvrPrefetcher::new(NvrConfig::with_nsb());
                let r = NpuEngine::new(NpuConfig::default()).run(&program, &mut mem, &mut nvr);
                let nsb = mem.stats().nsb.expect("NSB configured above");
                NsbWays {
                    ways,
                    cycles: r.total_cycles,
                    nsb_hit_rate: 1.0 - nsb.miss_rate(),
                    nsb_evictions: nsb.evictions.get(),
                }
            }
        })
        .collect();
    let variant_tasks: Vec<_> = WORKLOADS
        .iter()
        .map(|&workload| {
            move || {
                let program = workload.build(&spec);
                let engine = NpuEngine::new(NpuConfig::default());
                let mut mem_base = MemorySystem::new(MemoryConfig::default());
                let base = engine.run(&program, &mut mem_base, &mut NullPrefetcher::new());
                VARIANTS
                    .into_iter()
                    .map(|(label, edit)| {
                        let mut cfg = NvrConfig::default();
                        edit(&mut cfg);
                        let mut mem = MemorySystem::new(MemoryConfig::default());
                        let mut nvr = NvrPrefetcher::new(cfg);
                        let r = engine.run(&program, &mut mem, &mut nvr);
                        Variant {
                            label,
                            workload,
                            cycles: r.total_cycles,
                            speedup: base.total_cycles as f64 / r.total_cycles as f64,
                            accuracy: mem.prefetch_accuracy(),
                            pack_width: nvr.vmig().mean_pack_width(),
                        }
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    Ablations {
        nsb_ways: run_batch(nsb_tasks, jobs),
        variants: run_batch(variant_tasks, jobs)
            .into_iter()
            .flatten()
            .collect(),
    }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NVR design ablations (vs in-order no-prefetch baseline)\n"
        )?;
        writeln!(f, "NSB associativity ablation (16 KB NSB, H2O, NVR+NSB)\n")?;
        for p in &self.nsb_ways {
            writeln!(
                f,
                "  {:>2}-way: {:>9} cycles, NSB hit rate {:>5.1}%, NSB evictions {}",
                p.ways,
                p.cycles,
                100.0 * p.nsb_hit_rate,
                p.nsb_evictions,
            )?;
        }
        let mut prev = None;
        for v in &self.variants {
            if prev != Some(v.workload) {
                writeln!(f)?;
                prev = Some(v.workload);
            }
            writeln!(
                f,
                "{:>28} on {:>5}: {:>10} cycles, speedup {:>5.2}x, accuracy {:.2}, pack {:.1}",
                v.label,
                v.workload.short(),
                v.cycles,
                v.speedup,
                v.accuracy,
                v.pack_width,
            )?;
        }
        Ok(())
    }
}
