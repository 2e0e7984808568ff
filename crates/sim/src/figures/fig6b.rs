//! Fig. 6b′ — prefetch *timeliness* breakdown (companion to Fig. 6).
//!
//! Fig. 6's accuracy/coverage panels say how much of the miss stream NVR
//! covers; this driver says how much of that coverage arrived *on time*.
//! For every workload it runs three NVR variants — a `lookahead_tiles =
//! 1` configuration that degenerates to the old one-window-at-a-time
//! episode loop, the pipelined cross-tile lookahead at the default depth
//! ([`nvr_core::NvrConfig::lookahead_tiles`]), and the pipelined engine
//! filling the paper's NSB (the NVR+NSB system) — and reports the
//! measured per-prefetch outcomes from the lifetime log: timely / late /
//! evicted-unused counts, the issue→first-use slack distribution
//! (cycles between a prefetch entering the cache and its first demand
//! touch), and the mean DRAM-channel queue delay (how much of the
//! lateness is arbitration rather than prediction distance). "Late"
//! prefetches are the paper's residual-stall culprit on GCN/GSA-BT-class
//! workloads: the line was predicted correctly but the demand arrived
//! mid-fill.

use std::fmt;

use nvr_common::DataWidth;
use nvr_core::{nsb_config, NvrConfig, NvrPrefetcher};
use nvr_mem::{MemoryConfig, MemorySystem};
use nvr_npu::{NpuConfig, NpuEngine};
use nvr_prefetch::{NullPrefetcher, Prefetcher, TimelinessReport};
use nvr_workloads::{Scale, TileOrder, WorkloadId, WorkloadSpec};

use crate::report::{fmt3, Table};
use crate::sweep::run_batch;

/// Timeliness of one (workload, lookahead-variant) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinessCell {
    /// Workload short name.
    pub workload: &'static str,
    /// Variant label ("pipelined" or "single-window").
    pub variant: &'static str,
    /// Lookahead depth the variant ran with.
    pub depth: usize,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Speedup over the no-prefetch in-order baseline.
    pub speedup: f64,
    /// L2 `prefetch_late` counter (aggregate view of the same events).
    pub prefetch_late: u64,
    /// Measured per-prefetch outcomes.
    pub timeliness: TimelinessReport,
}

/// The Fig. 6b′ data set.
#[derive(Debug, Clone, Default)]
pub struct Fig6b {
    /// Three cells (single-window, pipelined, pipelined+NSB) per workload.
    pub cells: Vec<TimelinessCell>,
}

impl Fig6b {
    /// The cell of one (workload, variant) pair.
    #[must_use]
    pub fn get(&self, workload: &str, variant: &str) -> Option<&TimelinessCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.variant == variant)
    }
}

/// The compared variants: the pre-pipelining single-window episode loop,
/// the pipelined cross-tile default, and the pipelined engine filling the
/// paper's 16 KB NSB (§IV-G) — the NVR+NSB system's timeliness bar.
fn variants() -> [(&'static str, NvrConfig, MemoryConfig); 3] {
    let single = NvrConfig {
        lookahead_tiles: 1,
        ..NvrConfig::default()
    };
    [
        ("single-window", single, MemoryConfig::default()),
        ("pipelined", NvrConfig::default(), MemoryConfig::default()),
        (
            "pipelined+NSB",
            NvrConfig::with_nsb(),
            MemoryConfig::default().with_nsb(nsb_config(16)),
        ),
    ]
}

/// Runs the timeliness comparison over every workload on `jobs` workers.
#[must_use]
pub fn run_jobs(scale: Scale, seed: u64, jobs: usize) -> Fig6b {
    run_jobs_with_workloads(scale, seed, jobs, &WorkloadId::ALL)
}

/// Runs with a workload subset (tests use fewer) on `jobs` workers.
#[must_use]
pub fn run_jobs_with_workloads(
    scale: Scale,
    seed: u64,
    jobs: usize,
    workloads: &[WorkloadId],
) -> Fig6b {
    let mut tasks: Vec<Box<dyn FnOnce() -> Vec<TimelinessCell> + Send>> = Vec::new();
    for &w in workloads {
        tasks.push(Box::new(move || {
            let spec = WorkloadSpec {
                width: DataWidth::Fp16,
                seed,
                scale,
                order: TileOrder::Natural,
            };
            let program = w.build(&spec);
            let engine = NpuEngine::new(NpuConfig::default());
            let mut mem_base = MemorySystem::new(MemoryConfig::default());
            let base = engine.run(&program, &mut mem_base, &mut NullPrefetcher::new());
            variants()
                .into_iter()
                .map(|(variant, cfg, mem_cfg)| {
                    let depth = cfg.lookahead_tiles;
                    let mut mem = MemorySystem::new(mem_cfg);
                    let mut nvr = NvrPrefetcher::new(cfg);
                    let r = engine.run(&program, &mut mem, &mut nvr);
                    nvr.finalize_run(&mut mem);
                    TimelinessCell {
                        workload: w.short(),
                        variant,
                        depth,
                        cycles: r.total_cycles,
                        speedup: base.total_cycles as f64 / r.total_cycles.max(1) as f64,
                        prefetch_late: r.mem.l2.prefetch_late.get(),
                        timeliness: nvr.timeliness().unwrap_or_default(),
                    }
                })
                .collect()
        }));
    }
    Fig6b {
        cells: run_batch(tasks, jobs).into_iter().flatten().collect(),
    }
}

impl fmt::Display for Fig6b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6b' — prefetch timeliness: single-window episode loop vs \
             pipelined cross-tile lookahead"
        )?;
        let mut t = Table::new(vec![
            "workload".into(),
            "variant".into(),
            "depth".into(),
            "speedup".into(),
            "timely".into(),
            "late".into(),
            "evicted".into(),
            "late frac".into(),
            "slack mean".into(),
            "qd mean".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.workload.into(),
                c.variant.into(),
                c.depth.to_string(),
                format!("{}x", fmt3(c.speedup)),
                c.timeliness.timely.to_string(),
                c.timeliness.late.to_string(),
                c.timeliness.evicted_unused.to_string(),
                fmt3(c.timeliness.late_fraction()),
                format!("{:.0}", c.timeliness.slack.mean()),
                format!("{:.0}", c.timeliness.queue_delay.mean()),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "issue→use slack distribution (cycles, pipelined NVR):")?;
        for c in self.cells.iter().filter(|c| c.variant == "pipelined") {
            write!(f, "  {:>6}:", c.workload)?;
            for (lo, hi, n) in c.timeliness.slack.nonzero_buckets() {
                write!(f, " [{lo},{hi}):{n}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeliness_cells_have_measured_outcomes() {
        let fig = run_jobs_with_workloads(Scale::Tiny, 3, 1, &[WorkloadId::Ds]);
        assert_eq!(fig.cells.len(), 3);
        for c in &fig.cells {
            assert!(
                c.timeliness.used() > 0,
                "{}/{}: no used prefetches measured",
                c.workload,
                c.variant
            );
            assert!(c.timeliness.slack.count() == c.timeliness.used());
        }
    }

    #[test]
    fn rendition_includes_slack_histogram() {
        let fig = run_jobs_with_workloads(Scale::Tiny, 3, 2, &[WorkloadId::Ds]);
        let text = fig.to_string();
        assert!(text.contains("slack"));
        assert!(text.contains("pipelined"));
    }
}
