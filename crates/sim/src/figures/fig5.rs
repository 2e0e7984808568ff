//! Fig. 5 — normalised wall-clock latency per workload and system.
//!
//! Four panels: INT8, FP16, INT32, and INT32 with the NSB enabled. Within a
//! workload every bar is normalised to the in-order no-prefetch (InO) run of
//! the same width without NSB; each bar splits into base execution time and
//! cache-miss stall.

use std::fmt;

use nvr_common::DataWidth;
use nvr_core::nsb_config;
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, TileOrder, WorkloadId};

use crate::report::{fmt3, Table};
use crate::runner::SystemKind;
use crate::sweep::{run_sweep, SweepSpec};

/// One bar of one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Workload short name.
    pub workload: &'static str,
    /// System label.
    pub system: &'static str,
    /// Operand width.
    pub width: DataWidth,
    /// Whether the NSB panel produced this bar.
    pub nsb: bool,
    /// Normalised total latency (InO same width, no NSB = 1.0).
    pub norm_total: f64,
    /// Normalised base-execution segment.
    pub norm_base: f64,
    /// Normalised miss-stall segment.
    pub norm_stall: f64,
}

/// The full Fig. 5 data set.
#[derive(Debug, Clone, Default)]
pub struct Fig5 {
    /// All bars across panels.
    pub bars: Vec<Bar>,
}

impl Fig5 {
    /// Bars of one panel.
    #[must_use]
    pub fn panel(&self, width: DataWidth, nsb: bool) -> Vec<&Bar> {
        self.bars
            .iter()
            .filter(|b| b.width == width && b.nsb == nsb)
            .collect()
    }

    /// Average stall reduction of NVR relative to InO within a panel
    /// (the paper reports 98.3% / 99.2% / 97.3% for INT8/FP16/INT32).
    #[must_use]
    pub fn nvr_stall_reduction(&self, width: DataWidth, nsb: bool) -> f64 {
        let panel = self.panel(width, nsb);
        let mut reductions = Vec::new();
        for w in WorkloadId::ALL {
            let ino = panel
                .iter()
                .find(|b| b.workload == w.short() && b.system == "InO");
            let nvr = panel
                .iter()
                .find(|b| b.workload == w.short() && b.system == "NVR");
            if let (Some(i), Some(n)) = (ino, nvr) {
                if i.norm_stall > 0.0 {
                    reductions.push(1.0 - n.norm_stall / i.norm_stall);
                }
            }
        }
        if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        }
    }
}

/// Runs one panel as a sweep over `jobs` workers.
fn run_panel(
    scale: Scale,
    seed: u64,
    width: DataWidth,
    nsb: bool,
    jobs: usize,
    bars: &mut Vec<Bar>,
) {
    let mem_cfg = if nsb {
        MemoryConfig::default().with_nsb(nsb_config(16))
    } else {
        MemoryConfig::default()
    };
    let panel = run_sweep(
        &SweepSpec {
            scales: vec![scale],
            widths: vec![width],
            seeds: vec![seed],
            mem_cfg,
            ..SweepSpec::default()
        },
        jobs,
    );
    // The normalisation denominator: InO, same width, no NSB. For the NSB
    // panel that baseline is not in the panel's own grid, so run it as a
    // second (InO-only) sweep.
    let plain_ino;
    let denom_sweep = if nsb {
        plain_ino = run_sweep(
            &SweepSpec {
                systems: vec![SystemKind::InOrder],
                scales: vec![scale],
                widths: vec![width],
                seeds: vec![seed],
                ..SweepSpec::default()
            },
            jobs,
        );
        &plain_ino
    } else {
        &panel
    };
    for w in WorkloadId::ALL {
        let denom = denom_sweep
            .get(
                w,
                SystemKind::InOrder,
                scale,
                TileOrder::Natural,
                width,
                seed,
            )
            .expect("InO baseline in sweep")
            .outcome
            .result
            .total_cycles;
        for system in SystemKind::ALL {
            let o = &panel
                .get(w, system, scale, TileOrder::Natural, width, seed)
                .expect("sweep covers the full grid")
                .outcome;
            bars.push(Bar {
                workload: w.short(),
                system: system.label(),
                width,
                nsb,
                norm_total: o.normalised_total(denom),
                norm_base: o.base_cycles as f64 / denom.max(1) as f64,
                norm_stall: o.normalised_stall(denom),
            });
        }
    }
}

/// Runs all four panels on `jobs` workers.
#[must_use]
pub fn run_jobs(scale: Scale, seed: u64, jobs: usize) -> Fig5 {
    let mut bars = Vec::new();
    for width in DataWidth::ALL {
        run_panel(scale, seed, width, false, jobs, &mut bars);
    }
    run_panel(scale, seed, DataWidth::Int32, true, jobs, &mut bars);
    Fig5 { bars }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (width, nsb) in [
            (DataWidth::Int8, false),
            (DataWidth::Fp16, false),
            (DataWidth::Int32, false),
            (DataWidth::Int32, true),
        ] {
            let suffix = if nsb { "+NSB" } else { "" };
            writeln!(
                f,
                "Fig. 5 panel — {width}{suffix} (normalised to InO, lower is better)"
            )?;
            let mut t = Table::new(vec![
                "workload".into(),
                "system".into(),
                "total".into(),
                "base".into(),
                "stall".into(),
            ]);
            for b in self.panel(width, nsb) {
                t.row(vec![
                    b.workload.into(),
                    b.system.into(),
                    fmt3(b.norm_total),
                    fmt3(b.norm_base),
                    fmt3(b.norm_stall),
                ]);
            }
            writeln!(f, "{t}")?;
            writeln!(
                f,
                "NVR average stall reduction vs InO: {:.1}%",
                100.0 * self.nvr_stall_reduction(width, nsb)
            )?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-panel smoke test at tiny scale (the full figure is exercised by
    /// the bench harness).
    #[test]
    fn int8_panel_shape_holds() {
        let mut bars = Vec::new();
        run_panel(Scale::Tiny, 11, DataWidth::Int8, false, 2, &mut bars);
        let fig = Fig5 { bars };
        let panel = fig.panel(DataWidth::Int8, false);
        assert_eq!(panel.len(), 8 * 7);
        for w in WorkloadId::ALL {
            let get = |sys: &str| {
                panel
                    .iter()
                    .find(|b| b.workload == w.short() && b.system == sys)
                    .copied()
                    .expect("bar present")
            };
            let ino = get("InO");
            let nvr = get("NVR");
            assert!((ino.norm_total - 1.0).abs() < 1e-9, "InO normalises to 1");
            assert!(
                nvr.norm_total <= ino.norm_total + 1e-9,
                "{}: NVR {} vs InO {}",
                w.short(),
                nvr.norm_total,
                ino.norm_total
            );
        }
        let red = fig.nvr_stall_reduction(DataWidth::Int8, false);
        assert!(red > 0.5, "NVR should remove most stall ({red})");
    }
}
