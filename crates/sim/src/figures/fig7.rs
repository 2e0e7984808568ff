//! Fig. 7 — normalised bandwidth allocation with and without the NSB.
//!
//! Where the bytes flow: NPU↔L2 demand traffic, prefetch fills, dense DMA
//! streams and stores, and what fraction of it reaches DRAM. The paper's
//! sankey shows ~75% off-chip reduction vs InO in both configurations, with
//! the NSB absorbing most NPU-side reads.

use std::fmt;

use nvr_common::{DataWidth, LINE_BYTES};
use nvr_core::nsb_config;
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, TileOrder, WorkloadId};

use crate::report::{fmt3, Table};
use crate::runner::SystemKind;
use crate::sweep::{run_sweep, SweepResults, SweepSpec};

/// Byte flows of one configuration, aggregated over workloads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Flows {
    /// Configuration label.
    pub label: String,
    /// Demand bytes served to the NPU from the hierarchy.
    pub npu_read_bytes: u64,
    /// Bytes served by the NSB (0 without one).
    pub nsb_served_bytes: u64,
    /// Demand bytes that reached DRAM.
    pub offchip_demand_bytes: u64,
    /// Prefetch bytes that reached DRAM.
    pub offchip_prefetch_bytes: u64,
    /// Dense DMA + store bytes over the channel.
    pub offchip_stream_bytes: u64,
}

impl Flows {
    /// Total bytes crossing the off-chip channel.
    #[must_use]
    pub fn offchip_total(&self) -> u64 {
        self.offchip_demand_bytes + self.offchip_prefetch_bytes + self.offchip_stream_bytes
    }
}

/// The Fig. 7 data set.
#[derive(Debug, Clone, Default)]
pub struct Fig7 {
    /// InO baseline, NVR, and NVR+NSB flows.
    pub flows: Vec<Flows>,
}

impl Fig7 {
    /// Off-chip *demand* reduction of configuration `label` vs InO.
    #[must_use]
    pub fn offchip_demand_reduction(&self, label: &str) -> f64 {
        let find = |l: &str| {
            self.flows
                .iter()
                .find(|x| x.label == l)
                .map_or(0, |x| x.offchip_demand_bytes)
        };
        find("InO") as f64 / find(label).max(1) as f64
    }
}

/// Aggregates one configuration's byte flows from its sweep cells.
fn collect(
    label: &str,
    results: &SweepResults,
    system: SystemKind,
    scale: Scale,
    seed: u64,
) -> Flows {
    let mut fl = Flows {
        label: label.to_owned(),
        ..Flows::default()
    };
    for w in WorkloadId::ALL {
        let o = &results
            .get(w, system, scale, TileOrder::Natural, DataWidth::Fp16, seed)
            .expect("sweep covers the full grid")
            .outcome;
        let m = &o.result.mem;
        fl.npu_read_bytes += m.l2.demand_accesses() * LINE_BYTES
            + m.nsb
                .as_ref()
                .map_or(0, |n| n.demand_hits.get() * LINE_BYTES);
        fl.nsb_served_bytes += m
            .nsb
            .as_ref()
            .map_or(0, |n| n.demand_hits.get() * LINE_BYTES);
        fl.offchip_demand_bytes += m.dram.demand_lines.get() * LINE_BYTES;
        fl.offchip_prefetch_bytes += m.dram.prefetch_lines.get() * LINE_BYTES;
        fl.offchip_stream_bytes += m.dram.dma_bytes.get() + m.dram.write_bytes.get();
    }
    fl
}

/// Runs the three configurations over all workloads on `jobs` workers.
#[must_use]
pub fn run_jobs(scale: Scale, seed: u64, jobs: usize) -> Fig7 {
    let base = SweepSpec {
        systems: vec![SystemKind::InOrder, SystemKind::Nvr],
        scales: vec![scale],
        widths: vec![DataWidth::Fp16],
        seeds: vec![seed],
        ..SweepSpec::default()
    };
    let plain = run_sweep(&base, jobs);
    let with_nsb = run_sweep(
        &SweepSpec {
            systems: vec![SystemKind::Nvr],
            mem_cfg: MemoryConfig::default().with_nsb(nsb_config(16)),
            ..base
        },
        jobs,
    );
    Fig7 {
        flows: vec![
            collect("InO", &plain, SystemKind::InOrder, scale, seed),
            collect("NVR", &plain, SystemKind::Nvr, scale, seed),
            collect("NVR+NSB", &with_nsb, SystemKind::Nvr, scale, seed),
        ],
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7 — bandwidth allocation (bytes, all workloads)")?;
        let mut t = Table::new(vec![
            "config".into(),
            "NPU reads".into(),
            "NSB served".into(),
            "DRAM demand".into(),
            "DRAM prefetch".into(),
            "DRAM stream".into(),
            "DRAM total".into(),
        ]);
        for fl in &self.flows {
            t.row(vec![
                fl.label.clone(),
                fl.npu_read_bytes.to_string(),
                fl.nsb_served_bytes.to_string(),
                fl.offchip_demand_bytes.to_string(),
                fl.offchip_prefetch_bytes.to_string(),
                fl.offchip_stream_bytes.to_string(),
                fl.offchip_total().to_string(),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "off-chip demand reduction: NVR {}x, NVR+NSB {}x vs InO",
            fmt3(self.offchip_demand_reduction("NVR")),
            fmt3(self.offchip_demand_reduction("NVR+NSB")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvr_shifts_traffic_from_demand_to_prefetch() {
        let fig = run_jobs(Scale::Tiny, 7, 2);
        let find = |label: &str| {
            fig.flows
                .iter()
                .find(|fl| fl.label == label)
                .expect("config present")
        };
        let ino = find("InO");
        let nvr = find("NVR");
        assert!(nvr.offchip_demand_bytes * 2 < ino.offchip_demand_bytes);
        assert!(nvr.offchip_prefetch_bytes > 0);
        assert_eq!(ino.offchip_prefetch_bytes, 0);
    }
}
