//! Comparable single runs of one program under one system configuration.

use nvr_common::Cycle;
use nvr_core::{nsb_scored, NvrConfig, NvrPrefetcher};
use nvr_mem::{MemoryConfig, MemorySystem};
use nvr_npu::{NpuConfig, NpuEngine, RunResult};
use nvr_prefetch::{
    DvrPrefetcher, ImpPrefetcher, NullPrefetcher, Prefetcher, StreamPrefetcher, TimelinessReport,
};
use nvr_trace::NpuProgram;

nvr_common::registry! {
    /// The compared systems: the six of Fig. 5 (§V-A "Comparison") plus the
    /// paper's own NSB-backed configuration (§IV-G) as a first-class seventh
    /// system.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SystemKind {
        /// In-order Gemmini, no prefetching.
        InOrder,
        /// Ideal out-of-order Gemmini, no prefetching.
        OutOfOrder,
        /// In-order + adaptive stream prefetcher.
        Stream,
        /// In-order + Indirect Memory Prefetcher.
        Imp,
        /// In-order + Decoupled Vector Runahead.
        Dvr,
        /// In-order + NPU Vector Runahead (the paper's contribution).
        Nvr,
        /// In-order + NVR filling a 16 KB NSB in front of the L2 (§IV-G).
        /// Self-contained: when the sweep's memory configuration has no NSB,
        /// this system adds the paper's default one itself, so it rides every
        /// grid axis unchanged.
        NvrNsb,
    }

    /// All systems in the paper's bar order (NVR+NSB appended).
    const ALL;
}

impl SystemKind {
    /// The prefetcher-bearing systems of Fig. 6.
    pub const PREFETCHERS: [SystemKind; 5] = [
        SystemKind::Stream,
        SystemKind::Imp,
        SystemKind::Dvr,
        SystemKind::Nvr,
        SystemKind::NvrNsb,
    ];

    /// Looks a system up by its paper label, case-insensitively.
    #[must_use]
    pub fn from_label(s: &str) -> Option<SystemKind> {
        SystemKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::InOrder => "InO",
            SystemKind::OutOfOrder => "OoO",
            SystemKind::Stream => "Stream",
            SystemKind::Imp => "IMP",
            SystemKind::Dvr => "DVR",
            SystemKind::Nvr => "NVR",
            SystemKind::NvrNsb => "NVR+NSB",
        }
    }

    /// The memory configuration this system actually runs against:
    /// [`SystemKind::NvrNsb`] adds the paper's default NSB — under the
    /// scored retention policy, which degenerates to LRU bit-for-bit when
    /// admission scoring is off — when the given configuration has none,
    /// and runs the L2 under score-weighted eviction
    /// ([`nvr_mem::RetentionPolicy::ScoredEvict`], always-admit) so
    /// predicted-reuse scores pin hub lines at both levels; every other
    /// system uses the configuration as-is.
    #[must_use]
    pub fn effective_mem_cfg(self, mem_cfg: &MemoryConfig) -> MemoryConfig {
        match self {
            SystemKind::NvrNsb if mem_cfg.nsb.is_none() => {
                let mut cfg = mem_cfg.clone().with_nsb(nsb_scored(16));
                cfg.l2.policy = nvr_mem::RetentionPolicy::ScoredEvict;
                cfg
            }
            SystemKind::InOrder
            | SystemKind::OutOfOrder
            | SystemKind::Stream
            | SystemKind::Imp
            | SystemKind::Dvr
            | SystemKind::Nvr
            | SystemKind::NvrNsb => mem_cfg.clone(),
        }
    }

    fn npu_config(self) -> NpuConfig {
        match self {
            SystemKind::OutOfOrder => NpuConfig::out_of_order(),
            SystemKind::InOrder
            | SystemKind::Stream
            | SystemKind::Imp
            | SystemKind::Dvr
            | SystemKind::Nvr
            | SystemKind::NvrNsb => NpuConfig::default(),
        }
    }

    fn prefetcher(self, mem_cfg: &MemoryConfig, nsb_admit: Option<u32>) -> Box<dyn Prefetcher> {
        let tune = |mut cfg: NvrConfig| {
            if let Some(admit) = nsb_admit {
                cfg.nsb_admit_min_reuse = admit;
            }
            cfg
        };
        match self {
            SystemKind::InOrder | SystemKind::OutOfOrder => Box::new(NullPrefetcher::new()),
            SystemKind::Stream => Box::new(StreamPrefetcher::default()),
            SystemKind::Imp => Box::new(ImpPrefetcher::default()),
            SystemKind::Dvr => Box::new(DvrPrefetcher::default()),
            SystemKind::NvrNsb => Box::new(NvrPrefetcher::new(tune(NvrConfig::with_nsb()))),
            SystemKind::Nvr => {
                let cfg = if mem_cfg.nsb.is_some() {
                    NvrConfig::with_nsb()
                } else {
                    NvrConfig::default()
                };
                Box::new(NvrPrefetcher::new(tune(cfg)))
            }
        }
    }
}

/// Result of one comparable run: the timed result plus the same program's
/// ideal-memory base time (Fig. 5's lower bar segment).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which system ran.
    pub system: SystemKind,
    /// Timed result against the real memory system.
    pub result: RunResult,
    /// Wall clock against an all-hit memory system.
    pub base_cycles: Cycle,
    /// Measured per-prefetch timeliness, for systems that track prefetch
    /// lifetimes (NVR); `None` for the rest.
    pub timeliness: Option<TimelinessReport>,
}

impl RunOutcome {
    /// Cycles attributable to cache-miss stalls.
    #[must_use]
    pub fn stall_cycles(&self) -> Cycle {
        self.result.total_cycles.saturating_sub(self.base_cycles)
    }

    /// Per-channel DRAM utilisation of the timed run, in channel order.
    #[must_use]
    pub fn channel_utilisation(&self) -> &[f64] {
        &self.result.channel_utilisation
    }

    /// Approximate `q`-quantile of the speculative-fill queue delay
    /// (cycles a prefetch waited for a bus slot), merged across channels.
    #[must_use]
    pub fn queue_delay_percentile(&self, q: f64) -> u64 {
        self.result.mem.dram.queue_delay_merged().percentile(q)
    }

    /// Total latency normalised to `denom` cycles.
    #[must_use]
    pub fn normalised_total(&self, denom: Cycle) -> f64 {
        self.result.total_cycles as f64 / denom.max(1) as f64
    }

    /// Stall latency normalised to `denom` cycles.
    #[must_use]
    pub fn normalised_stall(&self, denom: Cycle) -> f64 {
        self.stall_cycles() as f64 / denom.max(1) as f64
    }
}

/// Runs `program` under `system` against `mem_cfg` (as adjusted by
/// [`SystemKind::effective_mem_cfg`]), plus the paired ideal-memory run
/// for the base/stall split.
#[must_use]
pub fn run_system(program: &NpuProgram, mem_cfg: &MemoryConfig, system: SystemKind) -> RunOutcome {
    run_system_tuned(program, mem_cfg, system, None)
}

/// [`run_system`] with an NSB-admission override: `Some(t)` forces
/// `NvrConfig::nsb_admit_min_reuse = t` on the NVR-family systems (0
/// disables admission scoring, reverting the NSB to pure LRU); `None`
/// keeps each system's calibrated default. Non-NVR systems ignore it.
#[must_use]
pub fn run_system_tuned(
    program: &NpuProgram,
    mem_cfg: &MemoryConfig,
    system: SystemKind,
    nsb_admit: Option<u32>,
) -> RunOutcome {
    let base_cycles = ideal_base_cycles(program, system, mem_cfg);
    run_timed(program, mem_cfg, system, nsb_admit, base_cycles)
}

/// The timed half of [`run_system_tuned`], paired with an already known
/// [`ideal_base_cycles`] result.
pub(crate) fn run_timed(
    program: &NpuProgram,
    mem_cfg: &MemoryConfig,
    system: SystemKind,
    nsb_admit: Option<u32>,
    base_cycles: Cycle,
) -> RunOutcome {
    let engine = NpuEngine::new(system.npu_config());
    let mem_cfg = system.effective_mem_cfg(mem_cfg);
    let mut mem = MemorySystem::new(mem_cfg.clone());
    let mut prefetcher = system.prefetcher(&mem_cfg, nsb_admit);
    let result = engine.run(program, &mut mem, prefetcher.as_mut());
    prefetcher.finalize_run(&mut mem);
    let timeliness = prefetcher.timeliness();
    RunOutcome {
        system,
        result,
        base_cycles,
        timeliness,
    }
}

/// What an ideal-memory run of a program reads besides the program: the
/// engine configuration and the all-hit demand latency. Ideal memory
/// answers every demand at [`MemoryConfig::min_demand_latency`] without a
/// miss, DMA and stores complete at once, and the paired run prefetches
/// nothing, so caches, policies, the NSB's size and the DRAM channels
/// cannot move its cycle count.
pub(crate) fn ideal_key(system: SystemKind, mem_cfg: &MemoryConfig) -> (NpuConfig, Cycle) {
    (
        system.npu_config(),
        system.effective_mem_cfg(mem_cfg).min_demand_latency(),
    )
}

/// Wall clock of `program` under `system`'s engine against an all-hit
/// memory system: Fig. 5's base segment, the `base_cycles` of
/// [`run_system`]. Depends on `mem_cfg` only through the effective
/// configuration's [`MemoryConfig::min_demand_latency`].
#[must_use]
pub fn ideal_base_cycles(
    program: &NpuProgram,
    system: SystemKind,
    mem_cfg: &MemoryConfig,
) -> Cycle {
    let engine = NpuEngine::new(system.npu_config());
    let mut ideal = MemorySystem::ideal(system.effective_mem_cfg(mem_cfg));
    engine
        .run(program, &mut ideal, &mut NullPrefetcher::new())
        .total_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::DataWidth;
    use nvr_workloads::{WorkloadId, WorkloadSpec};

    fn program() -> NpuProgram {
        WorkloadId::Ds.build(&WorkloadSpec::tiny(DataWidth::Int8, 2))
    }

    #[test]
    fn base_never_exceeds_total() {
        let p = program();
        for system in SystemKind::ALL {
            let o = run_system(&p, &MemoryConfig::default(), system);
            assert!(
                o.base_cycles <= o.result.total_cycles,
                "{}: base {} > total {}",
                system.label(),
                o.base_cycles,
                o.result.total_cycles
            );
        }
    }

    /// The ideal run reads the memory configuration only through the
    /// demand hit latency: configurations that share it (and the engine
    /// configuration) but differ in L2 geometry or policy, NSB size or
    /// policy, DRAM channels or latency give the same base cycles, which is
    /// what lets the sweep share one ideal run per key.
    #[test]
    fn ideal_run_depends_only_on_its_key() {
        use nvr_mem::{CacheConfig, DramConfig, RetentionPolicy};
        let l2 = CacheConfig::l2_default();
        let dram = DramConfig::default();
        let plain = [
            MemoryConfig::default(),
            MemoryConfig::default().with_l2(l2.clone().with_size(l2.size_bytes / 4)),
            MemoryConfig::default().with_l2(l2.clone().with_ways(4)),
            MemoryConfig::default().with_l2(l2.with_policy(RetentionPolicy::ScoredEvict)),
            MemoryConfig::default().with_dram(dram.clone().with_channels(2)),
            MemoryConfig::default().with_dram(DramConfig {
                latency: dram.latency * 3,
                ..dram
            }),
        ];
        let with_nsb = [
            nvr_core::nsb_config(4),
            nvr_core::nsb_config(8),
            nvr_core::nsb_scored(16),
            nvr_core::nsb_config(32),
        ]
        .map(|nsb| MemoryConfig::default().with_nsb(nsb));
        let configs: Vec<MemoryConfig> = plain.into_iter().chain(with_nsb).collect();
        let mut shared = 0;
        for workload in [WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gcn] {
            let p = workload.build(&WorkloadSpec::tiny(DataWidth::Int8, 2));
            for system in SystemKind::ALL {
                let mut seen: Vec<((NpuConfig, Cycle), Cycle)> = Vec::new();
                for cfg in &configs {
                    let key = ideal_key(system, cfg);
                    let cycles = ideal_base_cycles(&p, system, cfg);
                    match seen.iter().find(|(k, _)| *k == key) {
                        Some(&(_, first)) => {
                            shared += 1;
                            assert_eq!(cycles, first, "{workload:?} {}: {cfg:?}", system.label());
                        }
                        None => seen.push((key, cycles)),
                    }
                }
            }
        }
        // Every system shares at least 8 of its 10 configurations' runs.
        assert!(shared >= 3 * 7 * 8, "{shared} shared ideal runs");
    }

    #[test]
    fn runahead_systems_lead_on_ds() {
        let p = program();
        let cfg = MemoryConfig::default();
        let totals: Vec<(SystemKind, u64)> = SystemKind::ALL
            .iter()
            .map(|&s| (s, run_system(&p, &cfg, s).result.total_cycles))
            .collect();
        let of = |k: SystemKind| totals.iter().find(|(s, _)| *s == k).expect("present").1;
        let nvr = of(SystemKind::Nvr);
        for (s, t) in totals.iter().filter(|(s, _)| *s != SystemKind::NvrNsb) {
            assert!(nvr <= *t, "NVR {nvr} should not lose to {} {t}", s.label());
        }
        // The NSB configuration must stay competitive with plain NVR (its
        // win shows on reuse-heavy workloads; DS is coverage-bound).
        let nsb = of(SystemKind::NvrNsb);
        assert!(
            nsb as f64 <= nvr as f64 * 1.02,
            "NVR+NSB {nsb} regressed past NVR {nvr}"
        );
    }

    #[test]
    fn nvr_nsb_configures_its_own_buffer() {
        let p = program();
        let o = run_system(&p, &MemoryConfig::default(), SystemKind::NvrNsb);
        let nsb = o.result.mem.nsb.as_ref().expect("NSB stats present");
        assert!(nsb.demand_accesses() > 0, "demands go through the NSB");
        // An explicitly NSB-bearing config is used unchanged.
        let cfg = MemoryConfig::default().with_nsb(nvr_core::nsb_config(8));
        assert_eq!(
            SystemKind::NvrNsb.effective_mem_cfg(&cfg).nsb,
            Some(nvr_core::nsb_config(8))
        );
    }

    #[test]
    fn timeliness_present_only_for_nvr() {
        let p = program();
        let cfg = MemoryConfig::default();
        let nvr = run_system(&p, &cfg, SystemKind::Nvr);
        let t = nvr.timeliness.expect("NVR tracks prefetch lifetimes");
        assert!(t.used() > 0, "NVR prefetches should be used");
        assert_eq!(t.slack.count(), t.used(), "one slack sample per use");
        assert!(
            t.queue_delay.count() > 0,
            "issued prefetches record their channel queue delay"
        );
        let ino = run_system(&p, &cfg, SystemKind::InOrder);
        assert!(ino.timeliness.is_none());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = SystemKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["InO", "OoO", "Stream", "IMP", "DVR", "NVR", "NVR+NSB"]
        );
        assert_eq!(
            SystemKind::from_label("nvr+nsb"),
            Some(SystemKind::NvrNsb),
            "grid filters accept the NSB label"
        );
    }
}
