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
    let engine = NpuEngine::new(system.npu_config());
    let mem_cfg = system.effective_mem_cfg(mem_cfg);

    let mut mem = MemorySystem::new(mem_cfg.clone());
    let mut prefetcher = system.prefetcher(&mem_cfg, nsb_admit);
    let result = engine.run(program, &mut mem, prefetcher.as_mut());
    prefetcher.finalize_run(&mut mem);
    let timeliness = prefetcher.timeliness();

    let mut ideal = MemorySystem::ideal(mem_cfg);
    let base = engine.run(program, &mut ideal, &mut NullPrefetcher::new());

    RunOutcome {
        system,
        result,
        base_cycles: base.total_cycles,
        timeliness,
    }
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
