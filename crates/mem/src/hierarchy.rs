//! The composed memory system: optional NSB → shared L2 → DRAM.

// A panic in tick code kills a whole parallel sweep: every remaining
// unwrap/expect carries an `#[expect]` stating its invariant.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use nvr_common::{Cycle, LineAddr, Region};

use crate::cache::{Cache, ProbeResult};
use crate::config::MemoryConfig;
use crate::dram::{ChannelPrefetch, DramBackend};
use crate::stats::MemoryStats;

/// Classification of a demand access, for statistics and latency breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the NSB (only with an NSB configured).
    NsbHit,
    /// Hit in the L2.
    L2Hit,
    /// Merged into an outstanding fill at some level.
    InFlight,
    /// Missed everywhere; fetched from DRAM.
    Miss,
}

/// Completion information for a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is usable by the NPU.
    pub ready_at: Cycle,
    /// What happened in the hierarchy.
    pub outcome: AccessOutcome,
}

/// Disposition of a prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// Accepted; the fill completes at the given cycle.
    Issued {
        /// Fill-completion cycle.
        fill_done: Cycle,
    },
    /// The line was already resident or in flight.
    Redundant,
    /// Dropped: no MSHR was available.
    Dropped,
}

/// The full simulated memory system.
///
/// Construct with [`MemorySystem::new`] for timing-accurate runs or
/// [`MemorySystem::ideal`] for all-hit baseline runs (used to split wall
/// clock into base-execution and miss-stall segments as in Fig. 5).
///
/// # Examples
///
/// ```
/// use nvr_mem::{AccessOutcome, MemoryConfig, MemorySystem};
/// use nvr_common::LineAddr;
///
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// let r = mem.demand_line(LineAddr::new(7), 0);
/// assert_eq!(r.outcome, AccessOutcome::Miss);
/// let r2 = mem.demand_line(LineAddr::new(7), r.ready_at + 1);
/// assert_eq!(r2.outcome, AccessOutcome::L2Hit);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemoryConfig,
    nsb: Option<Cache>,
    l2: Cache,
    dram: DramBackend,
    /// Outstanding speculative fills (the dedicated prefetch MSHR file),
    /// kept in ascending completion order so occupancy queries are a
    /// binary search rather than a scan.
    pf_inflight: Vec<Cycle>,
    ideal: bool,
}

impl MemorySystem {
    /// Builds the hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemoryConfig::validate`].
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "init-time config validation in the constructor, outside the tick loop"
        )]
        cfg.validate().expect("memory config must be valid");
        MemorySystem {
            nsb: cfg.nsb.clone().map(Cache::new),
            l2: Cache::new(cfg.l2.clone()),
            dram: DramBackend::new(cfg.dram.clone()),
            pf_inflight: Vec::with_capacity(cfg.prefetch_mshrs),
            ideal: false,
            cfg,
        }
    }

    /// Builds an *ideal* hierarchy: every demand access completes at the
    /// minimum hit latency and prefetches are no-ops. Used to measure the
    /// NPU base execution time.
    #[must_use]
    pub fn ideal(cfg: MemoryConfig) -> Self {
        let mut sys = MemorySystem::new(cfg);
        sys.ideal = true;
        sys
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Direct access to the DRAM backend (for utilisation queries).
    #[must_use]
    pub fn dram(&self) -> &DramBackend {
        &self.dram
    }

    /// Whether `line`'s DRAM channel can accept another speculative fill
    /// at `now` — the per-channel occupancy signal queue-aware issuers
    /// (the VIGU) pace on instead of letting requests reach a full queue
    /// and drop. Always true for ideal memory.
    #[must_use]
    pub fn prefetch_channel_ready(&self, line: LineAddr, now: Cycle) -> bool {
        self.ideal || self.dram.prefetch_ready(line, now)
    }

    /// The DRAM channel that carries `line`'s fills. Issue loops use this
    /// to memoise [`MemorySystem::prefetch_channel_ready`] per channel
    /// instead of re-walking the same channel queue for every queued line.
    #[must_use]
    pub fn channel_of(&self, line: LineAddr) -> usize {
        self.dram.channel_of(line)
    }

    /// A demand load of one cache line at cycle `now`.
    pub fn demand_line(&mut self, line: LineAddr, now: Cycle) -> AccessResult {
        if self.ideal {
            return AccessResult {
                ready_at: now + self.cfg.min_demand_latency(),
                outcome: if self.nsb.is_some() {
                    AccessOutcome::NsbHit
                } else {
                    AccessOutcome::L2Hit
                },
            };
        }
        match &mut self.nsb {
            Some(nsb) => match nsb.probe(line, now, true) {
                ProbeResult::Hit { ready_at } => {
                    // The demand never reaches the L2, but the lifetime
                    // log lives there: record the consumption so the
                    // prefetched L2 copy is not misread as unused.
                    self.l2.log_external_use(line, now);
                    AccessResult {
                        ready_at,
                        outcome: AccessOutcome::NsbHit,
                    }
                }
                ProbeResult::InFlight { ready_at, .. } => {
                    self.l2.log_external_use(line, now);
                    AccessResult {
                        ready_at,
                        outcome: AccessOutcome::InFlight,
                    }
                }
                ProbeResult::Miss => {
                    // NSB lookup cost precedes the L2 access.
                    #[expect(
                        clippy::expect_used,
                        reason = "this arm only runs when the hierarchy was built with an NSB, so the config is present"
                    )]
                    let t_l2 = now + self.cfg.nsb.as_ref().expect("nsb cfg").hit_latency;
                    let (result, fill_done) =
                        Self::l2_demand(&mut self.l2, &mut self.dram, line, t_l2);
                    // Fill the NSB alongside so subsequent touches hit near
                    // the NPU (demand fills allocate in both levels).
                    #[expect(
                        clippy::expect_used,
                        reason = "same NSB-present invariant as the probe that produced this ProbeResult::Miss"
                    )]
                    let nsb = self.nsb.as_mut().expect("nsb present");
                    if nsb.mshr_available(now) {
                        nsb.install(line, fill_done, false, now);
                    }
                    result
                }
            },
            None => Self::l2_demand(&mut self.l2, &mut self.dram, line, now).0,
        }
    }

    /// L2-level demand handling shared by both the NSB and no-NSB paths.
    /// Returns the access result and the cycle the line's data is available
    /// (for propagating fills upward).
    fn l2_demand(
        l2: &mut Cache,
        dram: &mut DramBackend,
        line: LineAddr,
        now: Cycle,
    ) -> (AccessResult, Cycle) {
        match l2.probe(line, now, true) {
            ProbeResult::Hit { ready_at } => (
                AccessResult {
                    ready_at,
                    outcome: AccessOutcome::L2Hit,
                },
                ready_at,
            ),
            ProbeResult::InFlight { ready_at, .. } => (
                AccessResult {
                    ready_at,
                    outcome: AccessOutcome::InFlight,
                },
                ready_at,
            ),
            ProbeResult::Miss => {
                // A full MSHR file stalls the demand until a slot frees.
                let issue_at = l2.mshr_free_at(now);
                let fill_done = dram.demand_fetch(line, issue_at);
                l2.install(line, fill_done, false, now);
                (
                    AccessResult {
                        ready_at: fill_done,
                        outcome: AccessOutcome::Miss,
                    },
                    fill_done,
                )
            }
        }
    }

    /// A demand load covering every line of `region`; returns the cycle by
    /// which *all* lines are usable (vector-batch semantics, §II-B).
    pub fn demand_region(&mut self, region: Region, now: Cycle) -> Cycle {
        let mut ready = now + self.cfg.min_demand_latency();
        for line in region.lines() {
            ready = ready.max(self.demand_line(line, now).ready_at);
        }
        ready
    }

    /// A prefetch of one line at cycle `now`.
    ///
    /// Prefetches always fill the L2; with `fill_nsb` set (the NVR
    /// configuration of §IV-G) the line is additionally installed in the
    /// NSB so actual loads complete at NSB latency.
    pub fn prefetch_line(&mut self, line: LineAddr, now: Cycle, fill_nsb: bool) -> PrefetchOutcome {
        self.prefetch_line_scored(line, now, fill_nsb, 0, 0)
    }

    /// [`MemorySystem::prefetch_line`] carrying per-level predicted-reuse
    /// scores for scored victim selection at whichever levels run it. The
    /// levels see *different* scores because their stakes differ: the
    /// NSB-side install competes on `nsb_reuse` and may be rejected
    /// (shrink) instead of evicting a hotter resident — its caller floors
    /// below-threshold lines at 1 so the stream still fills the buffer —
    /// while the L2 receives the unfloored `reuse`, keeping
    /// below-threshold speculative lines rank-equal with demand-allocated
    /// ways (score 0) instead of letting a blanket floor crowd every
    /// demand line out of a [`crate::RetentionPolicy::ScoredEvict`] L2. A
    /// redundant prefetch *refreshes* the resident copy's decayed score
    /// so lines every runahead window keeps re-observing stay pinned
    /// across the run.
    pub fn prefetch_line_scored(
        &mut self,
        line: LineAddr,
        now: Cycle,
        fill_nsb: bool,
        reuse: u32,
        nsb_reuse: u32,
    ) -> PrefetchOutcome {
        if self.ideal {
            return PrefetchOutcome::Redundant;
        }
        let l2_has = self.l2.contains(line);
        if l2_has {
            self.l2.note_prefetch_redundant();
            self.l2.refresh_reuse(line, reuse);
            // The data is (or will be) on-chip; optionally pull it into the
            // NSB so the NPU-side latency drops too.
            if fill_nsb {
                if let Some(nsb) = &mut self.nsb {
                    if nsb.contains(line) {
                        nsb.refresh_reuse(line, nsb_reuse);
                    } else if nsb.mshr_available(now) {
                        if let Some(ready) = self.l2.ready_time(line, now) {
                            if nsb.install_speculative_scored(line, ready, now, 0, nsb_reuse) {
                                nsb.note_prefetch_issued();
                                return PrefetchOutcome::Issued { fill_done: ready };
                            }
                        }
                    }
                }
            }
            return PrefetchOutcome::Redundant;
        }
        if self.prefetch_slots(now) == 0 {
            self.l2.note_prefetch_dropped();
            return PrefetchOutcome::Dropped;
        }
        // Channel-level arbitration: a full per-channel request queue
        // rejects the speculative fill (demands are never gated here —
        // they preempt the queue inside the backend).
        let (fill_done, queue_delay) = match self.dram.prefetch_fetch(line, now) {
            ChannelPrefetch::Scheduled {
                fill_done,
                queue_delay,
            } => (fill_done, queue_delay),
            ChannelPrefetch::QueueFull => {
                self.l2.note_prefetch_dropped();
                return PrefetchOutcome::Dropped;
            }
        };
        self.track_prefetch(fill_done, now);
        // A scored L2 may shrink (reject the fill) to keep a hotter
        // resident; the DRAM fetch is already in flight either way, so
        // the issue is counted against the level regardless and the
        // rejection shows up in `retention_rejected`.
        self.l2
            .install_speculative_scored(line, fill_done, now, queue_delay, reuse);
        self.l2.note_prefetch_issued();
        if fill_nsb {
            if let Some(nsb) = &mut self.nsb {
                if nsb.mshr_available(now)
                    && nsb.install_speculative_scored(line, fill_done, now, 0, nsb_reuse)
                {
                    nsb.note_prefetch_issued();
                }
            }
        }
        PrefetchOutcome::Issued { fill_done }
    }

    /// Streams dense DMA read traffic (scratchpad fills) over the channel;
    /// returns the completion cycle. Bypasses the caches, as Gemmini's
    /// explicit scratchpad preloads do.
    pub fn dma_read_bytes(&mut self, now: Cycle, bytes: u64) -> Cycle {
        if self.ideal {
            return now;
        }
        self.dram.read_stream(now, bytes)
    }

    /// Streams store traffic (output activations) over the off-chip channel.
    /// Returns the drain cycle; the NPU write buffer absorbs the latency.
    pub fn store_bytes(&mut self, now: Cycle, bytes: u64) -> Cycle {
        if self.ideal {
            return now;
        }
        self.dram.write_bytes(now, bytes)
    }

    /// Whether the speculative MSHR file can accept another prefetch at
    /// `now`. Prefetchers with request queues use this as backpressure
    /// instead of letting requests drop.
    #[must_use]
    pub fn prefetch_ready(&self, now: Cycle) -> bool {
        self.prefetch_slots(now) > 0
    }

    /// Free entries of the speculative MSHR file at `now`. Vectorised
    /// prefetchers cap their per-cycle issue width with this so a full
    /// file back-pressures instead of dropping elements.
    #[must_use]
    pub fn prefetch_slots(&self, now: Cycle) -> usize {
        let pending = self.pf_inflight.len() - self.pf_inflight.partition_point(|&c| c <= now);
        self.cfg.prefetch_mshrs.saturating_sub(pending)
    }

    /// Records a speculative fill in the prefetch MSHR file, pruning
    /// completed entries and keeping the file sorted (fills land in
    /// near-monotone order, so the common case is a plain push).
    fn track_prefetch(&mut self, fill_done: Cycle, now: Cycle) {
        let done = self.pf_inflight.partition_point(|&c| c <= now);
        if done > 0 {
            self.pf_inflight.drain(..done);
        }
        match self.pf_inflight.last() {
            Some(&last) if last > fill_done => {
                let pos = self.pf_inflight.partition_point(|&c| c <= fill_done);
                self.pf_inflight.insert(pos, fill_done);
            }
            _ => self.pf_inflight.push(fill_done),
        }
    }

    /// Starts recording per-prefetch lifetime events at the L2 (the level
    /// NVR fills): issue, fill, first demand use, and unused eviction. Off
    /// by default — non-runahead prefetchers never pay for it. Idempotent;
    /// the consumer must drain with
    /// [`MemorySystem::swap_prefetch_life_events`] regularly or the log
    /// grows for the rest of the run.
    pub fn enable_prefetch_life_log(&mut self) {
        self.l2.enable_life_log();
    }

    /// Exchanges the L2's recorded lifetime events, in occurrence order,
    /// with the caller's (cleared) buffer. The buffer is left untouched
    /// when the log was never enabled.
    pub fn swap_prefetch_life_events(&mut self, buf: &mut Vec<crate::cache::PrefetchLifeEvent>) {
        self.l2.swap_life_events(buf);
    }

    /// Earliest cycle strictly after `now` at which the prefetch path can
    /// change state on its own: a speculative fill completes (freeing a
    /// slot of the dedicated MSHR file) or a queued channel request
    /// reaches the bus (easing per-channel back-pressure). `None` when
    /// nothing speculative is in motion. Event-driven issuers use this to
    /// skip dead cycles: between `now` and the returned cycle, an issue
    /// attempt that found no free slot or a full channel would keep
    /// finding the same thing.
    #[must_use]
    pub fn next_prefetch_wakeup(&self, now: Cycle) -> Option<Cycle> {
        let pending = self.pf_inflight.partition_point(|&c| c <= now);
        let mshr = self.pf_inflight.get(pending).copied();
        let queue = self.dram.next_pf_queue_start(now);
        match (mshr, queue) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Cycle at which `line`'s data becomes readable on chip, if resident
    /// or in flight at any level. Runahead threads use this to wait
    /// honestly on lines another prefetch already set in motion.
    #[must_use]
    pub fn line_ready_time(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        let l2 = self.l2.ready_time(line, now);
        let nsb = self.nsb.as_ref().and_then(|n| n.ready_time(line, now));
        match (nsb, l2) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Whether `line` is resident (or in flight) at the level closest to
    /// the NPU — used by prefetchers for redundancy filtering.
    #[must_use]
    pub fn npu_side_contains(&self, line: LineAddr) -> bool {
        match &self.nsb {
            Some(nsb) => nsb.contains(line) || self.l2.contains(line),
            None => self.l2.contains(line),
        }
    }

    /// Snapshot of all statistics. Call [`MemorySystem::finalize`] first at
    /// end of run so resident-unused prefetches are accounted.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            nsb: self.nsb.as_ref().map(|c| c.stats().clone()),
            l2: self.l2.stats().clone(),
            dram: self.dram.stats().clone(),
        }
    }

    /// Folds end-of-run state (resident unused prefetches) into the stats.
    pub fn finalize(&mut self) {
        if let Some(nsb) = &mut self.nsb {
            nsb.finalize_stats();
        }
        self.l2.finalize_stats();
    }

    /// Combined prefetch accuracy across levels: useful / (useful + unused).
    ///
    /// With an NSB the NPU's demands are satisfied there, so usefulness is
    /// observed wherever the demand first touches the prefetched line.
    #[must_use]
    pub fn prefetch_accuracy(&self) -> f64 {
        let mut useful = self.l2.stats().prefetch_useful.get();
        let mut unused = self.l2.stats().prefetch_evicted_unused.get()
            + self.l2.stats().prefetch_resident_unused.get();
        if let Some(nsb) = &self.nsb {
            useful += nsb.stats().prefetch_useful.get();
            unused += nsb.stats().prefetch_evicted_unused.get()
                + nsb.stats().prefetch_resident_unused.get();
        }
        if useful + unused == 0 {
            0.0
        } else {
            useful as f64 / (useful + unused) as f64
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "each test asserts one variant and panics on every other"
)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, DramConfig};

    fn cfg_with_nsb() -> MemoryConfig {
        MemoryConfig::default().with_nsb(CacheConfig::nsb_default())
    }

    #[test]
    fn cold_miss_pays_dram_latency() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = mem.demand_line(LineAddr::new(1), 0);
        assert_eq!(r.outcome, AccessOutcome::Miss);
        let dram = DramConfig::default();
        assert_eq!(r.ready_at, dram.latency + dram.line_transfer_cycles());
    }

    #[test]
    fn l2_hit_after_fill() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = mem.demand_line(LineAddr::new(1), 0);
        let r2 = mem.demand_line(LineAddr::new(1), r.ready_at);
        assert_eq!(r2.outcome, AccessOutcome::L2Hit);
        assert_eq!(r2.ready_at, r.ready_at + 20);
    }

    #[test]
    fn nsb_hit_is_cheapest() {
        let mut mem = MemorySystem::new(cfg_with_nsb());
        let r = mem.demand_line(LineAddr::new(1), 0);
        assert_eq!(r.outcome, AccessOutcome::Miss);
        let r2 = mem.demand_line(LineAddr::new(1), r.ready_at);
        assert_eq!(r2.outcome, AccessOutcome::NsbHit);
        assert_eq!(r2.ready_at, r.ready_at + 2);
    }

    #[test]
    fn prefetch_converts_miss_to_hit() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let line = LineAddr::new(42);
        let pf = mem.prefetch_line(line, 0, false);
        let fill = match pf {
            PrefetchOutcome::Issued { fill_done } => fill_done,
            other => panic!("expected issue, got {other:?}"),
        };
        let r = mem.demand_line(line, fill + 1);
        assert_eq!(r.outcome, AccessOutcome::L2Hit);
        let s = mem.stats();
        assert_eq!(s.l2.prefetch_useful.get(), 1);
        assert_eq!(s.dram.prefetch_lines.get(), 1);
        assert_eq!(s.dram.demand_lines.get(), 0);
    }

    #[test]
    fn late_prefetch_still_helps() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let line = LineAddr::new(42);
        let fill = match mem.prefetch_line(line, 0, false) {
            PrefetchOutcome::Issued { fill_done } => fill_done,
            other => panic!("expected issue, got {other:?}"),
        };
        // Demand arrives mid-fill: merges, waits only the residual time.
        let r = mem.demand_line(line, fill / 2);
        assert_eq!(r.outcome, AccessOutcome::InFlight);
        assert_eq!(r.ready_at, fill);
        assert_eq!(mem.stats().l2.prefetch_late.get(), 1);
    }

    #[test]
    fn redundant_prefetch_is_cheap() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let line = LineAddr::new(9);
        mem.demand_line(line, 0);
        let pf = mem.prefetch_line(line, 5, false);
        assert_eq!(pf, PrefetchOutcome::Redundant);
        assert_eq!(mem.stats().l2.prefetch_redundant.get(), 1);
        assert_eq!(mem.stats().dram.prefetch_lines.get(), 0);
    }

    #[test]
    fn prefetch_into_nsb_from_l2() {
        let mut mem = MemorySystem::new(cfg_with_nsb());
        let line = LineAddr::new(9);
        // Line reaches L2 via a demand; NSB also fills on the demand path,
        // so use a different line for the NSB-promotion test.
        let pf = mem.prefetch_line(line, 0, true);
        assert!(matches!(pf, PrefetchOutcome::Issued { .. }));
        let s = mem.stats();
        assert_eq!(s.l2.prefetch_issued.get(), 1);
        assert_eq!(s.nsb.as_ref().expect("nsb").prefetch_issued.get(), 1);
    }

    #[test]
    fn prefetch_dropped_when_mshrs_full() {
        let small_mshr = MemoryConfig {
            prefetch_mshrs: 2,
            ..MemoryConfig::default()
        };
        let mut mem = MemorySystem::new(small_mshr);
        assert!(matches!(
            mem.prefetch_line(LineAddr::new(1), 0, false),
            PrefetchOutcome::Issued { .. }
        ));
        assert!(matches!(
            mem.prefetch_line(LineAddr::new(2), 0, false),
            PrefetchOutcome::Issued { .. }
        ));
        assert_eq!(
            mem.prefetch_line(LineAddr::new(3), 0, false),
            PrefetchOutcome::Dropped
        );
        assert_eq!(mem.stats().l2.prefetch_dropped.get(), 1);
    }

    #[test]
    fn prefetch_dropped_when_channel_queue_full() {
        let cfg = MemoryConfig {
            prefetch_mshrs: 64, // MSHRs never the bottleneck here
            dram: DramConfig {
                queue_depth: 2,
                ..DramConfig::default()
            },
            ..MemoryConfig::default()
        };
        let mut mem = MemorySystem::new(cfg);
        // One on the bus + two queued fill the channel's queue.
        for i in 1..=3u64 {
            assert!(matches!(
                mem.prefetch_line(LineAddr::new(i), 0, false),
                PrefetchOutcome::Issued { .. }
            ));
        }
        assert!(!mem.prefetch_channel_ready(LineAddr::new(4), 0));
        assert_eq!(
            mem.prefetch_line(LineAddr::new(4), 0, false),
            PrefetchOutcome::Dropped
        );
        assert_eq!(mem.stats().l2.prefetch_dropped.get(), 1);
        assert_eq!(mem.stats().dram.pf_queue_rejected.get(), 1);
        // A demand still gets served ahead of the speculative backlog.
        let r = mem.demand_line(LineAddr::new(5), 0);
        let dram = DramConfig::default();
        assert_eq!(
            r.ready_at,
            dram.line_transfer_cycles() + dram.latency + dram.line_transfer_cycles()
        );
    }

    #[test]
    fn two_channels_overlap_disjoint_misses() {
        let cfg = MemoryConfig {
            dram: DramConfig::default().with_channels(2),
            ..MemoryConfig::default()
        };
        let mut mem = MemorySystem::new(cfg);
        // Adjacent lines stripe onto different channels: both cold misses
        // complete as if each channel were alone.
        let a = mem.demand_line(LineAddr::new(0), 0);
        let b = mem.demand_line(LineAddr::new(1), 0);
        assert_eq!(a.ready_at, b.ready_at);
        let s = mem.stats();
        assert_eq!(s.dram.channels.len(), 2);
        assert_eq!(s.dram.channels[0].demand_lines.get(), 1);
        assert_eq!(s.dram.channels[1].demand_lines.get(), 1);
    }

    #[test]
    fn demand_stalls_when_mshrs_full() {
        let small_mshr = MemoryConfig::default().with_l2(CacheConfig {
            mshr_entries: 1,
            ..CacheConfig::l2_default()
        });
        let mut mem = MemorySystem::new(small_mshr);
        let a = mem.demand_line(LineAddr::new(1), 0);
        let b = mem.demand_line(LineAddr::new(2), 0);
        // Second demand waits for the first fill's MSHR slot.
        assert!(b.ready_at > a.ready_at);
    }

    #[test]
    fn ideal_memory_always_hits() {
        let mut mem = MemorySystem::ideal(MemoryConfig::default());
        for i in 0..100 {
            let r = mem.demand_line(LineAddr::new(i * 1000), i);
            assert_eq!(r.ready_at, i + 20);
        }
        assert_eq!(mem.stats().dram.demand_lines.get(), 0);
    }

    #[test]
    fn demand_region_batch_semantics() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let region = Region::new(nvr_common::Addr::new(0), 64 * 8);
        let ready = mem.demand_region(region, 0);
        // Eight lines pipeline through DRAM; completion is the last one.
        let dram = DramConfig::default();
        assert_eq!(ready, dram.latency + 8 * dram.line_transfer_cycles());
    }

    #[test]
    fn accuracy_combines_levels() {
        let mut mem = MemorySystem::new(cfg_with_nsb());
        let line = LineAddr::new(11);
        let fill = match mem.prefetch_line(line, 0, true) {
            PrefetchOutcome::Issued { fill_done } => fill_done,
            other => panic!("{other:?}"),
        };
        mem.demand_line(line, fill + 1); // NSB hit marks usefulness there
        mem.prefetch_line(LineAddr::new(12), 0, true); // never used
        mem.finalize();
        let acc = mem.prefetch_accuracy();
        assert!(acc > 0.0 && acc < 1.0, "accuracy {acc} should be partial");
    }
}
