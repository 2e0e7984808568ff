//! Non-blocking set-associative cache with timestamp-forwarded fills.

// A panic in tick code kills a whole parallel sweep: every remaining
// unwrap/expect carries an `#[expect]` stating its invariant.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use nvr_common::{Cycle, LineAddr};

use crate::config::{CacheConfig, RetentionPolicy};
use crate::stats::CacheStats;

/// One observed transition in a prefetched line's life, recorded by the
/// cache when its lifetime log is enabled (see [`Cache::enable_life_log`]).
///
/// These are the raw mem-side facts a timeliness model needs: when a
/// speculative fill was accepted, when its data arrived, when a demand
/// first touched it (and whether that demand had to wait mid-fill), and
/// when an untouched prefetched line was evicted. The consumer — NVR's
/// `lifetime` module in `nvr_core` — folds them into an issue→use slack
/// histogram and a usefulness throttle; the cache itself only reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchLifeEvent {
    /// A prefetch was accepted for `line` at cycle `at`; its data arrives
    /// at `fill_done`.
    Issued {
        /// The prefetched line.
        line: LineAddr,
        /// Cycle the prefetch entered the cache.
        at: Cycle,
        /// Cycle its fill completes.
        fill_done: Cycle,
        /// Cycles the fill waited in its DRAM channel's request queue
        /// before getting a bus slot (0 for fills that started
        /// immediately, e.g. promotions from a lower level).
        queue_delay: Cycle,
    },
    /// The first demand access touched the prefetched `line` at cycle `at`.
    FirstUse {
        /// The prefetched line.
        line: LineAddr,
        /// Cycle of the first demand touch.
        at: Cycle,
        /// Whether the demand arrived before the fill completed (a *late*
        /// prefetch: useful, but the NPU still waited).
        late: bool,
    },
    /// A prefetched line was evicted at cycle `at` without ever being
    /// demanded (wasted speculation — cache pollution).
    EvictedUnused {
        /// The evicted line.
        line: LineAddr,
        /// Cycle of the eviction.
        at: Cycle,
    },
}

/// Result of probing a cache for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The line is resident and filled; data usable after the hit latency.
    Hit {
        /// Cycle at which the data is usable.
        ready_at: Cycle,
    },
    /// The line is being filled by an outstanding request; the access merges
    /// into the pending fill (MSHR coalescing).
    InFlight {
        /// Cycle at which the pending fill completes.
        ready_at: Cycle,
        /// Whether the pending fill was initiated by a prefetch.
        fill_was_prefetch: bool,
    },
    /// The line is absent; the caller must fetch it from the next level.
    Miss,
}

/// Per-way state bits packed into one byte of the SoA `flags` array.
const F_VALID: u8 = 1 << 0;
/// Whether the fill was initiated by a prefetch.
const F_PREFETCH: u8 = 1 << 1;
/// Whether a demand access touched the line since its fill.
const F_DEMANDED: u8 = 1 << 2;

/// A non-blocking set-associative cache level.
///
/// Fills are modelled by timestamps: [`Cache::install`] records the cycle at
/// which a line's data arrives, and later probes to that line before the
/// fill completes report [`ProbeResult::InFlight`] — exactly the behaviour a
/// miss-status holding register file provides in hardware.
///
/// MSHR capacity is enforced by counting lines whose fill is still pending:
/// [`Cache::mshr_free_at`] tells the caller when an MSHR slot frees up, so
/// demand accesses stall (and prefetches drop) when the file is full, as in
/// §IV-F–G of the paper.
///
/// # Layout
///
/// Way metadata lives in dense structure-of-arrays form: parallel vectors
/// (`tags`, `fill_done`, `last_use`, `reuse`, `flags`), each indexed by
/// `set * ways + way`. A probe touches only the `flags`/`tags` lanes until
/// it finds its way, so the tag scan streams through two tightly packed
/// arrays instead of striding across per-way structs — and there is no
/// per-set `Vec` indirection on the hot path.
///
/// # Examples
///
/// ```
/// use nvr_mem::{Cache, CacheConfig, ProbeResult};
/// use nvr_common::LineAddr;
///
/// let mut cache = Cache::new(CacheConfig::l2_default());
/// let line = LineAddr::new(0x40);
/// assert_eq!(cache.probe(line, 0, true), ProbeResult::Miss);
/// cache.install(line, 100, false, 0);
/// assert!(matches!(cache.probe(line, 50, true), ProbeResult::InFlight { .. }));
/// assert!(matches!(cache.probe(line, 200, true), ProbeResult::Hit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    n_sets: u64,
    /// `n_sets - 1` when the set count is a power of two (the usual
    /// geometry), letting the per-probe `%`/`/` pair collapse to mask and
    /// shift; `u64::MAX` marks the division fallback.
    set_mask: u64,
    /// `log2(n_sets)` when the set count is a power of two.
    set_shift: u32,
    /// SoA way metadata, indexed by `set * ways + way`.
    tags: Vec<u64>,
    /// Cycle at which each way's fill completes; `<= now` means filled.
    fill_done: Vec<Cycle>,
    /// LRU timestamps.
    last_use: Vec<Cycle>,
    /// Predicted-reuse scores under [`RetentionPolicy::ScoredReuse`]: how
    /// many more demand touches the producer expects for the line. Decays
    /// by one per demand hit and ages on rejected fills; always 0 under
    /// [`RetentionPolicy::Lru`].
    reuse: Vec<u32>,
    /// Validity/provenance bits (`F_VALID | F_PREFETCH | F_DEMANDED`).
    flags: Vec<u8>,
    /// Completion cycles of outstanding fills (the MSHR file), kept in
    /// ascending order so occupancy questions are binary searches.
    inflight: Vec<Cycle>,
    stats: CacheStats,
    /// Per-prefetch lifetime events, recorded only when a consumer enabled
    /// the log (`None` costs nothing on the demand path).
    life_log: Option<Vec<PrefetchLifeEvent>>,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`]; callers
    /// configuring from user input should validate first.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the slot and way counts size in-memory arrays, so they fit usize"
    )]
    pub fn new(cfg: CacheConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "init-time config validation in the constructor, outside the tick loop"
        )]
        cfg.validate().expect("cache config must be valid");
        let sets = cfg.sets();
        let slots = (sets * cfg.ways) as usize;
        let (set_mask, set_shift) = if sets.is_power_of_two() {
            (sets - 1, sets.trailing_zeros())
        } else {
            (u64::MAX, 0)
        };
        Cache {
            ways: cfg.ways as usize,
            n_sets: sets,
            set_mask,
            set_shift,
            tags: vec![0; slots],
            fill_done: vec![0; slots],
            last_use: vec![0; slots],
            reuse: vec![0; slots],
            flags: vec![0; slots],
            inflight: Vec::with_capacity(cfg.mshr_entries),
            stats: CacheStats::new(cfg.name),
            life_log: None,
            cfg,
        }
    }

    /// Starts recording [`PrefetchLifeEvent`]s. Idempotent; events
    /// accumulate until drained with [`Cache::swap_life_events`], so only
    /// consumers that drain regularly (e.g. a runahead controller's
    /// `advance` loop) should enable it.
    pub fn enable_life_log(&mut self) {
        if self.life_log.is_none() {
            self.life_log = Some(Vec::new());
        }
    }

    /// Exchanges the recorded lifetime events, in occurrence order, with
    /// `buf` (which the caller keeps cleared between drains), so a
    /// steady-state drain cycle reuses two allocations forever instead of
    /// allocating a fresh log per drain. No-op when the log was never
    /// enabled.
    pub fn swap_life_events(&mut self, buf: &mut Vec<PrefetchLifeEvent>) {
        if let Some(log) = &mut self.life_log {
            std::mem::swap(log, buf);
        }
    }

    /// Reconstructs the line address of the way at (`set`, tag) — the
    /// inverse of [`Cache::set_index`] / [`Cache::tag`], needed to name
    /// evicted lines in the lifetime log.
    fn line_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new(tag * self.n_sets + set as u64)
    }

    /// Records a [`PrefetchLifeEvent::FirstUse`] for `line` when a demand
    /// was satisfied by a level *above* this cache (the NSB) and never
    /// probed it. Touches only the lifetime log — LRU state and the
    /// aggregate statistics keep their level-local semantics — so the
    /// lifetime consumer sees the consumption a pure-L2 view would
    /// misread as an unused eviction later. Duplicate calls for the same
    /// line are harmless: the tracker ignores a `FirstUse` with no
    /// pending issue.
    pub fn log_external_use(&mut self, line: LineAddr, now: Cycle) {
        if self.life_log.is_none() {
            return;
        }
        if let Some(i) = self.find_way(line) {
            if self.flags[i] & (F_PREFETCH | F_DEMANDED) == F_PREFETCH {
                let late = self.fill_done[i] > now;
                if let Some(log) = &mut self.life_log {
                    log.push(PrefetchLifeEvent::FirstUse {
                        line,
                        at: now,
                        late,
                    });
                }
            }
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set index is below n_sets, which sizes an in-memory array"
    )]
    fn set_index(&self, line: LineAddr) -> usize {
        if self.set_mask != u64::MAX {
            (line.index() & self.set_mask) as usize
        } else {
            (line.index() % self.n_sets) as usize
        }
    }

    #[inline]
    fn tag(&self, line: LineAddr) -> u64 {
        if self.set_mask != u64::MAX {
            line.index() >> self.set_shift
        } else {
            line.index() / self.n_sets
        }
    }

    /// SoA slot index of `line`'s way, if resident or in flight.
    #[inline]
    fn find_way(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_index(line) * self.ways;
        let tag = self.tag(line);
        let tags = &self.tags[base..base + self.ways];
        let flags = &self.flags[base..base + self.ways];
        for w in 0..self.ways {
            if flags[w] & F_VALID != 0 && tags[w] == tag {
                return Some(base + w);
            }
        }
        None
    }

    /// Looks up `line` at cycle `now`. `is_demand` controls statistics and
    /// the `demanded` mark used for prefetch-usefulness accounting.
    pub fn probe(&mut self, line: LineAddr, now: Cycle, is_demand: bool) -> ProbeResult {
        let hit_latency = self.cfg.hit_latency;
        match self.find_way(line) {
            Some(i) => {
                self.last_use[i] = now;
                let filled = self.fill_done[i] <= now;
                let first_demand_of_prefetch =
                    is_demand && self.flags[i] & (F_PREFETCH | F_DEMANDED) == F_PREFETCH;
                if is_demand {
                    self.flags[i] |= F_DEMANDED;
                    // Each consumption spends one unit of predicted reuse, so
                    // a line whose forecast is exhausted becomes evictable
                    // again (no-op under LRU, where scores are always 0).
                    self.reuse[i] = self.reuse[i].saturating_sub(1);
                }
                if first_demand_of_prefetch {
                    if let Some(log) = &mut self.life_log {
                        log.push(PrefetchLifeEvent::FirstUse {
                            line,
                            at: now,
                            late: !filled,
                        });
                    }
                }
                if filled {
                    if is_demand {
                        self.stats.demand_hits.inc();
                        if first_demand_of_prefetch {
                            self.stats.prefetch_useful.inc();
                        }
                    }
                    ProbeResult::Hit {
                        ready_at: now + hit_latency,
                    }
                } else {
                    let ready_at = self.fill_done[i].max(now + hit_latency);
                    let fill_was_prefetch = self.flags[i] & F_PREFETCH != 0;
                    if is_demand {
                        self.stats.mshr_merges.inc();
                        if first_demand_of_prefetch {
                            self.stats.prefetch_useful.inc();
                            self.stats.prefetch_late.inc();
                        }
                    }
                    ProbeResult::InFlight {
                        ready_at,
                        fill_was_prefetch,
                    }
                }
            }
            None => {
                if is_demand {
                    self.stats.demand_misses.inc();
                }
                ProbeResult::Miss
            }
        }
    }

    /// Whether the line is resident or in flight, without disturbing LRU
    /// state or statistics. Used by prefetchers to test redundancy.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    /// Cycle at which `line`'s data is (or becomes) available, if resident,
    /// without touching LRU state or statistics.
    #[must_use]
    pub fn ready_time(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.find_way(line).map(|i| self.fill_done[i].max(now))
    }

    /// Number of MSHR entries still pending at `now`.
    #[must_use]
    pub fn mshr_pending(&self, now: Cycle) -> usize {
        self.inflight.len() - self.inflight.partition_point(|&c| c <= now)
    }

    /// Whether a new fill can be accepted at `now`.
    #[must_use]
    pub fn mshr_available(&self, now: Cycle) -> bool {
        self.mshr_pending(now) < self.cfg.mshr_entries
    }

    /// Earliest cycle at which an MSHR slot is free.
    ///
    /// Returns `now` when a slot is already free; otherwise the completion
    /// cycle of the soonest-finishing outstanding fill. The file is kept
    /// sorted, so this is an index into it — the pending suffix can run to
    /// thousands of entries under an out-of-order burst, where anything
    /// super-logarithmic per miss dominates the whole simulation.
    #[must_use]
    pub fn mshr_free_at(&self, now: Cycle) -> Cycle {
        let done = self.inflight.partition_point(|&c| c <= now);
        let pending = self.inflight.len() - done;
        if pending < self.cfg.mshr_entries {
            return now;
        }
        // The slot frees at the (pending - mshr_entries + 1)-th pending
        // completion — rank `pending - mshr_entries` (0-based) of the
        // ascending pending suffix.
        self.inflight[done + (pending - self.cfg.mshr_entries)]
    }

    /// Installs `line` with its data arriving at `fill_done`, allocating an
    /// MSHR entry and evicting the LRU way if needed.
    ///
    /// Prefetch fills (`from_prefetch`) do not occupy this cache's MSHR
    /// file — they are tracked by the dedicated speculative MSHR file of
    /// the hierarchy (§IV-G), so demand and speculation do not contend for
    /// miss-tracking slots.
    ///
    /// The caller is responsible for having checked [`Cache::mshr_available`]
    /// for demand fills.
    pub fn install(&mut self, line: LineAddr, fill_done: Cycle, from_prefetch: bool, now: Cycle) {
        self.install_inner(line, fill_done, from_prefetch, now, 0, 0);
    }

    /// [`Cache::install`] for a speculative fill whose DRAM channel queue
    /// delayed it by `queue_delay` cycles — the delay rides the lifetime
    /// log's `Issued` event so timeliness reports can attribute lateness
    /// to arbitration rather than prediction.
    pub fn install_speculative(
        &mut self,
        line: LineAddr,
        fill_done: Cycle,
        now: Cycle,
        queue_delay: Cycle,
    ) {
        self.install_inner(line, fill_done, true, now, queue_delay, 0);
    }

    /// [`Cache::install_speculative`] carrying a predicted-reuse score for
    /// [`RetentionPolicy::ScoredReuse`] victim selection. Returns whether
    /// the fill was accepted: a scored cache *shrinks* instead of evicting
    /// when every resident line's score is at least the incoming one, and
    /// the rejected fill never becomes resident (counted in
    /// `retention_rejected`). Always accepted under [`RetentionPolicy::Lru`].
    pub fn install_speculative_scored(
        &mut self,
        line: LineAddr,
        fill_done: Cycle,
        now: Cycle,
        queue_delay: Cycle,
        reuse: u32,
    ) -> bool {
        self.install_inner(line, fill_done, true, now, queue_delay, reuse)
    }

    /// Records an outstanding demand fill, dropping completed entries and
    /// keeping the file sorted. Timestamp-forwarded bursts append strictly
    /// later completions, so the common case is a pure push.
    fn note_inflight(&mut self, fill_done: Cycle, now: Cycle) {
        let done = self.inflight.partition_point(|&c| c <= now);
        if done > 0 {
            self.inflight.drain(..done);
        }
        match self.inflight.last() {
            Some(&last) if last > fill_done => {
                let pos = self.inflight.partition_point(|&c| c <= fill_done);
                self.inflight.insert(pos, fill_done);
            }
            _ => self.inflight.push(fill_done),
        }
    }

    fn install_inner(
        &mut self,
        line: LineAddr,
        fill_done: Cycle,
        from_prefetch: bool,
        now: Cycle,
        queue_delay: Cycle,
        reuse: u32,
    ) -> bool {
        let set = self.set_index(line);
        let tag = self.tag(line);
        if let Some(i) = self.find_way(line) {
            // Refill of a resident line (e.g. prefetch after demand raced in).
            self.fill_done[i] = self.fill_done[i].min(fill_done);
            self.last_use[i] = now;
            self.reuse[i] = self.reuse[i].max(reuse);
            if !from_prefetch {
                self.note_inflight(fill_done, now);
            }
            return true;
        }

        // Victim selection happens *before* any bookkeeping so a rejected
        // scored fill leaves the cache (MSHRs, lifetime log, stats other
        // than the rejection counter) untouched.
        let victim = match self.cfg.policy {
            RetentionPolicy::Lru => self.pick_victim(set, now),
            RetentionPolicy::ScoredReuse => match self.pick_victim_scored(set, now, reuse, true) {
                Ok(i) => i,
                Err(shrink) => {
                    self.stats.retention_rejected.inc();
                    // Age the weakest resident so a stream of rejections
                    // deterministically drains a stale hot set.
                    self.reuse[shrink] = self.reuse[shrink].saturating_sub(1);
                    return false;
                }
            },
            // Always admit; the shrink arm's "weakest resident" becomes
            // the victim instead of a rejection. No active-window
            // protection here: with rejection off the table, sparing
            // un-demanded speculative lines would only displace the
            // eviction onto demanded-hot residents — worse than letting
            // score order decide.
            RetentionPolicy::ScoredEvict => match self.pick_victim_scored(set, now, reuse, false) {
                Ok(i) | Err(i) => i,
            },
        };

        if !from_prefetch {
            self.note_inflight(fill_done, now);
        }
        if from_prefetch {
            if let Some(log) = &mut self.life_log {
                log.push(PrefetchLifeEvent::Issued {
                    line,
                    at: now,
                    fill_done,
                    queue_delay,
                });
            }
        }
        let victim_flags = self.flags[victim];
        let evicted_unused_line = (victim_flags & (F_VALID | F_PREFETCH | F_DEMANDED)
            == F_VALID | F_PREFETCH)
            .then(|| self.line_of(set, self.tags[victim]));
        if victim_flags & F_VALID != 0 {
            self.stats.evictions.inc();
            if victim_flags & (F_PREFETCH | F_DEMANDED) == F_PREFETCH {
                self.stats.prefetch_evicted_unused.inc();
            }
        }
        if let Some(evicted) = evicted_unused_line {
            if let Some(log) = &mut self.life_log {
                log.push(PrefetchLifeEvent::EvictedUnused {
                    line: evicted,
                    at: now,
                });
            }
        }
        self.tags[victim] = tag;
        self.fill_done[victim] = fill_done;
        self.last_use[victim] = now;
        self.reuse[victim] = reuse;
        self.flags[victim] = F_VALID | if from_prefetch { F_PREFETCH } else { 0 };
        true
    }

    /// LRU victim, preferring ways whose fill already completed so that
    /// in-flight fills are not silently clobbered. Returns a SoA slot
    /// index (`set * ways + way`).
    fn pick_victim(&self, set: usize, now: Cycle) -> usize {
        let base = set * self.ways;
        let mut filled_lru: Option<usize> = None;
        let mut any_lru: Option<usize> = None;
        for i in base..base + self.ways {
            if self.flags[i] & F_VALID == 0 {
                return i;
            }
            // First-minimum semantics: strictly-less keeps the earliest way
            // on ties, matching an LRU scan in way order.
            if self.fill_done[i] <= now
                && filled_lru.is_none_or(|b| self.last_use[i] < self.last_use[b])
            {
                filled_lru = Some(i);
            }
            if any_lru.is_none_or(|b| self.last_use[i] < self.last_use[b]) {
                any_lru = Some(i);
            }
        }
        // Every way is mid-fill (pathological): fall back to plain LRU.
        #[expect(
            clippy::expect_used,
            reason = "CacheConfig::validate rejects ways == 0, so the scan above always selects a way"
        )]
        filled_lru.or(any_lru).expect("ways is non-empty")
    }

    /// Victim selection under [`RetentionPolicy::ScoredReuse`] — the
    /// buffets-style explicitly-managed fill/shrink decision:
    ///
    /// 1. an invalid way is always filled;
    /// 2. a filled way whose score is exhausted (`reuse == 0`) is evicted
    ///    LRU-first — identical to what [`RetentionPolicy::Lru`] would do,
    ///    which is why all-zero scores reproduce LRU bit for bit;
    /// 3. otherwise the weakest *evictable* resident (min score, LRU
    ///    tie-break) is evicted only if the incoming score strictly beats
    ///    it — else the fill is rejected (`Err` carries the weakest way so
    ///    the caller can age it). With `protect_active` (the shrink-capable
    ///    NSB), a speculative line that has not yet seen its demand and
    ///    still carries score is an **active-window line** — the runahead
    ///    thread only resolves targets inside the lookahead horizon, so its
    ///    demand is imminent — and never competes for eviction; letting a
    ///    freshly pinned hub clobber it converts a timely prefetch into a
    ///    demand miss. When every filled way is such a line the fill is
    ///    rejected and the weakest ages, so a set full of mispredicted
    ///    "imminent" lines drains deterministically.
    ///
    /// The all-mid-fill pathological case falls back to [`Cache::pick_victim`]'s
    /// plain-LRU behaviour. Returns SoA slot indices.
    fn pick_victim_scored(
        &self,
        set: usize,
        now: Cycle,
        incoming: u32,
        protect_active: bool,
    ) -> Result<usize, usize> {
        let base = set * self.ways;
        // Local set-sized slices: the scan runs once per install, and
        // bounds-check-free indexing measurably matters there.
        let flags = &self.flags[base..base + self.ways];
        let fill_done = &self.fill_done[base..base + self.ways];
        let reuse = &self.reuse[base..base + self.ways];
        let last_use = &self.last_use[base..base + self.ways];
        let mut exhausted_lru: Option<usize> = None;
        // First pass: an invalid way is taken on sight, and an exhausted
        // (reuse == 0) way preempts everything the second pass computes.
        // Both are the common steady-state outcomes, so the expensive
        // weakest-resident ranking below runs only when neither exists.
        for i in 0..self.ways {
            if flags[i] & F_VALID == 0 {
                return Ok(base + i);
            }
            if fill_done[i] > now {
                continue;
            }
            if reuse[i] == 0 && exhausted_lru.is_none_or(|b| last_use[i] < last_use[b]) {
                exhausted_lru = Some(i);
            }
        }
        if let Some(i) = exhausted_lru {
            return Ok(base + i);
        }
        let mut weakest_evictable: Option<usize> = None;
        let mut weakest_filled: Option<usize> = None;
        // Keys are (reuse, last_use) lexicographic with first-minimum
        // semantics, matching a min_by_key scan in way order.
        let weaker = |i: usize, b: usize| (reuse[i], last_use[i]) < (reuse[b], last_use[b]);
        for i in 0..self.ways {
            if fill_done[i] > now {
                continue;
            }
            let active_window =
                protect_active && flags[i] & (F_PREFETCH | F_DEMANDED) == F_PREFETCH;
            if !active_window && weakest_evictable.is_none_or(|b| weaker(i, b)) {
                weakest_evictable = Some(i);
            }
            if weakest_filled.is_none_or(|b| weaker(i, b)) {
                weakest_filled = Some(i);
            }
        }
        match weakest_evictable {
            Some(i) if incoming > reuse[i] => Ok(base + i),
            Some(i) => Err(base + i),
            None => match weakest_filled {
                Some(i) => Err(base + i),
                None => Ok(self.pick_victim(set, now)),
            },
        }
    }

    /// Raises a resident `line`'s predicted-reuse score to at least
    /// `reuse` — how a *redundant* scored prefetch keeps a hot line
    /// pinned: later runahead windows re-observe the line with a larger
    /// remaining-touch forecast, and without the refresh the score would
    /// only ever decay (one per demand hit) until the line became
    /// evictable mid-stream. A no-op under [`RetentionPolicy::Lru`]
    /// (scores must stay 0 for the LRU-equivalence invariant) and for
    /// absent or mid-fill-refilled lines.
    pub fn refresh_reuse(&mut self, line: LineAddr, reuse: u32) {
        if self.cfg.policy == RetentionPolicy::Lru {
            return;
        }
        if let Some(i) = self.find_way(line) {
            self.reuse[i] = self.reuse[i].max(reuse);
        }
    }

    /// Counts resident prefetched-but-never-demanded lines into the stats.
    ///
    /// Call once at the end of a simulation so that accuracy denominators
    /// include prefetches that were still resident (and unused) at the end.
    pub fn finalize_stats(&mut self) {
        let unused = self
            .flags
            .iter()
            .filter(|&&f| f & (F_VALID | F_PREFETCH | F_DEMANDED) == F_VALID | F_PREFETCH)
            .count() as u64;
        self.stats.prefetch_resident_unused.add(unused);
    }

    /// Record a prefetch acceptance in the stats (called by the hierarchy).
    pub(crate) fn note_prefetch_issued(&mut self) {
        self.stats.prefetch_issued.inc();
    }

    /// Record a redundant prefetch in the stats (called by the hierarchy).
    pub(crate) fn note_prefetch_redundant(&mut self) {
        self.stats.prefetch_redundant.inc();
    }

    /// Record a dropped prefetch in the stats (called by the hierarchy).
    pub(crate) fn note_prefetch_dropped(&mut self) {
        self.stats.prefetch_dropped.inc();
    }
}

#[cfg(test)]
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "each test asserts one variant and panics on every other"
)]
mod tests {
    use super::*;
    use crate::config::KIB;

    fn tiny_cache(ways: u64, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 4,
            mshr_entries: 2,
            policy: RetentionPolicy::Lru,
        })
    }

    fn tiny_scored(ways: u64, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 4,
            mshr_entries: 2,
            policy: RetentionPolicy::ScoredReuse,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x10);
        assert_eq!(c.probe(line, 0, true), ProbeResult::Miss);
        c.install(line, 50, false, 0);
        match c.probe(line, 60, true) {
            ProbeResult::Hit { ready_at } => assert_eq!(ready_at, 64),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().demand_hits.get(), 1);
        assert_eq!(c.stats().demand_misses.get(), 1);
    }

    #[test]
    fn inflight_merge_reports_fill_time() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x10);
        c.probe(line, 0, true);
        c.install(line, 100, false, 0);
        match c.probe(line, 10, true) {
            ProbeResult::InFlight { ready_at, .. } => assert_eq!(ready_at, 100),
            other => panic!("expected in-flight, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_merges.get(), 1);
    }

    #[test]
    fn prefetch_useful_accounting() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x20);
        c.install(line, 10, true, 0);
        // First demand marks the prefetch useful, once.
        c.probe(line, 20, true);
        c.probe(line, 30, true);
        assert_eq!(c.stats().prefetch_useful.get(), 1);
        assert_eq!(c.stats().prefetch_late.get(), 0);
    }

    #[test]
    fn late_prefetch_counts_as_late_useful() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x20);
        c.install(line, 100, true, 0);
        match c.probe(line, 10, true) {
            ProbeResult::InFlight {
                ready_at,
                fill_was_prefetch,
            } => {
                assert_eq!(ready_at, 100);
                assert!(fill_was_prefetch);
            }
            other => panic!("expected in-flight, got {other:?}"),
        }
        assert_eq!(c.stats().prefetch_useful.get(), 1);
        assert_eq!(c.stats().prefetch_late.get(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny_cache(2, 1); // one set, two ways
        let a = LineAddr::new(1);
        let b = LineAddr::new(2);
        let d = LineAddr::new(3);
        c.install(a, 0, false, 0);
        c.install(b, 0, false, 1);
        c.probe(a, 10, true); // a is now MRU
        c.install(d, 20, false, 11); // must evict b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
        assert_eq!(c.stats().evictions.get(), 1);
    }

    #[test]
    fn eviction_of_unused_prefetch_is_counted() {
        let mut c = tiny_cache(1, 1);
        c.install(LineAddr::new(1), 0, true, 0);
        c.install(LineAddr::new(2), 0, false, 1);
        assert_eq!(c.stats().prefetch_evicted_unused.get(), 1);
    }

    #[test]
    fn mshr_capacity_tracking() {
        let mut c = tiny_cache(4, 4); // mshr_entries = 2
        c.install(LineAddr::new(1), 100, false, 0);
        assert!(c.mshr_available(0));
        c.install(LineAddr::new(2), 120, false, 0);
        assert!(!c.mshr_available(0));
        assert_eq!(c.mshr_free_at(0), 100);
        // After the first fill lands, a slot frees.
        assert!(c.mshr_available(100));
        assert_eq!(c.mshr_free_at(100), 100);
    }

    #[test]
    fn mshr_slot_recycling() {
        let mut c = tiny_cache(4, 4);
        c.install(LineAddr::new(1), 10, false, 0);
        c.install(LineAddr::new(2), 20, false, 0);
        // Both done by cycle 30; new installs reuse slots rather than grow.
        c.install(LineAddr::new(3), 40, false, 30);
        c.install(LineAddr::new(4), 50, false, 30);
        assert_eq!(c.mshr_pending(30), 2);
        assert!(c.inflight.len() <= 2, "slots must be recycled");
    }

    #[test]
    fn mshr_free_at_selects_pending_rank_beyond_capacity() {
        // The inflight file can transiently exceed mshr_entries when a
        // stalled demand installs at `now` with a future issue slot; the
        // freeing rank is then the (pending - entries + 1)-th completion.
        let mut c = tiny_cache(4, 4); // mshr_entries = 2
        c.install(LineAddr::new(1), 100, false, 0);
        c.install(LineAddr::new(2), 120, false, 0);
        c.install(LineAddr::new(3), 110, false, 0); // grows the file to 3
        assert_eq!(c.mshr_pending(0), 3);
        // Ranks at 100, 110, 120: with 2 entries, a slot frees at the
        // 2nd-smallest pending completion.
        assert_eq!(c.mshr_free_at(0), 110);
        assert_eq!(c.mshr_free_at(105), 110);
        assert_eq!(c.mshr_free_at(110), 110);
    }

    #[test]
    fn finalize_counts_resident_unused_prefetches() {
        let mut c = tiny_cache(2, 2);
        c.install(LineAddr::new(1), 0, true, 0);
        c.install(LineAddr::new(2), 0, true, 0);
        c.probe(LineAddr::new(1), 5, true);
        c.finalize_stats();
        assert_eq!(c.stats().prefetch_resident_unused.get(), 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(CacheConfig::l2_default().with_size(16 * KIB));
        let sets = c.config().sets();
        // Lines mapping to different sets never evict each other.
        for i in 0..sets {
            c.install(LineAddr::new(i), 0, false, 0);
        }
        for i in 0..sets {
            assert!(c.contains(LineAddr::new(i)));
        }
        assert_eq!(c.stats().evictions.get(), 0);
    }

    #[test]
    fn non_power_of_two_set_count_uses_division_path() {
        // 3 sets: the mask/shift fast path must not engage.
        let mut c = tiny_cache(2, 3);
        assert_eq!(c.config().sets(), 3);
        for i in 0..6u64 {
            c.install(LineAddr::new(i), 0, false, 0);
        }
        for i in 0..6u64 {
            assert!(c.contains(LineAddr::new(i)), "line {i}");
        }
        assert_eq!(c.stats().evictions.get(), 0);
    }

    #[test]
    fn scored_rejects_fill_that_does_not_beat_residents() {
        let mut c = tiny_scored(1, 1);
        let hot = LineAddr::new(1);
        assert!(c.install_speculative_scored(hot, 0, 0, 0, 3));
        // Equal score does not displace the resident: reject + shrink.
        assert!(!c.install_speculative_scored(LineAddr::new(2), 0, 1, 0, 3));
        assert!(c.contains(hot));
        assert!(!c.contains(LineAddr::new(2)));
        assert_eq!(c.stats().retention_rejected.get(), 1);
        // The rejected fill never entered the lifetime accounting.
        assert_eq!(c.stats().evictions.get(), 0);
    }

    #[test]
    fn scored_evicts_strictly_weaker_resident() {
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 0, 2);
        // Spend the resident's active-window protection: once demanded it
        // competes on score alone (2 -> 1 after the hit).
        c.probe(LineAddr::new(1), 5, true);
        assert!(c.install_speculative_scored(LineAddr::new(2), 0, 6, 0, 5));
        assert!(!c.contains(LineAddr::new(1)));
        assert!(c.contains(LineAddr::new(2)));
        assert_eq!(c.stats().retention_rejected.get(), 0);
    }

    #[test]
    fn scored_never_evicts_undemanded_speculative_resident() {
        // An active-window line — speculative, not yet demanded, score
        // remaining — is rejected against rather than evicted, no matter
        // how strong the incoming fill is.
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 0, 1);
        assert!(!c.install_speculative_scored(LineAddr::new(2), 0, 1, 0, 100));
        assert!(c.contains(LineAddr::new(1)));
        assert_eq!(c.stats().retention_rejected.get(), 1);
    }

    #[test]
    fn rejections_age_the_weakest_resident_until_it_drains() {
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 0, 2);
        let probe = LineAddr::new(2);
        // Two rejections age the resident 2 -> 1 -> 0; the third fill then
        // takes the exhausted-score LRU path and lands.
        assert!(!c.install_speculative_scored(probe, 0, 1, 0, 0));
        assert!(!c.install_speculative_scored(probe, 0, 2, 0, 0));
        assert!(c.install_speculative_scored(probe, 0, 3, 0, 0));
        assert!(c.contains(probe));
        assert_eq!(c.stats().retention_rejected.get(), 2);
    }

    #[test]
    fn demand_hits_decay_the_score() {
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 0, 2);
        // Each demand touch spends one predicted use.
        c.probe(LineAddr::new(1), 5, true);
        c.probe(LineAddr::new(1), 6, true);
        // Score exhausted: a zero-score fill now evicts it LRU-style.
        assert!(c.install_speculative_scored(LineAddr::new(2), 0, 7, 0, 0));
        assert!(c.contains(LineAddr::new(2)));
        assert_eq!(c.stats().retention_rejected.get(), 0);
    }

    #[test]
    fn scored_with_zero_scores_matches_lru_bit_for_bit() {
        // Same operation sequence against both policies; with all scores
        // zero the scored cache must reproduce LRU exactly.
        let mut lru = tiny_cache(2, 1);
        let mut scored = tiny_scored(2, 1);
        for c in [&mut lru, &mut scored] {
            c.install(LineAddr::new(1), 0, false, 0);
            c.install(LineAddr::new(2), 5, true, 1);
            c.probe(LineAddr::new(1), 10, true);
            c.install(LineAddr::new(3), 20, false, 11); // evicts 2
            c.probe(LineAddr::new(2), 30, true); // miss
            c.finalize_stats();
        }
        for line in [1u64, 2, 3] {
            assert_eq!(
                lru.contains(LineAddr::new(line)),
                scored.contains(LineAddr::new(line))
            );
        }
        let (mut a, mut b) = (lru.stats().clone(), scored.stats().clone());
        a.name = "X";
        b.name = "X";
        assert_eq!(a, b);
    }

    #[test]
    fn lru_ignores_scores() {
        // Same operation sequence against two LRU caches, one fed non-zero
        // scores and one zeros: an LRU level must not act on the scores a
        // scoring prefetcher sends it.
        let mut scored = tiny_cache(2, 1);
        let mut zeros = tiny_cache(2, 1);
        for (c, s) in [(&mut scored, 1u32), (&mut zeros, 0)] {
            assert!(c.install_speculative_scored(LineAddr::new(1), 5, 0, 0, 9 * s));
            assert!(c.install_speculative_scored(LineAddr::new(2), 6, 1, 0, s));
            c.refresh_reuse(LineAddr::new(1), 20 * s);
            c.probe(LineAddr::new(2), 10, true);
            // Line 1 is least recent: evicted despite its score, where a
            // scored level would reject the zero-score fill instead.
            assert!(c.install_speculative_scored(LineAddr::new(3), 20, 11, 0, 0));
            assert_eq!(c.probe(LineAddr::new(1), 30, true), ProbeResult::Miss);
            c.install(LineAddr::new(1), 40, false, 30); // evicts 2
            c.refresh_reuse(LineAddr::new(3), 7 * s);
            c.finalize_stats();
        }
        for line in [1u64, 2, 3] {
            let line = LineAddr::new(line);
            assert_eq!(scored.contains(line), zeros.contains(line));
        }
        assert!(!scored.contains(LineAddr::new(2)));
        assert_eq!(scored.stats(), zeros.stats());
    }

    #[test]
    fn scored_never_clobbers_midfill_line_when_filled_victim_exists() {
        let mut c = tiny_scored(2, 1);
        c.install_speculative_scored(LineAddr::new(1), 100, 0, 0, 4); // mid-fill until 100
        c.install_speculative_scored(LineAddr::new(2), 0, 1, 0, 0); // filled, score 0
                                                                    // Incoming fill must pick the exhausted filled way, not the
                                                                    // high-score in-flight one.
        assert!(c.install_speculative_scored(LineAddr::new(3), 0, 10, 0, 1));
        assert!(c.contains(LineAddr::new(1)));
        assert!(!c.contains(LineAddr::new(2)));
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut c = tiny_cache(2, 2);
        c.install(LineAddr::new(7), 0, false, 0);
        let before = c.stats().clone();
        assert!(c.contains(LineAddr::new(7)));
        assert!(!c.contains(LineAddr::new(9)));
        assert_eq!(&before, c.stats());
    }

    #[test]
    fn swap_life_events_recycles_buffers() {
        let mut c = tiny_cache(2, 2);
        c.enable_life_log();
        c.install(LineAddr::new(1), 10, true, 0);
        let mut buf = Vec::new();
        c.swap_life_events(&mut buf);
        assert_eq!(buf.len(), 1, "issued event drained");
        buf.clear();
        c.swap_life_events(&mut buf);
        assert!(buf.is_empty(), "second drain is empty");
        // Without the log enabled the swap is a no-op.
        let mut off = tiny_cache(2, 2);
        let mut keep = vec![PrefetchLifeEvent::EvictedUnused {
            line: LineAddr::new(9),
            at: 1,
        }];
        off.swap_life_events(&mut keep);
        assert_eq!(keep.len(), 1);
    }
}
