//! Property tests for the scored NSB retention policy: invariants that
//! must hold for *every* fill/shrink/probe sequence, not just the
//! calibrated workloads.
//!
//! Three properties lock the policy's contract:
//! 1. occupancy never exceeds the buffer's line capacity;
//! 2. with all-zero scores (admission threshold 0) the scored buffer is
//!    bit-for-bit the pure-LRU buffer — same residency, same stats;
//! 3. a fill/shrink decision never evicts an active-window line (a
//!    speculative fill with remaining score that has not yet seen its
//!    demand) — the runahead thread only resolves targets inside the
//!    lookahead horizon, so such a line's demand is imminent.
//!
//! A fourth, differential property checks the structure-of-arrays
//! `Cache` under [`RetentionPolicy::Lru`] against a deliberately naive
//! reference that keeps one recency-ordered list per set.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestRng;

use nvr::core::{nsb_config, nsb_scored};
use nvr::mem::{Cache, ProbeResult, RetentionPolicy};
use nvr::prelude::*;

/// One step of a randomly generated NSB op sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Speculative fill carrying a predicted-reuse score.
    Fill { line: u64, score: u32 },
    /// Demand probe (a hit consumes one predicted use).
    Probe { line: u64 },
}

/// Generates a random op sequence. The vendored proptest shim has no
/// `prop_oneof`/`prop_map`, so this implements its `Strategy` trait
/// directly: each element is a fair coin between a fill (uniform line,
/// uniform score in `0..=max_score`) and a demand probe (uniform line).
struct OpSeq {
    len: std::ops::Range<usize>,
    lines: u64,
    max_score: u32,
}

impl Strategy for OpSeq {
    type Value = Vec<Op>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
        let span = (self.len.end - self.len.start) as u64;
        let len = self.len.start + rng.below(span) as usize;
        (0..len)
            .map(|_| {
                let line = rng.below(self.lines);
                if rng.next_u64() & 1 == 0 {
                    let score = rng.below(u64::from(self.max_score) + 1) as u32;
                    Op::Fill { line, score }
                } else {
                    Op::Probe { line }
                }
            })
            .collect()
    }
}

fn op_seq(max_score: u32) -> OpSeq {
    OpSeq {
        len: 1..200,
        lines: LINE_UNIVERSE,
        max_score,
    }
}

/// A 4 KB NSB-shaped buffer: 64 lines, 16 ways, 4 sets — small enough
/// that random sequences generate real eviction pressure.
const NSB_KIB: u64 = 4;
const LINE_UNIVERSE: u64 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: however the fill/shrink policy decides, the number of
    /// resident lines never exceeds the buffer's capacity.
    #[test]
    fn occupancy_never_exceeds_capacity(
        ops in op_seq(6),
    ) {
        let mut cache = Cache::new(nsb_scored(NSB_KIB));
        let capacity = (NSB_KIB * 1024 / 64) as usize;
        let mut touched = BTreeSet::new();
        for (now, op) in ops.iter().enumerate() {
            let now = now as Cycle;
            match *op {
                Op::Fill { line, score } => {
                    cache.install_speculative_scored(LineAddr::new(line), now, now, 0, score);
                    touched.insert(line);
                }
                Op::Probe { line } => {
                    cache.probe(LineAddr::new(line), now, true);
                }
            }
            let resident = touched
                .iter()
                .filter(|&&l| cache.contains(LineAddr::new(l)))
                .count();
            prop_assert!(
                resident <= capacity,
                "{resident} resident lines exceed capacity {capacity}"
            );
        }
    }

    /// Property 2: admission threshold 0 means every fill carries score 0,
    /// and the scored buffer must then reproduce the pure-LRU buffer bit
    /// for bit — identical residency for every touched line and identical
    /// statistics after every sequence.
    #[test]
    fn zero_scores_reproduce_lru_bit_for_bit(
        ops in op_seq(0),
    ) {
        let mut lru = Cache::new(nsb_config(NSB_KIB));
        let mut scored = Cache::new(nsb_scored(NSB_KIB));
        for (now, op) in ops.iter().enumerate() {
            let now = now as Cycle;
            for cache in [&mut lru, &mut scored] {
                match *op {
                    Op::Fill { line, .. } => {
                        cache.install_speculative_scored(LineAddr::new(line), now, now, 0, 0);
                    }
                    Op::Probe { line } => {
                        cache.probe(LineAddr::new(line), now, true);
                    }
                }
            }
        }
        for line in 0..LINE_UNIVERSE {
            prop_assert_eq!(
                lru.contains(LineAddr::new(line)),
                scored.contains(LineAddr::new(line)),
                "line {} residency diverged between LRU and scored-at-zero",
                line
            );
        }
        let (mut a, mut b) = (lru.stats().clone(), scored.stats().clone());
        a.name = "X";
        b.name = "X";
        prop_assert_eq!(a, b, "stats diverged between LRU and scored-at-zero");
    }

    /// Property 3: a fill/shrink decision never evicts an active-window
    /// line — one speculatively filled with a remaining score that has
    /// not yet been demanded. Such a line only leaves the buffer once its
    /// demand arrives (probe) or its score is aged to zero by rejections.
    ///
    /// Aging targets the weakest resident, which is not observable per
    /// line from outside, so the model keeps a sound *lower bound* on
    /// each active line's remaining score: install score minus every
    /// rejection since (each rejection ages at most one line by one).
    /// Any line whose lower bound is still >= 1 cannot have drained and
    /// therefore must still be resident.
    #[test]
    fn fill_never_evicts_active_window_line(
        ops in op_seq(6),
    ) {
        let mut cache = Cache::new(nsb_scored(NSB_KIB));
        // line -> (score at install, rejection count at install).
        let mut active: std::collections::BTreeMap<u64, (u32, u64)> =
            std::collections::BTreeMap::new();
        // Lines that have seen a demand while resident: a later prefetch
        // refill of such a line is accepted but does NOT restore its
        // active-window protection (the way stays `demanded` until it is
        // evicted and reinstalled fresh).
        let mut demanded: BTreeSet<u64> = BTreeSet::new();
        for (now, op) in ops.iter().enumerate() {
            let now = now as Cycle;
            match *op {
                Op::Fill { line, score } => {
                    // A demanded line that has since been evicted would be
                    // reinstalled fresh (and protected) by this fill.
                    demanded.retain(|&l| cache.contains(LineAddr::new(l)));
                    let accepted =
                        cache.install_speculative_scored(LineAddr::new(line), now, now, 0, score);
                    let rejects = cache.stats().retention_rejected.get();
                    if accepted && score >= 1 && !demanded.contains(&line) {
                        // A refresh of a resident line maxes the scores, so
                        // the incoming score is a valid lower bound either
                        // way.
                        active.insert(line, (score, rejects));
                    }
                    for (&l, &(s, r0)) in &active {
                        let aged = (rejects - r0) as u32;
                        if s.saturating_sub(aged) >= 1 {
                            prop_assert!(
                                cache.contains(LineAddr::new(l)),
                                "fill of line {} evicted active-window line {} \
                                 (score {}, aged {})",
                                line, l, s, aged
                            );
                        }
                    }
                }
                Op::Probe { line } => {
                    if cache.probe(LineAddr::new(line), now, true) != ProbeResult::Miss {
                        // Demand arrived: the line leaves the window and
                        // stays unprotected until evicted and refilled.
                        active.remove(&line);
                        demanded.insert(line);
                    }
                }
            }
        }
    }
}

/// One step of a random stream for the differential LRU test.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// A fill whose data arrives `delay` cycles after it is installed.
    Install {
        line: u64,
        delay: Cycle,
        prefetch: bool,
    },
    /// A lookup.
    Probe { line: u64, demand: bool },
}

/// Random install/probe streams over a small line universe.
struct CacheOps;

impl Strategy for CacheOps {
    type Value = Vec<CacheOp>;

    fn generate(&self, rng: &mut TestRng) -> Vec<CacheOp> {
        let len = 1 + rng.below(300) as usize;
        (0..len)
            .map(|_| {
                let line = rng.below(REF_UNIVERSE);
                let coin = rng.next_u64();
                if coin & 1 == 0 {
                    let delay = rng.below(12);
                    CacheOp::Install {
                        line,
                        delay,
                        prefetch: coin & 2 != 0,
                    }
                } else {
                    CacheOp::Probe {
                        line,
                        demand: coin & 2 != 0,
                    }
                }
            })
            .collect()
    }
}

/// Lines the differential test touches: more than the 12 or 16 lines
/// the test caches hold, so evictions are frequent.
const REF_UNIVERSE: u64 = 24;
const REF_WAYS: u64 = 4;

/// A resident line of the reference cache.
#[derive(Debug, Clone, Copy)]
struct RefLine {
    line: u64,
    fill_done: Cycle,
    prefetch: bool,
}

/// A deliberately naive LRU cache: one list per set, least recently
/// used first. Every access moves its line to the back; a fill into a
/// full set evicts the front-most line whose data has arrived, or the
/// front line when every fill is still outstanding.
struct RefLru {
    sets: Vec<Vec<RefLine>>,
    ways: usize,
    hit_latency: Cycle,
}

impl RefLru {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.size_bytes / 64 / cfg.ways;
        RefLru {
            sets: vec![Vec::new(); sets as usize],
            ways: cfg.ways as usize,
            hit_latency: cfg.hit_latency,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<RefLine> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn contains(&self, line: u64) -> bool {
        self.sets.iter().flatten().any(|l| l.line == line)
    }

    /// Moves `line` to the most recently used end of its set.
    fn touch(&mut self, line: u64) -> Option<&mut RefLine> {
        let set = self.set(line);
        let at = set.iter().position(|l| l.line == line)?;
        let entry = set.remove(at);
        set.push(entry);
        set.last_mut()
    }

    fn probe(&mut self, line: u64, now: Cycle) -> ProbeResult {
        let hit_latency = self.hit_latency;
        match self.touch(line) {
            None => ProbeResult::Miss,
            Some(l) if l.fill_done <= now => ProbeResult::Hit {
                ready_at: now + hit_latency,
            },
            Some(l) => ProbeResult::InFlight {
                ready_at: l.fill_done.max(now + hit_latency),
                fill_was_prefetch: l.prefetch,
            },
        }
    }

    fn install(&mut self, line: u64, fill_done: Cycle, prefetch: bool, now: Cycle) {
        if let Some(l) = self.touch(line) {
            l.fill_done = l.fill_done.min(fill_done);
            return;
        }
        let ways = self.ways;
        let set = self.set(line);
        if set.len() == ways {
            let victim = set.iter().position(|l| l.fill_done <= now).unwrap_or(0);
            set.remove(victim);
        }
        set.push(RefLine {
            line,
            fill_done,
            prefetch,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 4: on any install/probe stream, the LRU `Cache` and the
    /// naive reference return the same probe outcome and hold the same
    /// lines after every op, on a power-of-two set count (4) and on one
    /// that takes the division path (3). Time advances every op, so
    /// recency has no ties.
    #[test]
    fn lru_cache_matches_naive_reference(ops in CacheOps) {
        for sets in [3, 4] {
            let cfg = CacheConfig {
                name: "ref",
                size_bytes: sets * REF_WAYS * 64,
                ways: REF_WAYS,
                hit_latency: 3,
                mshr_entries: 8,
                policy: RetentionPolicy::Lru,
            };
            let mut cache = Cache::new(cfg.clone());
            let mut reference = RefLru::new(&cfg);
            for (i, op) in ops.iter().enumerate() {
                let now = 2 * i as Cycle;
                match *op {
                    CacheOp::Install { line, delay, prefetch } => {
                        cache.install(LineAddr::new(line), now + delay, prefetch, now);
                        reference.install(line, now + delay, prefetch, now);
                    }
                    CacheOp::Probe { line, demand } => {
                        let got = cache.probe(LineAddr::new(line), now, demand);
                        let want = reference.probe(line, now);
                        prop_assert_eq!(got, want, "op {} ({:?}), {} sets", i, op, sets);
                    }
                }
                for line in 0..REF_UNIVERSE {
                    prop_assert_eq!(
                        cache.contains(LineAddr::new(line)),
                        reference.contains(line),
                        "line {} after op {} ({:?}), {} sets",
                        line, i, op, sets
                    );
                }
            }
        }
    }
}

/// One step of a random stream for the differential scored-retention
/// test. `dt` advances the clock before the op; it is often 0, so ways
/// share `last_use` stamps and the first-minimum tie-breaks decide.
#[derive(Debug, Clone, Copy)]
enum ScoredOp {
    /// A speculative fill carrying a predicted-reuse score.
    Prefetch {
        line: u64,
        dt: Cycle,
        delay: Cycle,
        score: u32,
    },
    /// A demand fill (score 0), which a scored level may also reject.
    Demand { line: u64, dt: Cycle, delay: Cycle },
    /// A lookup.
    Probe { line: u64, dt: Cycle, demand: bool },
    /// A redundant scored prefetch raising a resident line's score.
    Refresh { line: u64, dt: Cycle, score: u32 },
}

impl ScoredOp {
    fn dt(self) -> Cycle {
        match self {
            ScoredOp::Prefetch { dt, .. }
            | ScoredOp::Demand { dt, .. }
            | ScoredOp::Probe { dt, .. }
            | ScoredOp::Refresh { dt, .. } => dt,
        }
    }

    fn random(rng: &mut TestRng) -> Self {
        let line = rng.below(REF_UNIVERSE);
        let dt = rng.below(3).saturating_sub(1);
        let delay = rng.below(8);
        let score = rng.below(4) as u32;
        match rng.below(8) {
            0..=2 => ScoredOp::Prefetch {
                line,
                dt,
                delay,
                score,
            },
            3 => ScoredOp::Demand { line, dt, delay },
            4..=6 => ScoredOp::Probe {
                line,
                dt,
                demand: rng.below(4) != 0,
            },
            _ => ScoredOp::Refresh { line, dt, score },
        }
    }
}

/// A resident way of the scored reference.
#[derive(Debug, Clone, Copy)]
struct RefWay {
    line: u64,
    fill_done: Cycle,
    last_use: Cycle,
    reuse: u32,
    prefetch: bool,
    demanded: bool,
}

/// Which rule of the scored fill decision settled an install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rule {
    InvalidWay,
    ExhaustedLru,
    BeatsWeakest,
    Rejected,
    EvictWeakest,
    AllMidFillLru,
}

/// A deliberately naive scored cache: each set is a list of optional
/// ways in way order, and every decision is a filter plus a
/// `min_by_key`, which returns the first of equal minima — the
/// tie-break the structure-of-arrays `Cache` must reproduce.
struct RefScored {
    sets: Vec<Vec<Option<RefWay>>>,
    policy: RetentionPolicy,
    hit_latency: Cycle,
    rejected: u64,
}

impl RefScored {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.size_bytes / 64 / cfg.ways;
        RefScored {
            sets: vec![vec![None; cfg.ways as usize]; sets as usize],
            policy: cfg.policy,
            hit_latency: cfg.hit_latency,
            rejected: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<Option<RefWay>> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn find(&mut self, line: u64) -> Option<&mut RefWay> {
        self.set(line).iter_mut().flatten().find(|w| w.line == line)
    }

    fn contains(&self, line: u64) -> bool {
        self.sets.iter().flatten().flatten().any(|w| w.line == line)
    }

    fn probe(&mut self, line: u64, now: Cycle, demand: bool) -> ProbeResult {
        let hit_latency = self.hit_latency;
        let Some(w) = self.find(line) else {
            return ProbeResult::Miss;
        };
        w.last_use = now;
        if demand {
            w.demanded = true;
            w.reuse = w.reuse.saturating_sub(1);
        }
        if w.fill_done <= now {
            ProbeResult::Hit {
                ready_at: now + hit_latency,
            }
        } else {
            ProbeResult::InFlight {
                ready_at: w.fill_done.max(now + hit_latency),
                fill_was_prefetch: w.prefetch,
            }
        }
    }

    fn refresh(&mut self, line: u64, reuse: u32) {
        if let Some(w) = self.find(line) {
            w.reuse = w.reuse.max(reuse);
        }
    }

    /// Returns whether the fill was accepted and, for a miss, the rule
    /// that decided it.
    fn install(
        &mut self,
        line: u64,
        fill_done: Cycle,
        prefetch: bool,
        now: Cycle,
        reuse: u32,
    ) -> (bool, Option<Rule>) {
        if let Some(w) = self.find(line) {
            w.fill_done = w.fill_done.min(fill_done);
            w.last_use = now;
            w.reuse = w.reuse.max(reuse);
            return (true, None);
        }
        let protect = self.policy == RetentionPolicy::ScoredReuse;
        let set = self.set(line);
        let (victim, rule) = if let Some(i) = set.iter().position(Option::is_none) {
            (i, Rule::InvalidWay)
        } else {
            let ways: Vec<(usize, RefWay)> = set.iter().flatten().copied().enumerate().collect();
            let filled: Vec<(usize, RefWay)> = ways
                .iter()
                .copied()
                .filter(|(_, w)| w.fill_done <= now)
                .collect();
            let weakest = |c: &mut dyn Iterator<Item = (usize, RefWay)>| {
                c.min_by_key(|(_, w)| (w.reuse, w.last_use))
            };
            let exhausted = filled
                .iter()
                .copied()
                .filter(|(_, w)| w.reuse == 0)
                .min_by_key(|(_, w)| w.last_use);
            let evictable = weakest(
                &mut filled
                    .iter()
                    .copied()
                    .filter(|(_, w)| !(protect && w.prefetch && !w.demanded)),
            );
            match (exhausted, evictable, weakest(&mut filled.iter().copied())) {
                (Some((i, _)), _, _) => (i, Rule::ExhaustedLru),
                (None, Some((i, w)), _) if reuse > w.reuse => (i, Rule::BeatsWeakest),
                (None, Some((i, _)), _) | (None, None, Some((i, _))) if protect => {
                    if let Some(w) = set[i].as_mut() {
                        w.reuse = w.reuse.saturating_sub(1);
                    }
                    self.rejected += 1;
                    return (false, Some(Rule::Rejected));
                }
                (None, Some((i, _)), _) | (None, None, Some((i, _))) => (i, Rule::EvictWeakest),
                (None, None, None) => {
                    let lru = ways.iter().min_by_key(|(_, w)| w.last_use);
                    (lru.map_or(0, |&(i, _)| i), Rule::AllMidFillLru)
                }
            }
        };
        set[victim] = Some(RefWay {
            line,
            fill_done,
            last_use: now,
            reuse,
            prefetch,
            demanded: false,
        });
        (true, Some(rule))
    }
}

/// Property 5: under both scored policies, on any prefetch / demand /
/// probe / refresh stream, `Cache` and the naive reference agree on
/// every accept/reject, every probe outcome, the rejection count and
/// the residency of every line after every op. Clock steps of 0 make
/// equal keys common, so the first-minimum tie-breaks are exercised;
/// every rule of the fill decision must fire somewhere in the run.
#[test]
fn scored_cache_matches_naive_reference() {
    let mut rng = TestRng::from_name("scored_cache_matches_naive_reference");
    for policy in [RetentionPolicy::ScoredReuse, RetentionPolicy::ScoredEvict] {
        let mut fired = BTreeSet::new();
        for case in 0..64 {
            let ops: Vec<ScoredOp> = (0..1 + rng.below(300))
                .map(|_| ScoredOp::random(&mut rng))
                .collect();
            for sets in [3, 4] {
                let cfg = CacheConfig {
                    name: "ref",
                    size_bytes: sets * REF_WAYS * 64,
                    ways: REF_WAYS,
                    hit_latency: 3,
                    mshr_entries: 8,
                    policy,
                };
                let mut cache = Cache::new(cfg.clone());
                let mut reference = RefScored::new(&cfg);
                let mut now: Cycle = 0;
                for (i, &op) in ops.iter().enumerate() {
                    now += op.dt();
                    let at = format!("{policy:?}, case {case}, {sets} sets, op {i} ({op:?})");
                    match op {
                        ScoredOp::Prefetch {
                            line, delay, score, ..
                        } => {
                            let got = cache.install_speculative_scored(
                                LineAddr::new(line),
                                now + delay,
                                now,
                                0,
                                score,
                            );
                            let (want, rule) =
                                reference.install(line, now + delay, true, now, score);
                            assert_eq!(got, want, "accept/reject at {at}");
                            fired.extend(rule);
                        }
                        ScoredOp::Demand { line, delay, .. } => {
                            cache.install(LineAddr::new(line), now + delay, false, now);
                            let (_, rule) = reference.install(line, now + delay, false, now, 0);
                            fired.extend(rule);
                        }
                        ScoredOp::Probe { line, demand, .. } => {
                            let got = cache.probe(LineAddr::new(line), now, demand);
                            assert_eq!(got, reference.probe(line, now, demand), "probe at {at}");
                        }
                        ScoredOp::Refresh { line, score, .. } => {
                            cache.refresh_reuse(LineAddr::new(line), score);
                            reference.refresh(line, score);
                        }
                    }
                    assert_eq!(
                        cache.stats().retention_rejected.get(),
                        reference.rejected,
                        "rejections at {at}"
                    );
                    for line in 0..REF_UNIVERSE {
                        assert_eq!(
                            cache.contains(LineAddr::new(line)),
                            reference.contains(line),
                            "line {line} residency at {at}"
                        );
                    }
                }
            }
        }
        // A scored NSB rejects where an always-admit level evicts.
        let shrink_or_evict = if policy == RetentionPolicy::ScoredReuse {
            Rule::Rejected
        } else {
            Rule::EvictWeakest
        };
        let expected = BTreeSet::from([
            Rule::InvalidWay,
            Rule::ExhaustedLru,
            Rule::BeatsWeakest,
            shrink_or_evict,
            Rule::AllMidFillLru,
        ]);
        assert_eq!(fired, expected, "{policy:?}: rules the streams exercised");
    }
}
