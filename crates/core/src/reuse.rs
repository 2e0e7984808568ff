//! Per-line predicted-reuse scoring for the NSB's DARE-style admission.
//!
//! The controller's window machinery resolves gather targets (rows of the
//! indirectly-addressed table) well ahead of the NPU. On power-law graph
//! workloads the same hub rows are resolved again and again across
//! neighbouring windows — exactly the lines worth pinning in the small
//! NSB — while the long tail of cold rows is touched once and never
//! again. [`ReusePredictor`] counts, per cache line, how many resolved
//! targets have touched it within a decaying horizon; the count is the
//! *predicted-reuse score* that rides each VMIG bundle entry
//! ([`crate::Vmig::push_bundle_scored`]) into the memory system, where
//! the NSB's [`nvr_mem::RetentionPolicy::ScoredReuse`] policy admits,
//! rejects (shrinks) and evicts on it.
//!
//! Determinism: the predictor is an open-addressing table keyed by line
//! index under a fixed hash (the splitmix64 finaliser) with a fixed decay
//! epoch — no [`std::collections::HashMap`] randomised state, no clocks —
//! so identical runs produce identical scores. The table form matters for
//! speed: `observe` runs once per resolved target line, and a pointer-
//! chasing map on that path dominated the NSB configurations' wall time.

use nvr_common::LineAddr;

/// Observations between decay steps. At each epoch boundary every count
/// halves (integer division) and exhausted entries are dropped, so a
/// phase change — a new tile neighbourhood with different hubs — washes
/// stale hub scores out within one epoch instead of pinning dead rows in
/// the NSB forever. 4096 observations ≈ 16 windows of 16-wide resolution
/// at 16 lanes: long enough to span the lookahead horizon, short enough
/// to track tile phases.
const DECAY_EPOCH: u32 = 4096;

/// Initial slot count; must be a power of two.
const INITIAL_SLOTS: usize = 1024;

/// An unoccupied slot's key marker. Line indices are byte addresses
/// shifted down by the line-size log, so `u64::MAX` cannot collide with a
/// real key.
const EMPTY: u64 = u64::MAX;

/// Counts resolved-target touches per line inside a decaying horizon.
///
/// # Examples
///
/// ```
/// use nvr_core::ReusePredictor;
/// use nvr_common::LineAddr;
///
/// let mut p = ReusePredictor::new();
/// assert_eq!(p.observe(LineAddr::new(7)), 1);
/// assert_eq!(p.observe(LineAddr::new(7)), 2);
/// assert_eq!(p.score(LineAddr::new(7)), 2);
/// assert_eq!(p.score(LineAddr::new(8)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReusePredictor {
    /// Line-index keys (`EMPTY` marks a free slot); linear probing from
    /// the key's hash, power-of-two capacity.
    keys: Vec<u64>,
    /// Touch counts parallel to `keys`.
    counts: Vec<u32>,
    /// Occupied slots.
    len: usize,
    /// Observations since the last decay step.
    since_decay: u32,
}

impl Default for ReusePredictor {
    fn default() -> Self {
        ReusePredictor {
            keys: vec![EMPTY; INITIAL_SLOTS],
            counts: vec![0; INITIAL_SLOTS],
            len: 0,
            since_decay: 0,
        }
    }
}

/// The splitmix64 finaliser: a fixed, statistically strong mix from line
/// index to probe start.
fn hash(key: u64) -> u64 {
    let mut h = key;
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl ReusePredictor {
    /// An empty predictor.
    #[must_use]
    pub fn new() -> Self {
        ReusePredictor::default()
    }

    /// Records one resolved gather target touching `line`; returns the
    /// line's updated score (its touch count within the current horizon,
    /// saturating).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the hash is masked to a slot index; dropping high bits is the intent"
    )]
    pub fn observe(&mut self, line: LineAddr) -> u32 {
        self.since_decay += 1;
        if self.since_decay >= DECAY_EPOCH {
            self.decay();
            self.since_decay = 0;
        }
        // Keep the load factor under 1/2 so probe chains stay short.
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let key = line.index();
        let mut slot = (hash(key) as usize) & mask;
        loop {
            if self.keys[slot] == key {
                self.counts[slot] = self.counts[slot].saturating_add(1);
                return self.counts[slot];
            }
            if self.keys[slot] == EMPTY {
                self.keys[slot] = key;
                self.counts[slot] = 1;
                self.len += 1;
                return 1;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The current score of `line` (0 if never observed this horizon).
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the hash is masked to a slot index; dropping high bits is the intent"
    )]
    pub fn score(&self, line: LineAddr) -> u32 {
        let mask = self.keys.len() - 1;
        let key = line.index();
        let mut slot = (hash(key) as usize) & mask;
        loop {
            if self.keys[slot] == key {
                return self.counts[slot];
            }
            if self.keys[slot] == EMPTY {
                return 0;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Lines currently holding a non-zero score.
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.len
    }

    /// Halves every count, dropping exhausted entries. Rebuilds the table
    /// (deletion under linear probing would otherwise need backward
    /// shifting); runs once per [`DECAY_EPOCH`] observations, so the
    /// rebuild amortises to a fraction of an observe.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the hash is masked to a slot index; dropping high bits is the intent"
    )]
    fn decay(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_counts = std::mem::take(&mut self.counts);
        self.keys = vec![EMPTY; old_keys.len()];
        self.counts = vec![0; old_keys.len()];
        self.len = 0;
        let mask = self.keys.len() - 1;
        for (key, count) in old_keys.into_iter().zip(old_counts) {
            if key == EMPTY || count / 2 == 0 {
                continue;
            }
            let mut slot = (hash(key) as usize) & mask;
            while self.keys[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.keys[slot] = key;
            self.counts[slot] = count / 2;
            self.len += 1;
        }
    }

    /// Doubles the slot count, rehashing every occupied entry.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the hash is masked to a slot index; dropping high bits is the intent"
    )]
    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; new_cap]);
        let mask = new_cap - 1;
        for (key, count) in old_keys.into_iter().zip(old_counts) {
            if key == EMPTY {
                continue;
            }
            let mut slot = (hash(key) as usize) & mask;
            while self.keys[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.keys[slot] = key;
            self.counts[slot] = count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_per_line() {
        let mut p = ReusePredictor::new();
        // A toy 4-node neighbourhood: node 0 is the hub (in-degree 3).
        // Edges resolve as target lines: (1->0) (2->0) (2->1) (3->0).
        let targets = [0u64, 0, 1, 0];
        let mut seen = Vec::new();
        for t in targets {
            seen.push(p.observe(LineAddr::new(t)));
        }
        // Exact running counts: hub line 0 reaches 3, line 1 stays at 1.
        assert_eq!(seen, vec![1, 2, 1, 3]);
        assert_eq!(p.score(LineAddr::new(0)), 3);
        assert_eq!(p.score(LineAddr::new(1)), 1);
        assert_eq!(p.score(LineAddr::new(2)), 0);
        assert_eq!(p.tracked(), 2);
    }

    #[test]
    fn admit_reject_sequence_at_threshold_two() {
        let mut p = ReusePredictor::new();
        let admit = 2u32;
        // Same toy graph; the admission decision is made per observation
        // with the *updated* score, so the hub is rejected on first touch
        // and admitted from its second touch onward.
        let decisions: Vec<bool> = [0u64, 0, 1, 0, 1, 2]
            .into_iter()
            .map(|t| p.observe(LineAddr::new(t)) >= admit)
            .collect();
        assert_eq!(decisions, vec![false, true, false, true, true, false]);
    }

    #[test]
    fn decay_halves_and_drops() {
        let mut p = ReusePredictor::new();
        for _ in 0..3 {
            p.observe(LineAddr::new(1));
        }
        p.observe(LineAddr::new(2));
        // Drive to the epoch boundary with a cold line.
        for _ in 0..(DECAY_EPOCH - 4) {
            p.observe(LineAddr::new(99));
        }
        // The decay ran inside the last observe: 3 -> 1, 1 -> 0 (dropped).
        assert_eq!(p.score(LineAddr::new(1)), 1);
        assert_eq!(p.score(LineAddr::new(2)), 0);
        // The cold line's own count also halved.
        assert!(p.score(LineAddr::new(99)) > 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut p = ReusePredictor::new();
        let mut c = ReusePredictor::new();
        for _ in 0..3 {
            c.observe(LineAddr::new(5));
        }
        // Force the stored count to the ceiling, then observe once more.
        for count in &mut c.counts {
            if *count > 0 {
                *count = u32::MAX;
            }
        }
        assert_eq!(c.observe(LineAddr::new(5)), u32::MAX);
        // Normal path still exact.
        assert_eq!(p.observe(LineAddr::new(5)), 1);
    }

    #[test]
    fn growth_preserves_scores() {
        let mut p = ReusePredictor::new();
        // Insert enough distinct lines to force several growth rebuilds
        // (staying under one decay epoch), then verify every score.
        for i in 0..2000u64 {
            p.observe(LineAddr::new(i));
            p.observe(LineAddr::new(i));
        }
        assert_eq!(p.tracked(), 2000);
        for i in 0..2000u64 {
            assert_eq!(p.score(LineAddr::new(i)), 2, "line {i}");
        }
    }
}
