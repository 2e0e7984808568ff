//! IMP: the Indirect Memory Prefetcher (Yu et al., MICRO'15).
//!
//! IMP observes pairs of (index value, subsequent miss address) and tries
//! to learn an affine mapping `target = base + (value << shift)`. Once a
//! mapping is locked, every index value it sees — including values it reads
//! *ahead* out of already-resident index lines — produces a target prefetch
//! `DISTANCE` elements before the NPU's gather reaches it.
//!
//! Mechanistic limits reproduced here, which drive its Fig. 5/6 standing:
//!
//! * non-affine chains (voxel-hash table lookups) never lock, so point-cloud
//!   workloads get only the index-stream prefetches;
//! * the lead time is bounded by `DISTANCE` index elements, far shorter than
//!   a runahead prefetcher's reach, costing timeliness (coverage);
//! * a locked mapping is verified against later misses and unlocked on
//!   repeated mismatch, so a workload phase change retrains.

use std::collections::VecDeque;

use nvr_common::{Addr, Cycle};
use nvr_mem::MemorySystem;
use nvr_trace::{AccessEvent, EventKind, MemoryImage, SnoopState};

use crate::api::Prefetcher;
use crate::rpt::StrideEntry;

/// Index elements of lead: on seeing index element `p`, prefetch the
/// target of element `p + DISTANCE` (when its value is resident).
const DISTANCE: u64 = 16;
/// Largest `shift` considered when learning `base + (value << shift)`.
const MAX_SHIFT: u32 = 12;
/// Candidate-table capacity.
const CANDIDATES: usize = 64;
/// Consecutive prediction mismatches before a locked mapping unlocks.
const UNLOCK_AFTER: u32 = 8;
/// Lines of index stream prefetched ahead.
const STREAM_DEGREE: u64 = 4;

/// Buckets of the candidate table's counting filter.
const FILTER_BUCKETS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Mapping {
    base: u64,
    shift: u32,
}

impl Mapping {
    /// The counting-filter bucket: a fixed multiplicative hash, top byte.
    fn bucket(self) -> usize {
        let mixed =
            (self.base.rotate_left(4) ^ u64::from(self.shift)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 56) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Candidate {
    mapping: Mapping,
    hits: u32,
}

/// The learning table: the `CANDIDATES` most recently inserted mappings,
/// evicted first-in first-out, with unique mappings.
///
/// A fixed ring replaces the oldest slot in place, and a counting filter
/// (entries per hash bucket; at most `CANDIDATES`, so a byte suffices)
/// answers most lookups without a scan: a zero bucket proves the mapping
/// is absent.
#[derive(Debug, Clone)]
struct CandidateTable {
    slots: [Candidate; CANDIDATES],
    len: usize,
    /// Once full, the oldest slot: the next one replaced.
    next: usize,
    filter: [u8; FILTER_BUCKETS],
}

impl CandidateTable {
    fn new() -> Self {
        CandidateTable {
            slots: [Candidate::default(); CANDIDATES],
            len: 0,
            next: 0,
            filter: [0; FILTER_BUCKETS],
        }
    }

    fn find_mut(&mut self, mapping: Mapping) -> Option<&mut Candidate> {
        if self.filter[mapping.bucket()] == 0 {
            return None;
        }
        self.slots[..self.len]
            .iter_mut()
            .find(|c| c.mapping == mapping)
    }

    /// Inserts an absent `mapping` with one hit, evicting the oldest entry
    /// when full.
    fn insert(&mut self, mapping: Mapping) {
        let slot = if self.len < CANDIDATES {
            self.len += 1;
            self.len - 1
        } else {
            let slot = self.next;
            self.next = (slot + 1) % CANDIDATES;
            self.filter[self.slots[slot].mapping.bucket()] -= 1;
            slot
        };
        self.slots[slot] = Candidate { mapping, hits: 1 };
        self.filter[mapping.bucket()] += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
        self.filter = [0; FILTER_BUCKETS];
    }

    /// The entries oldest first.
    #[cfg(test)]
    fn in_order(&self) -> Vec<Candidate> {
        let (newer, older) = self.slots[..self.len].split_at(self.next);
        older.iter().chain(newer).copied().collect()
    }
}

/// The IMP prefetcher.
///
/// # Examples
///
/// ```
/// use nvr_prefetch::{ImpPrefetcher, Prefetcher};
///
/// let p = ImpPrefetcher::default();
/// assert_eq!(p.name(), "IMP");
/// ```
#[derive(Debug, Clone)]
pub struct ImpPrefetcher {
    /// Stride tracking of the index-load address stream.
    index_stride: StrideEntry,
    /// Recently observed index values (for correlation learning). A ring
    /// buffer: one arrives per index load, so evicting the oldest must not
    /// shift the other 31.
    recent_values: VecDeque<u32>,
    candidates: CandidateTable,
    locked: Option<Mapping>,
    mismatches: u32,
}

impl ImpPrefetcher {
    /// The learned mapping, if locked (exposed for tests and reporting).
    #[must_use]
    pub fn locked_mapping(&self) -> Option<(u64, u32)> {
        self.locked.map(|m| (m.base, m.shift))
    }

    /// Remembers an index value for correlation learning.
    fn record_value(&mut self, value: u32) {
        self.recent_values.push_back(value);
        if self.recent_values.len() > 32 {
            self.recent_values.pop_front();
        }
    }

    /// A gather missed at `addr`: checks the locked mapping, or learns
    /// from the miss when unlocked.
    fn on_missed_gather(&mut self, addr: Addr) {
        if self.locked.is_some() {
            self.verify(addr);
        } else {
            self.learn(addr);
        }
    }

    fn learn(&mut self, miss_addr: Addr) {
        for &v in self.recent_values.iter().rev().take(2) {
            for shift in 0..=MAX_SHIFT {
                let scaled = u64::from(v) << shift;
                let Some(base) = miss_addr.raw().checked_sub(scaled) else {
                    continue;
                };
                let mapping = Mapping { base, shift };
                if let Some(c) = self.candidates.find_mut(mapping) {
                    c.hits += 1;
                    if c.hits >= 2 && shift > 0 {
                        self.locked = Some(mapping);
                        self.mismatches = 0;
                        return;
                    }
                } else {
                    self.candidates.insert(mapping);
                }
            }
        }
    }

    fn verify(&mut self, miss_addr: Addr) {
        let Some(m) = self.locked else { return };
        let predicted = self
            .recent_values
            .iter()
            .rev()
            .take(8)
            .any(|&v| m.base + (u64::from(v) << m.shift) == miss_addr.raw());
        if predicted {
            self.mismatches = 0;
        } else {
            self.mismatches += 1;
            if self.mismatches >= UNLOCK_AFTER {
                self.locked = None;
                self.candidates.clear();
                self.mismatches = 0;
            }
        }
    }
}

impl Default for ImpPrefetcher {
    fn default() -> Self {
        ImpPrefetcher {
            index_stride: StrideEntry::new(),
            recent_values: VecDeque::with_capacity(33),
            candidates: CandidateTable::new(),
            locked: None,
            mismatches: 0,
        }
    }
}

impl Prefetcher for ImpPrefetcher {
    fn name(&self) -> &'static str {
        "IMP"
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        _snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        match event.kind {
            EventKind::IndexLoad { value } => {
                self.index_stride.update(event.addr);
                self.record_value(value);
                // Stream part: keep the index array itself flowing.
                if let Some(pred) = self.index_stride.predict(1) {
                    for k in 0..STREAM_DEGREE {
                        mem.prefetch_line(pred.line().step(k), event.cycle, false);
                    }
                }
                // Indirect part: prefetch the target `DISTANCE` ahead, using
                // the ahead-value only if its line is already on chip.
                if let Some(m) = self.locked {
                    let stride = self.index_stride.stride();
                    if stride > 0 {
                        let ahead_addr = Addr::new(event.addr.raw() + DISTANCE * stride as u64);
                        if mem.npu_side_contains(ahead_addr.line()) {
                            let v = image.read_u32(ahead_addr);
                            let target = Addr::new(m.base + (u64::from(v) << m.shift));
                            mem.prefetch_line(target.line(), event.cycle, false);
                        }
                    }
                }
            }
            EventKind::GatherLoad if event.missed => self.on_missed_gather(event.addr),
            _ => {}
        }
    }

    fn advance(
        &mut self,
        _from: Cycle,
        _to: Cycle,
        _snoop: &SnoopState,
        _image: &MemoryImage,
        _mem: &mut MemorySystem,
    ) {
        // IMP is event-driven; no decoupled speculative thread.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::Region;
    use nvr_mem::MemoryConfig;
    use nvr_trace::SnoopState;

    fn snoop() -> SnoopState {
        SnoopState {
            tile: 0,
            total_tiles: 1,
            index_base: Addr::new(0x1000),
            elem_start: 0,
            elem_end: 64,
            elem_consumed: 0,
            gather: None,
            npu_load_in_flight: true,
            sparse_unit_idle: true,
        }
    }

    /// Feeds IMP an affine indirect pattern and checks it locks and
    /// prefetches targets.
    #[test]
    fn locks_affine_mapping() {
        let mut p = ImpPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut image = MemoryImage::new();
        let ia_base = 0x100_0000u64;
        let row = 256u64; // shift = 8
        let indices: Vec<u32> = (0..64).map(|i| (i * 37) % 1000).collect();
        image.add_u32_segment(Addr::new(0x1000), indices.clone());
        let s = snoop();

        for (i, &v) in indices.iter().enumerate() {
            let index_addr = Addr::new(0x1000 + i as u64 * 4);
            // The engine loads the index element (value on the bus)...
            mem.demand_line(index_addr.line(), i as Cycle * 10);
            p.observe(
                &AccessEvent::index_load(i as Cycle * 10, 0, index_addr, v, false),
                &s,
                &image,
                &mut mem,
            );
            // ...then the gather for this element, which misses cold.
            let target = Addr::new(ia_base + u64::from(v) * row);
            let missed = !mem.npu_side_contains(target.line());
            mem.demand_line(target.line(), i as Cycle * 10 + 5);
            p.observe(
                &AccessEvent::gather(i as Cycle * 10 + 5, 0, target, missed),
                &s,
                &image,
                &mut mem,
            );
        }
        assert_eq!(p.locked_mapping(), Some((ia_base, 8)));
        // With the mapping locked, ahead-targets get prefetched: the DRAM
        // prefetch counter must have moved beyond the stream prefetches.
        assert!(mem.stats().l2.prefetch_issued.get() > 0);
        assert!(
            mem.stats().l2.prefetch_useful.get() > 10,
            "locked IMP should cover later gathers, useful={}",
            mem.stats().l2.prefetch_useful.get()
        );
    }

    /// A non-affine (hash-table) pattern must never lock.
    #[test]
    fn does_not_lock_non_affine() {
        let mut p = ImpPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let image = MemoryImage::new();
        let s = snoop();
        let mut rng = nvr_common::Pcg32::seed_from_u64(5);
        for i in 0..200u64 {
            let v = rng.next_u32() % 1000;
            p.observe(
                &AccessEvent::index_load(i * 10, 0, Addr::new(0x1000 + i * 4), v, false),
                &s,
                &image,
                &mut mem,
            );
            // Target unrelated to v: random placement.
            let target = Addr::new(0x100_0000 + rng.gen_range(1 << 24));
            p.observe(
                &AccessEvent::gather(i * 10 + 5, 0, target, true),
                &s,
                &image,
                &mut mem,
            );
        }
        assert_eq!(p.locked_mapping(), None);
    }

    /// A locked mapping unlocks when the pattern changes.
    #[test]
    fn unlocks_on_phase_change() {
        let mut p = ImpPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut image = MemoryImage::new();
        let indices: Vec<u32> = (0..128).collect();
        image.add_u32_segment(Addr::new(0x1000), indices.clone());
        let s = snoop();
        // Phase 1: affine with shift 8.
        for i in 0..32u64 {
            let v = indices[i as usize];
            p.observe(
                &AccessEvent::index_load(i, 0, Addr::new(0x1000 + i * 4), v, false),
                &s,
                &image,
                &mut mem,
            );
            p.observe(
                &AccessEvent::gather(i, 0, Addr::new(0x100_0000 + (u64::from(v) << 8)), true),
                &s,
                &image,
                &mut mem,
            );
        }
        assert!(p.locked_mapping().is_some());
        // Phase 2: random targets -> mismatch streak -> unlock.
        let mut rng = nvr_common::Pcg32::seed_from_u64(6);
        for i in 32..64u64 {
            p.observe(
                &AccessEvent::gather(i, 0, Addr::new(0x900_0000 + rng.gen_range(1 << 20)), true),
                &s,
                &image,
                &mut mem,
            );
        }
        assert_eq!(p.locked_mapping(), None);
    }

    /// The candidate table as a plain `Vec`, scanned linearly and evicted
    /// with `remove(0)`: the reference the ring and filter must match.
    #[derive(Default)]
    struct VecImp {
        recent_values: VecDeque<u32>,
        candidates: Vec<Candidate>,
        locked: Option<Mapping>,
        mismatches: u32,
    }

    impl VecImp {
        fn record_value(&mut self, value: u32) {
            self.recent_values.push_back(value);
            if self.recent_values.len() > 32 {
                self.recent_values.pop_front();
            }
        }

        fn on_missed_gather(&mut self, miss_addr: Addr) {
            let Some(m) = self.locked else {
                self.learn(miss_addr);
                return;
            };
            let predicted = self
                .recent_values
                .iter()
                .rev()
                .take(8)
                .any(|&v| m.base + (u64::from(v) << m.shift) == miss_addr.raw());
            if predicted {
                self.mismatches = 0;
            } else {
                self.mismatches += 1;
                if self.mismatches >= UNLOCK_AFTER {
                    self.locked = None;
                    self.candidates.clear();
                    self.mismatches = 0;
                }
            }
        }

        fn learn(&mut self, miss_addr: Addr) {
            for &v in self.recent_values.iter().rev().take(2) {
                for shift in 0..=MAX_SHIFT {
                    let scaled = u64::from(v) << shift;
                    let Some(base) = miss_addr.raw().checked_sub(scaled) else {
                        continue;
                    };
                    let mapping = Mapping { base, shift };
                    if let Some(c) = self.candidates.iter_mut().find(|c| c.mapping == mapping) {
                        c.hits += 1;
                        if c.hits >= 2 && shift > 0 {
                            self.locked = Some(mapping);
                            self.mismatches = 0;
                            return;
                        }
                    } else {
                        if self.candidates.len() == CANDIDATES {
                            self.candidates.remove(0);
                        }
                        self.candidates.push(Candidate { mapping, hits: 1 });
                    }
                }
            }
        }
    }

    /// The ring-and-filter table matches the `Vec` reference event for
    /// event on random streams: affine phases at every shift (which lock,
    /// except shift 0), non-affine phases (which fill and churn the table,
    /// and unlock a locked mapping), a small address space where unrelated
    /// candidates collide, and index values larger than the miss address
    /// (whose bases underflow and are skipped).
    #[test]
    fn candidate_table_matches_vec_reference() {
        let mut locks = 0;
        let mut unlocks = 0;
        for seed in 1..=4 {
            let mut rng = nvr_common::Pcg32::seed_from_u64(seed);
            let mut imp = ImpPrefetcher::default();
            let mut reference = VecImp::default();
            for _phase in 0..120 {
                let mode = rng.gen_range(4);
                let base = 0x100_0000 + rng.gen_range(1 << 24);
                let shift = rng.gen_range(u64::from(MAX_SHIFT) + 1);
                for _ in 0..rng.gen_range(200) {
                    let (value, addr) = match mode {
                        // Affine; an occasional stray miss in between.
                        0 => {
                            let v = rng.gen_range(4096);
                            let stray = rng.gen_range(8) == 0;
                            let addr = if stray {
                                rng.gen_range(1 << 30)
                            } else {
                                base + (v << shift)
                            };
                            (v, addr)
                        }
                        // Non-affine: target unrelated to the value.
                        1 => (rng.gen_range(4096), base + rng.gen_range(1 << 20)),
                        // Tiny values and addresses: candidates recur.
                        2 => (rng.gen_range(8), rng.gen_range(64)),
                        // Values above the miss address: bases underflow.
                        _ => (rng.gen_range(1 << 20), rng.gen_range(4096)),
                    };
                    let was_locked = imp.locked.is_some();
                    if rng.gen_range(4) != 0 {
                        imp.record_value(value as u32);
                        reference.record_value(value as u32);
                    }
                    imp.on_missed_gather(Addr::new(addr));
                    reference.on_missed_gather(Addr::new(addr));
                    assert_eq!(imp.locked, reference.locked, "seed {seed}");
                    assert_eq!(imp.mismatches, reference.mismatches, "seed {seed}");
                    assert_eq!(
                        imp.candidates.in_order(),
                        reference.candidates,
                        "seed {seed}"
                    );
                    match (was_locked, imp.locked.is_some()) {
                        (false, true) => locks += 1,
                        (true, false) => unlocks += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(
            locks > 20 && unlocks > 20,
            "{locks} locks, {unlocks} unlocks"
        );
    }

    #[test]
    fn index_region_helper_consistency() {
        // Guard: the test harness above assumes 4-byte index elements.
        let r = Region::new(Addr::new(0x1000), 16);
        assert_eq!(r.bytes() / 4, 4);
    }
}
