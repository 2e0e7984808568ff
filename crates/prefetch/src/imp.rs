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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    base: u64,
    shift: u32,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    mapping: Mapping,
    hits: u32,
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
    candidates: Vec<Candidate>,
    locked: Option<Mapping>,
    mismatches: u32,
}

impl ImpPrefetcher {
    /// The learned mapping, if locked (exposed for tests and reporting).
    #[must_use]
    pub fn locked_mapping(&self) -> Option<(u64, u32)> {
        self.locked.map(|m| (m.base, m.shift))
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
            candidates: Vec::new(),
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
                self.recent_values.push_back(value);
                if self.recent_values.len() > 32 {
                    self.recent_values.pop_front();
                }
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
            EventKind::GatherLoad if event.missed => {
                if self.locked.is_some() {
                    self.verify(event.addr);
                } else {
                    self.learn(event.addr);
                }
            }
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

    #[test]
    fn index_region_helper_consistency() {
        // Guard: the test harness above assumes 4-byte index elements.
        let r = Region::new(Addr::new(0x1000), 16);
        assert_eq!(r.bytes() / 4, 4);
    }
}
