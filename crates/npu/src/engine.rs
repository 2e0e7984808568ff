//! The cycle-stepped NPU execution engine.

use nvr_common::{Addr, Cycle};
use nvr_mem::{AccessOutcome, MemorySystem};
use nvr_prefetch::Prefetcher;
use nvr_trace::event::PC_TABLE_PROBE;
use nvr_trace::{AccessEvent, EventKind, NpuProgram, SnoopState, TileOp};

use crate::config::{ExecMode, NpuConfig};
use crate::result::RunResult;
use crate::sparse_unit::SparseUnit;
use crate::systolic::SystolicArray;

/// SIMD lanes / gather elements per vector load: the paper's N=16
/// (Table I), which is also the sparse unit's index-processing width.
const VECTOR_WIDTH: usize = 16;
/// Scratchpad capacity in bytes (Gemmini default: 256 KB). A tile's
/// operands are freed when it retires, so the capacity bounds each DMA
/// transfer, not their sum.
const SCRATCHPAD_BYTES: u64 = 256 * 1024;
/// DMA engine throughput, bytes per cycle.
const DMA_BYTES_PER_CYCLE: u64 = 32;
/// Coarse loads the load controller can issue per cycle.
const LOADS_PER_CYCLE: u64 = 1;
/// Tile-granular ROB window of [`ExecMode::OutOfOrder`]: loads for up to
/// this many upcoming tiles issue while earlier tiles compute.
const ROB_TILES: usize = 8;

/// The NPU engine: executes an [`NpuProgram`] against a memory system,
/// driving an attached prefetcher with events and idle windows.
///
/// # Examples
///
/// ```
/// use nvr_npu::{NpuConfig, NpuEngine};
/// use nvr_mem::{MemoryConfig, MemorySystem};
/// use nvr_prefetch::NullPrefetcher;
/// use nvr_trace::{MemoryImage, NpuProgram};
/// use nvr_common::DataWidth;
///
/// let engine = NpuEngine::new(NpuConfig::default());
/// let program = NpuProgram {
///     name: "empty".into(),
///     width: DataWidth::Int8,
///     tiles: vec![],
///     image: MemoryImage::new(),
/// };
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// let result = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
/// assert_eq!(result.total_cycles, 0);
/// ```
#[derive(Debug, Clone)]
pub struct NpuEngine {
    cfg: NpuConfig,
    systolic: SystolicArray,
}

/// Mutable per-run accounting shared by the execution modes.
#[derive(Debug, Default)]
struct Counters {
    compute_cycles: u64,
    gather_batches: u64,
    gather_batch_misses: u64,
    gather_elements: u64,
    gather_element_misses: u64,
    index_lines: u64,
    index_line_misses: u64,
}

impl NpuEngine {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        NpuEngine {
            cfg,
            systolic: SystolicArray::gemmini_default(),
        }
    }

    /// The configuration this engine was built with.
    #[must_use]
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// The systolic array whose timing this engine assumes; workload
    /// generators should size `compute_cycles` with the same array.
    #[must_use]
    pub fn systolic(&self) -> &SystolicArray {
        &self.systolic
    }

    /// Executes `program` to completion; returns timing and miss counts.
    ///
    /// The prefetcher observes every demand access and receives
    /// [`Prefetcher::advance`] windows covering stall and compute phases.
    pub fn run(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
    ) -> RunResult {
        match self.cfg.exec {
            ExecMode::InOrder => self.run_in_order(program, mem, prefetcher),
            ExecMode::OutOfOrder => self.run_out_of_order(program, mem, prefetcher),
        }
    }

    /// Starts a tile's dense operand DMA of `bytes` at `now`; returns the
    /// cycle it completes. The scratchpad's one DMA engine (next free at
    /// `dma_free`) serialises transfers, and the off-chip channel streams
    /// the same bytes in parallel.
    fn dma_in(dma_free: &mut Cycle, mem: &mut MemorySystem, now: Cycle, bytes: u64) -> Cycle {
        if bytes == 0 {
            return now;
        }
        let start = now.max(*dma_free);
        *dma_free = start + bytes.min(SCRATCHPAD_BYTES).div_ceil(DMA_BYTES_PER_CYCLE);
        (*dma_free).max(mem.dma_read_bytes(now, bytes))
    }

    fn snoop_for(
        program: &NpuProgram,
        tile: &TileOp,
        index_base: Addr,
        consumed_in_tile: u64,
        load_in_flight: bool,
        sparse_idle: bool,
    ) -> SnoopState {
        let elem_start = tile
            .index_region
            .start()
            .raw()
            .saturating_sub(index_base.raw())
            / 4;
        let elem_end = elem_start + tile.index_count() as u64;
        SnoopState {
            tile: tile.id,
            total_tiles: program.tiles.len(),
            index_base,
            elem_start,
            elem_end,
            elem_consumed: (elem_start + consumed_in_tile).min(elem_end),
            gather: tile.gather,
            npu_load_in_flight: load_in_flight,
            sparse_unit_idle: sparse_idle,
        }
    }

    /// Demand-loads the tile's index slice, emitting per-element events.
    /// Returns the cycle all index data is ready.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is a separate borrow of per-run state; a bundle struct would only rename them"
    )]
    fn load_index(
        &self,
        tile: &TileOp,
        program: &NpuProgram,
        snoop: &SnoopState,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
        issue_at: Cycle,
        counters: &mut Counters,
    ) -> Cycle {
        let mut ready = issue_at;
        if tile.index_region.is_empty() {
            return ready;
        }
        let values = tile.index_values(&program.image);
        let first_line = tile.index_region.start().line();
        let mut line_missed = Vec::new();
        for (k, line) in tile.index_region.lines().enumerate() {
            let t = issue_at + (k as u64) / LOADS_PER_CYCLE;
            let r = mem.demand_line(line, t);
            ready = ready.max(r.ready_at);
            counters.index_lines += 1;
            if r.outcome == AccessOutcome::Miss {
                counters.index_line_misses += 1;
            }
            line_missed.push(r.outcome == AccessOutcome::Miss);
        }
        for (p, &v) in values.iter().enumerate() {
            let addr = tile.index_region.start().offset(p as u64 * 4);
            let line_idx = (addr.line().index() - first_line.index()) as usize;
            let ev = AccessEvent::index_load(
                issue_at,
                tile.id,
                addr,
                v,
                line_missed.get(line_idx).copied().unwrap_or(false),
            );
            prefetcher.observe(&ev, snoop, &program.image, mem);
        }
        ready
    }

    /// Demand-loads one gather batch (probes first for two-level chains).
    /// Returns (issue cycle of the element loads, batch-complete cycle).
    #[expect(
        clippy::too_many_arguments,
        reason = "same per-run borrows as load_index, plus the batch and its issue cycle"
    )]
    fn load_batch(
        &self,
        tile: &TileOp,
        program: &NpuProgram,
        snoop: &SnoopState,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
        batch: &[nvr_trace::ResolvedGather],
        issue_at: Cycle,
        counters: &mut Counters,
    ) -> (Cycle, Cycle) {
        // Phase 1: table probes (dependency: targets need slot values).
        let mut elem_issue = issue_at;
        let two_level = batch.iter().any(|rg| rg.probe.is_some());
        if two_level {
            let mut probe_ready = issue_at;
            for rg in batch {
                if let Some(probe) = rg.probe {
                    let r = mem.demand_line(probe.line(), issue_at);
                    probe_ready = probe_ready.max(r.ready_at);
                    let ev = AccessEvent {
                        cycle: issue_at,
                        tile: tile.id,
                        pc: PC_TABLE_PROBE,
                        addr: probe,
                        kind: EventKind::TableProbe {
                            value: program.image.read_u32(probe),
                        },
                        missed: r.outcome == AccessOutcome::Miss,
                    };
                    prefetcher.observe(&ev, snoop, &program.image, mem);
                }
            }
            elem_issue = probe_ready;
        }
        // Phase 2: the element loads; the batch retires when all arrive.
        let mut batch_ready = elem_issue + mem.config().min_demand_latency();
        let mut any_missed = false;
        for rg in batch {
            let mut elem_missed = false;
            for line in rg.target.lines() {
                let r = mem.demand_line(line, elem_issue);
                batch_ready = batch_ready.max(r.ready_at);
                if r.outcome == AccessOutcome::Miss {
                    elem_missed = true;
                }
            }
            counters.gather_elements += 1;
            if elem_missed {
                counters.gather_element_misses += 1;
                any_missed = true;
            }
            let ev = AccessEvent::gather(elem_issue, tile.id, rg.target.start(), elem_missed);
            prefetcher.observe(&ev, snoop, &program.image, mem);
        }
        counters.gather_batches += 1;
        if any_missed {
            counters.gather_batch_misses += 1;
        }
        (elem_issue, batch_ready)
    }

    fn finish(
        program: &NpuProgram,
        prefetcher: &dyn Prefetcher,
        mem: &mut MemorySystem,
        total_cycles: Cycle,
        counters: Counters,
    ) -> RunResult {
        mem.finalize();
        RunResult {
            name: program.name.clone(),
            prefetcher: prefetcher.name(),
            total_cycles,
            compute_cycles: counters.compute_cycles,
            gather_batches: counters.gather_batches,
            gather_batch_misses: counters.gather_batch_misses,
            gather_elements: counters.gather_elements,
            gather_element_misses: counters.gather_element_misses,
            index_lines: counters.index_lines,
            index_line_misses: counters.index_line_misses,
            mem: mem.stats(),
            dram_utilisation: mem.dram().utilisation(total_cycles.max(1)),
            channel_utilisation: mem.dram().channel_utilisation(total_cycles.max(1)),
        }
    }

    fn run_in_order(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
    ) -> RunResult {
        let mut counters = Counters::default();
        let mut dma_free: Cycle = 0;
        let mut sparse_unit = SparseUnit::new(VECTOR_WIDTH);
        let index_base = program
            .tiles
            .first()
            .map_or(Addr::new(0), |t| t.index_region.start());
        let mut cycle: Cycle = 0;
        let mut last_drain: Cycle = 0;

        for tile in &program.tiles {
            let snoop = Self::snoop_for(program, tile, index_base, 0, true, true);
            let dma_done = Self::dma_in(&mut dma_free, mem, cycle, tile.dma_bytes);

            // Index loads.
            let index_ready =
                self.load_index(tile, program, &snoop, mem, prefetcher, cycle, &mut counters);
            prefetcher.advance(cycle, index_ready, &snoop, &program.image, mem);

            // Gather batches: strictly serialised (in-order blocking loads).
            let mut t = index_ready;
            if let Some(g) = tile.gather {
                let resolved = tile.resolved_gathers(&program.image);
                let mut consumed = 0u64;
                for batch in resolved.chunks(g.batch.max(1)) {
                    consumed += batch.len() as u64;
                    // The snooped progress pointer advances with each
                    // issued vector load.
                    let snoop = Self::snoop_for(program, tile, index_base, consumed, true, true);
                    let (issue, ready) = self.load_batch(
                        tile,
                        program,
                        &snoop,
                        mem,
                        prefetcher,
                        batch,
                        t,
                        &mut counters,
                    );
                    // The stall window is runahead opportunity.
                    prefetcher.advance(issue, ready, &snoop, &program.image, mem);
                    t = ready;
                }
            }

            // Compute: sparse unit aligns indices first, then the array runs.
            let compute_start = t.max(dma_done);
            let sparse_done = sparse_unit.process(compute_start, tile.index_count());
            let compute_end = compute_start + tile.compute_cycles;
            counters.compute_cycles += tile.compute_cycles;
            let idle_snoop = Self::snoop_for(
                program,
                tile,
                index_base,
                tile.index_count() as u64,
                false,
                true,
            );
            prefetcher.advance(
                sparse_done.min(compute_end),
                compute_end,
                &idle_snoop,
                &program.image,
                mem,
            );

            // Store: write buffer drains in the background.
            if tile.store_bytes > 0 {
                last_drain = last_drain.max(mem.store_bytes(compute_end, tile.store_bytes));
            }
            cycle = compute_end;
        }
        let total = cycle.max(last_drain);
        Self::finish(program, prefetcher, mem, total, counters)
    }

    fn run_out_of_order(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
    ) -> RunResult {
        let mut counters = Counters::default();
        let mut dma_free: Cycle = 0;
        let index_base = program
            .tiles
            .first()
            .map_or(Addr::new(0), |t| t.index_region.start());

        let mut load_free: Cycle = 0;
        let mut compute_free: Cycle = 0;
        let mut compute_starts: Vec<Cycle> = Vec::with_capacity(program.tiles.len());
        let mut last_drain: Cycle = 0;

        for (i, tile) in program.tiles.iter().enumerate() {
            let snoop = Self::snoop_for(program, tile, index_base, 0, true, true);
            // ROB gating: tile i's loads wait for tile i-ROB_TILES to start.
            let gate = if i >= ROB_TILES {
                compute_starts[i - ROB_TILES]
            } else {
                0
            };
            let issue_base = load_free.max(gate);
            let dma_done = Self::dma_in(&mut dma_free, mem, issue_base, tile.dma_bytes);

            let index_ready = self.load_index(
                tile,
                program,
                &snoop,
                mem,
                prefetcher,
                issue_base,
                &mut counters,
            );
            prefetcher.advance(issue_base, index_ready, &snoop, &program.image, mem);

            // Gathers: batches issue back-to-back without waiting for the
            // previous batch to complete (non-blocking vector loads).
            let mut data_ready = index_ready;
            let mut issue = index_ready;
            if let Some(g) = tile.gather {
                let resolved = tile.resolved_gathers(&program.image);
                for batch in resolved.chunks(g.batch.max(1)) {
                    let (_elem_issue, ready) = self.load_batch(
                        tile,
                        program,
                        &snoop,
                        mem,
                        prefetcher,
                        batch,
                        issue,
                        &mut counters,
                    );
                    data_ready = data_ready.max(ready);
                    issue += 1; // one vector load per cycle
                }
            }
            load_free = issue.max(issue_base);

            let ready = data_ready.max(dma_done);
            let compute_start = compute_free.max(ready);
            compute_starts.push(compute_start);
            let compute_end = compute_start + tile.compute_cycles;
            counters.compute_cycles += tile.compute_cycles;
            compute_free = compute_end;

            if tile.store_bytes > 0 {
                last_drain = last_drain.max(mem.store_bytes(compute_end, tile.store_bytes));
            }
        }
        let total = compute_free.max(last_drain);
        Self::finish(program, prefetcher, mem, total, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::{DataWidth, Region};
    use nvr_mem::MemoryConfig;
    use nvr_prefetch::NullPrefetcher;
    use nvr_trace::{GatherDesc, MemoryImage, SparseFunc};

    /// Builds a small gather-heavy program: `tiles` tiles of `per_tile`
    /// indices each, gathering 64-byte rows from a wide IA space.
    fn gather_program(tiles: usize, per_tile: usize, compute: u64) -> NpuProgram {
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let n = tiles * per_tile;
        // Spread indices across a 4 Mi-row space with a deterministic hash.
        let indices: Vec<u32> = (0..n)
            .map(|i| MemoryImage::background(Addr::new(i as u64 * 4)) % (1 << 18))
            .collect();
        image.add_u32_segment(index_base, indices);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let tiles: Vec<TileOp> = (0..tiles)
            .map(|i| TileOp {
                id: i,
                index_region: Region::new(
                    index_base.offset(i as u64 * per_tile as u64 * 4),
                    per_tile as u64 * 4,
                ),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 256,
                compute_cycles: compute,
                store_bytes: 64,
            })
            .collect();
        let prog = NpuProgram {
            name: "unit-gather".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        };
        prog.assert_valid();
        prog
    }

    #[test]
    fn empty_program_is_zero_cycles() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = NpuProgram {
            name: "empty".into(),
            width: DataWidth::Int8,
            tiles: vec![],
            image: MemoryImage::new(),
        };
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.gather_batches, 0);
    }

    #[test]
    fn cold_gathers_mostly_miss() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = gather_program(8, 64, 50);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        assert_eq!(r.gather_elements, 8 * 64);
        assert!(
            r.element_miss_rate() > 0.9,
            "cold random gathers should miss, rate {}",
            r.element_miss_rate()
        );
        assert_eq!(r.gather_batches, 8 * 4);
        assert!(r.batch_miss_rate() >= r.element_miss_rate());
    }

    #[test]
    fn ideal_memory_gives_base_time() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = gather_program(8, 64, 50);
        let mut real = MemorySystem::new(MemoryConfig::default());
        let mut ideal = MemorySystem::ideal(MemoryConfig::default());
        let r_real = engine.run(&program, &mut real, &mut NullPrefetcher::new());
        let r_ideal = engine.run(&program, &mut ideal, &mut NullPrefetcher::new());
        assert!(
            r_ideal.total_cycles < r_real.total_cycles / 2,
            "ideal {} vs real {}",
            r_ideal.total_cycles,
            r_real.total_cycles
        );
        assert_eq!(r_ideal.gather_elements, r_real.gather_elements);
    }

    #[test]
    fn ooo_overlaps_memory_and_compute() {
        let program = gather_program(16, 64, 2000);
        let ino = NpuEngine::new(NpuConfig::default());
        let ooo = NpuEngine::new(NpuConfig::out_of_order());
        let mut mem_a = MemorySystem::new(MemoryConfig::default());
        let mut mem_b = MemorySystem::new(MemoryConfig::default());
        let r_ino = ino.run(&program, &mut mem_a, &mut NullPrefetcher::new());
        let r_ooo = ooo.run(&program, &mut mem_b, &mut NullPrefetcher::new());
        assert!(
            r_ooo.total_cycles < r_ino.total_cycles,
            "OoO {} should beat InO {}",
            r_ooo.total_cycles,
            r_ino.total_cycles
        );
    }

    #[test]
    fn repeat_run_hits_warm_cache() {
        // A program whose IA working set fits in L2: second tile pass hits.
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let per_tile = 64usize;
        let tiles_n = 8usize;
        let indices: Vec<u32> = (0..(tiles_n * per_tile))
            .map(|i| (i % 128) as u32) // only 128 distinct rows = 8 KB
            .collect();
        image.add_u32_segment(index_base, indices);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let tiles: Vec<TileOp> = (0..tiles_n)
            .map(|i| TileOp {
                id: i,
                index_region: Region::new(
                    index_base.offset(i as u64 * per_tile as u64 * 4),
                    per_tile as u64 * 4,
                ),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 0,
                compute_cycles: 10,
                store_bytes: 0,
            })
            .collect();
        let program = NpuProgram {
            name: "warm".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        };
        let engine = NpuEngine::new(NpuConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        // 128 distinct lines cold-miss once; the rest of the 512 gathers hit.
        assert!(r.gather_element_misses <= 128 + 8);
        assert!(r.element_miss_rate() < 0.3);
    }

    #[test]
    fn two_level_gathers_probe_and_fetch() {
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let table_base = Addr::new(0x20_0000);
        image.add_u32_segment(index_base, (0..64).collect());
        image.add_u32_segment(table_base, (0..64).map(|b| (b * 7) % 64).collect());
        let func = SparseFunc::TableLookup {
            table_base,
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let program = NpuProgram {
            name: "2lvl".into(),
            width: DataWidth::Int8,
            tiles: vec![TileOp {
                id: 0,
                index_region: Region::new(index_base, 64 * 4),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 0,
                compute_cycles: 10,
                store_bytes: 0,
            }],
            image,
        };
        let engine = NpuEngine::new(NpuConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        // Probes hit the table lines (1 KB), targets hit 64 distinct rows.
        assert_eq!(r.gather_elements, 64);
        assert!(r.total_cycles > 2 * 164, "two serialised memory levels");
    }

    /// Cycles to run `tiles` DMA-only tiles of `dma_bytes` each, with one
    /// compute cycle apiece. Ideal memory takes the off-chip channel out of
    /// the timing, so only the scratchpad's DMA engine sets it.
    fn dma_only_cycles(cfg: NpuConfig, tiles: usize, dma_bytes: u64) -> Cycle {
        let tiles = (0..tiles)
            .map(|id| TileOp {
                id,
                index_region: Region::new(Addr::new(0x10_0000), 0),
                gather: None,
                dma_bytes,
                compute_cycles: 1,
                store_bytes: 0,
            })
            .collect();
        let program = NpuProgram {
            name: "dma".into(),
            width: DataWidth::Int8,
            tiles,
            image: MemoryImage::new(),
        };
        program.assert_valid();
        let mut mem = MemorySystem::ideal(MemoryConfig::default());
        NpuEngine::new(cfg)
            .run(&program, &mut mem, &mut NullPrefetcher::new())
            .total_cycles
    }

    #[test]
    fn dma_takes_bytes_over_width() {
        let cycles = dma_only_cycles(NpuConfig::default(), 1, 4096);
        assert_eq!(cycles, 4096 / DMA_BYTES_PER_CYCLE + 1);
    }

    /// The scratchpad has one DMA engine. Under OoO two DMA-only tiles
    /// both issue at cycle 0, so their transfers must queue on it: the
    /// second tile's operands land one full transfer after the first's.
    #[test]
    fn ooo_dma_transfers_do_not_overlap() {
        let one = SCRATCHPAD_BYTES / DMA_BYTES_PER_CYCLE;
        let cycles = dma_only_cycles(NpuConfig::out_of_order(), 2, SCRATCHPAD_BYTES);
        assert_eq!(cycles, 2 * one + 1);
    }

    #[test]
    fn oversized_dma_is_clamped_to_scratchpad() {
        let one = SCRATCHPAD_BYTES / DMA_BYTES_PER_CYCLE;
        let cycles = dma_only_cycles(NpuConfig::default(), 1, 2 * SCRATCHPAD_BYTES);
        assert_eq!(cycles, one + 1);
    }

    #[test]
    fn stall_dominates_for_io_bound_inorder() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = gather_program(16, 64, 10); // tiny compute
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        assert!(
            r.memory_bound_fraction() > 0.8,
            "IO-bound fraction {}",
            r.memory_bound_fraction()
        );
    }
}
