//! Bit-level determinism: identical seeds must produce identical programs
//! and identical simulation results — the precondition for comparing
//! prefetchers on the same access stream.

use nvr::prelude::*;

#[test]
fn identical_seeds_identical_results() {
    for workload in [WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gat] {
        let run = || {
            let spec = WorkloadSpec::tiny(DataWidth::Fp16, 777);
            let program = workload.build(&spec);
            let o = run_system(&program, &MemoryConfig::default(), SystemKind::Nvr);
            (
                o.result.total_cycles,
                o.result.gather_element_misses,
                o.result.mem.l2.prefetch_issued.get(),
                o.result.mem.dram.demand_lines.get(),
            )
        };
        assert_eq!(run(), run(), "{} not deterministic", workload.short());
    }
}

#[test]
fn different_seeds_differ() {
    let totals: Vec<u64> = (0..3)
        .map(|seed| {
            let spec = WorkloadSpec::tiny(DataWidth::Fp16, seed);
            let program = WorkloadId::Ds.build(&spec);
            run_system(&program, &MemoryConfig::default(), SystemKind::InOrder)
                .result
                .total_cycles
        })
        .collect();
    assert!(
        totals.windows(2).any(|w| w[0] != w[1]),
        "seeds should change the trace: {totals:?}"
    );
}

#[test]
fn width_changes_timing_not_structure() {
    let structure = |width| {
        let spec = WorkloadSpec::tiny(width, 5);
        let program = WorkloadId::H2o.build(&spec);
        (program.tiles.len(), program.stats().gather_elems)
    };
    // Same tile structure across widths (only row bytes change)...
    assert_eq!(structure(DataWidth::Int8), structure(DataWidth::Int32));
    // ...but wider data takes longer on the same memory system.
    let cycles = |width| {
        let spec = WorkloadSpec::tiny(width, 5);
        let program = WorkloadId::H2o.build(&spec);
        run_system(&program, &MemoryConfig::default(), SystemKind::InOrder)
            .result
            .total_cycles
    };
    assert!(cycles(DataWidth::Int32) > cycles(DataWidth::Int8));
}

#[test]
fn parallel_sweep_matches_serial_bit_for_bit() {
    // The sweep runner must be a pure parallelisation: fanning the grid
    // out over 4 workers may not change a single counter relative to the
    // single-threaded run of the same spec. The spec deliberately covers
    // the NSB-backed system (whose scored retention and VMIG admission
    // threshold are active), every tile order (so the order-permuted GAT
    // builds are part of the contract), and a two-channel DRAM backend,
    // so the demand/prefetch arbitration and channel interleave are part
    // of the bit-equality contract.
    let spec = SweepSpec {
        workloads: vec![WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gat],
        systems: vec![SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb],
        scales: vec![Scale::Tiny],
        orders: TileOrder::ALL.to_vec(),
        widths: vec![DataWidth::Fp16],
        seeds: vec![777, 778],
        nsb_admit: None,
        mem_cfg: MemoryConfig {
            dram: DramConfig::default().with_channels(2),
            ..MemoryConfig::default()
        },
    };
    let serial = run_sweep(&spec, 1);
    let parallel = run_sweep(&spec, 4);
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.job.key(), b.job.key(), "job order must be stable");
        assert_eq!(
            a.outcome.result.total_cycles,
            b.outcome.result.total_cycles,
            "{}: cycles differ across worker counts",
            a.job.key()
        );
        assert_eq!(
            a.outcome.base_cycles,
            b.outcome.base_cycles,
            "{}: base cycles differ",
            a.job.key()
        );
        assert_eq!(
            (
                a.outcome.result.gather_element_misses,
                a.outcome.result.mem.l2.demand_misses.get(),
                a.outcome.result.mem.l2.prefetch_issued.get(),
                a.outcome.result.mem.dram.demand_lines.get(),
            ),
            (
                b.outcome.result.gather_element_misses,
                b.outcome.result.mem.l2.demand_misses.get(),
                b.outcome.result.mem.l2.prefetch_issued.get(),
                b.outcome.result.mem.dram.demand_lines.get(),
            ),
            "{}: memory counters differ across worker counts",
            a.job.key()
        );
        // The measured timeliness — including the full issue→use slack
        // histogram, bucket by bucket — must be bit-identical too.
        assert_eq!(
            a.outcome.timeliness,
            b.outcome.timeliness,
            "{}: timeliness histogram differs across worker counts",
            a.job.key()
        );
        // Per-channel counters (utilisation inputs, queue-delay
        // histograms) are part of the bit-equality contract too.
        assert_eq!(
            a.outcome.result.mem.dram.channels,
            b.outcome.result.mem.dram.channels,
            "{}: per-channel stats differ across worker counts",
            a.job.key()
        );
        assert_eq!(a.outcome.result.mem.dram.channels.len(), 2);
        if a.job.system == SystemKind::Nvr || a.job.system == SystemKind::NvrNsb {
            let t = a
                .outcome
                .timeliness
                .as_ref()
                .expect("NVR cells carry a timeliness report");
            assert!(
                t.slack.count() > 0,
                "{}: NVR should measure a nonzero slack distribution",
                a.job.key()
            );
            assert!(
                t.queue_delay.count() > 0,
                "{}: issued prefetches record channel queue delay",
                a.job.key()
            );
        }
    }
    // And the canonical CSV renditions are byte-identical.
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn shared_ideal_runs_match_run_system() {
    // The sweep runs each (program, engine mode, demand hit latency) ideal
    // run once and shares it across cells; every cell's base cycles must
    // still be exactly what `run_system` computes for it alone, at any
    // worker count, with or without an NSB and over two DRAM channels.
    let configs = [
        MemoryConfig::default(),
        MemoryConfig::default().with_nsb(nsb_config(8)),
        MemoryConfig::default().with_dram(DramConfig::default().with_channels(2)),
    ];
    for mem_cfg in configs {
        let spec = SweepSpec {
            scales: vec![Scale::Tiny],
            mem_cfg: mem_cfg.clone(),
            ..SweepSpec::default()
        };
        // Per program: the in-order and the out-of-order engine at the
        // configuration's latency, plus NVR+NSB's own NSB latency when the
        // configuration has no NSB.
        let per_program = if mem_cfg.nsb.is_some() { 2 } else { 3 };
        let sweeps = [run_sweep(&spec, 1), run_sweep(&spec, 4)];
        for results in &sweeps {
            assert_eq!(results.cells.len(), 8 * 7);
            assert_eq!(results.ideal_runs, 8 * per_program, "jobs {}", results.jobs);
        }
        let n_systems = SystemKind::ALL.len();
        for (i, cells) in sweeps[0].cells.chunks(n_systems).enumerate() {
            let job = &cells[0].job;
            let program = job.workload.build(&WorkloadSpec {
                width: job.width,
                seed: job.seed,
                scale: job.scale,
                order: job.order,
            });
            for (j, c) in cells.iter().enumerate() {
                assert_eq!(c.job.workload, job.workload);
                let direct = run_system(&program, &mem_cfg, c.job.system).base_cycles;
                for results in &sweeps {
                    assert_eq!(
                        results.cells[i * n_systems + j].outcome.base_cycles,
                        direct,
                        "{} with {} jobs",
                        c.job.key(),
                        results.jobs
                    );
                }
            }
        }
    }
}

/// Pinned result fingerprints for every system on every workload.
///
/// The simulator's hot paths are data-layout- and scheduling-optimised
/// (SoA cache metadata, sorted MSHR files, event-driven issue skipping,
/// open-addressed bookkeeping maps); none of that may move a single
/// counter. This table is the seed behaviour, captured before those
/// rewrites: cycles, hit/miss splits, DRAM traffic, prefetch usefulness
/// and the full timeliness outcome, per system. A mismatch means a
/// "performance" change altered simulation semantics — exactly the
/// regression this suite exists to catch. (The perf gate's
/// `sim_cycles_total` check covers the whole grid's cycle sum; this test
/// pins the per-system, per-counter decomposition.) The six NSB, L2 and
/// DRAM columns after `slack_sum` pin the counters the speculative fill
/// path touches; they were captured from the tree just before that path
/// was rewritten to probe each level once.
#[test]
fn optimised_hot_paths_match_seed_fingerprints() {
    // Columns: workload, system, total_cycles, base_cycles,
    // l2_demand_misses, l2_demand_hits, dram_demand_lines,
    // l2_prefetch_issued, l2_prefetch_useful, timely, late,
    // evicted_unused, slack_sum, nsb_prefetch_issued, nsb_demand_hits,
    // nsb_retention_rejected, l2_prefetch_redundant,
    // l2_retention_rejected, dram_prefetch_lines. The NSB columns are 0
    // for systems without an NSB.
    const GOLDEN: &[(&str, &str, [u64; 17])] = &[
        (
            "DS",
            "InO",
            [
                122560, 22368, 4584, 3864, 4584, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "DS",
            "OoO",
            [
                73344, 16438, 4584, 3864, 4584, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "DS",
            "Stream",
            [
                121112, 22368, 4411, 4003, 4411, 177, 173, 0, 0, 0, 0, 0, 0, 0, 4243, 0, 177,
            ],
        ),
        (
            "DS",
            "IMP",
            [
                116536, 22368, 3796, 4640, 3796, 828, 796, 0, 0, 0, 0, 0, 0, 0, 15630, 0, 828,
            ],
        ),
        (
            "DS",
            "DVR",
            [
                99936, 22368, 3856, 4592, 3856, 809, 728, 0, 0, 0, 0, 0, 0, 0, 5940, 0, 809,
            ],
        ),
        (
            "DS",
            "NVR",
            [
                45064, 22368, 96, 6055, 96, 4501, 4492, 2195, 2297, 0, 2606617, 0, 0, 0, 211, 0,
                4501,
            ],
        ),
        (
            "DS",
            "NVR+NSB",
            [
                45711, 17184, 95, 730, 95, 4531, 1098, 1960, 2562, 0, 2310763, 5381, 5061, 1025,
                3675, 0, 4531,
            ],
        ),
        (
            "GAT",
            "InO",
            [
                139764, 28356, 1997, 3494, 1997, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "GAT",
            "OoO",
            [
                71476, 20578, 1997, 3492, 1997, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "GAT",
            "Stream",
            [
                130428, 28356, 1360, 3826, 1360, 868, 639, 0, 0, 0, 0, 0, 0, 0, 5944, 0, 868,
            ],
        ),
        (
            "GAT",
            "IMP",
            [
                122320, 28356, 1595, 3838, 1595, 796, 410, 0, 0, 0, 0, 0, 0, 0, 19959, 0, 796,
            ],
        ),
        (
            "GAT",
            "DVR",
            [
                97212, 28356, 1076, 4406, 1076, 979, 922, 0, 0, 0, 0, 0, 0, 0, 5421, 0, 979,
            ],
        ),
        (
            "GAT",
            "NVR",
            [
                47899, 28356, 43, 4935, 43, 2143, 1977, 1464, 513, 3, 4480805, 0, 0, 0, 318, 0,
                2143,
            ],
        ),
        (
            "GAT",
            "NVR+NSB",
            [
                47482, 21636, 38, 2458, 38, 2089, 1107, 1423, 551, 4, 4294872, 3208, 2444, 2361,
                3773, 0, 2089,
            ],
        ),
        (
            "GCN",
            "InO",
            [
                331088, 50435, 18542, 3009, 18542, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "GCN",
            "OoO",
            [
                244120, 42440, 18546, 3001, 18546, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "GCN",
            "Stream",
            [
                327376, 50435, 18197, 3160, 18197, 523, 364, 0, 0, 0, 0, 0, 0, 0, 6765, 0, 523,
            ],
        ),
        (
            "GCN",
            "IMP",
            [
                324648, 50435, 17812, 3714, 17812, 1288, 812, 0, 0, 0, 0, 0, 0, 0, 18991, 0, 1288,
            ],
        ),
        (
            "GCN",
            "DVR",
            [
                269000, 50435, 11578, 9967, 11578, 7771, 7096, 0, 0, 0, 0, 0, 0, 0, 10544, 0, 7771,
            ],
        ),
        (
            "GCN",
            "NVR",
            [
                190193, 50435, 5789, 8578, 5789, 12862, 12814, 5630, 7184, 47, 10622041, 0, 0, 0,
                280, 0, 12862,
            ],
        ),
        (
            "GCN",
            "NVR+NSB",
            [
                189670, 45448, 5585, 3376, 5585, 12872, 4546, 5693, 7018, 160, 10439650, 11777,
                5607, 4348, 8787, 0, 12872,
            ],
        ),
        (
            "GSABT",
            "InO",
            [
                200056, 38008, 7426, 7094, 7426, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "GSABT",
            "OoO",
            [
                139699, 28288, 7426, 7094, 7426, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "GSABT",
            "Stream",
            [
                199936, 38008, 2465, 7241, 2465, 5024, 4974, 0, 0, 0, 0, 0, 0, 0, 20764, 0, 5024,
            ],
        ),
        (
            "GSABT",
            "IMP",
            [
                194920, 38008, 6714, 7742, 6714, 884, 732, 0, 0, 0, 0, 0, 0, 0, 27822, 0, 884,
            ],
        ),
        (
            "GSABT",
            "DVR",
            [
                194773, 38008, 7045, 7475, 7045, 514, 382, 0, 0, 0, 0, 0, 0, 0, 16445, 0, 514,
            ],
        ),
        (
            "GSABT",
            "NVR",
            [
                105846, 38008, 214, 10671, 214, 7268, 7256, 3621, 3635, 0, 7317234, 0, 0, 0, 352,
                0, 7268,
            ],
        ),
        (
            "GSABT",
            "NVR+NSB",
            [
                107136, 32256, 193, 3440, 193, 7375, 3014, 3329, 4034, 0, 6863410, 10961, 6853,
                1931, 6356, 0, 7375,
            ],
        ),
        (
            "H2O",
            "InO",
            [
                71816, 16928, 2168, 4168, 2168, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "H2O",
            "OoO",
            [
                49949, 12338, 2168, 4168, 2168, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "H2O",
            "Stream",
            [
                71280, 16928, 2012, 4232, 2012, 157, 156, 0, 0, 0, 0, 0, 0, 0, 4063, 0, 157,
            ],
        ),
        (
            "H2O",
            "IMP",
            [
                67504, 16928, 1629, 4706, 1629, 735, 540, 0, 0, 0, 0, 0, 0, 0, 12567, 0, 735,
            ],
        ),
        (
            "H2O",
            "DVR",
            [
                68000, 16928, 1744, 4264, 1744, 498, 424, 0, 0, 0, 0, 0, 0, 0, 5860, 0, 498,
            ],
        ),
        (
            "H2O",
            "NVR",
            [
                25167, 16928, 40, 5902, 40, 2135, 2128, 1734, 394, 0, 1837241, 0, 0, 0, 176, 0,
                2135,
            ],
        ),
        (
            "H2O",
            "NVR+NSB",
            [
                25241, 12896, 40, 253, 40, 2135, 281, 1454, 674, 0, 1630986, 2244, 5369, 233, 3359,
                0, 2135,
            ],
        ),
        (
            "MK",
            "InO",
            [
                42038, 3009, 880, 79, 880, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "MK",
            "OoO",
            [40838, 964, 880, 79, 880, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            "MK",
            "Stream",
            [
                42038, 3009, 880, 79, 880, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "MK",
            "IMP",
            [
                33722, 3009, 853, 106, 853, 30, 27, 0, 0, 0, 0, 0, 0, 0, 1766, 0, 30,
            ],
        ),
        (
            "MK",
            "DVR",
            [
                40165, 3009, 748, 183, 748, 135, 132, 0, 0, 0, 0, 0, 0, 0, 920, 0, 135,
            ],
        ),
        (
            "MK",
            "NVR",
            [
                20607, 3009, 398, 559, 398, 562, 482, 480, 2, 0, 3254304, 0, 0, 0, 45, 0, 562,
            ],
        ),
        (
            "MK",
            "NVR+NSB",
            [
                20635, 1414, 402, 200, 402, 558, 156, 476, 2, 0, 3187922, 429, 355, 94, 81, 0, 558,
            ],
        ),
        (
            "SCN",
            "InO",
            [
                81816, 9501, 990, 2657, 990, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "SCN",
            "OoO",
            [
                65539, 5086, 990, 2558, 990, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "SCN",
            "Stream",
            [
                78180, 9501, 958, 2689, 958, 38, 32, 0, 0, 0, 0, 0, 0, 0, 278, 0, 38,
            ],
        ),
        (
            "SCN",
            "IMP",
            [
                72704, 9501, 916, 2731, 916, 106, 74, 0, 0, 0, 0, 0, 0, 0, 4945, 0, 106,
            ],
        ),
        (
            "SCN",
            "DVR",
            [
                71673, 9501, 751, 2873, 751, 242, 239, 0, 0, 0, 0, 0, 0, 0, 3104, 0, 242,
            ],
        ),
        (
            "SCN",
            "NVR",
            [
                28065, 9501, 92, 3697, 92, 1014, 898, 881, 17, 0, 2159745, 0, 0, 0, 967, 0, 1014,
            ],
        ),
        (
            "SCN",
            "NVR+NSB",
            [
                27920, 6048, 91, 989, 91, 1032, 436, 867, 32, 0, 2049059, 1076, 2572, 326, 2267, 0,
                1032,
            ],
        ),
        (
            "ST",
            "InO",
            [
                81280, 10080, 2304, 2048, 2304, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "ST",
            "OoO",
            [
                45552, 4150, 2304, 2048, 2304, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "ST",
            "Stream",
            [
                78312, 10080, 575, 2190, 575, 1758, 1729, 0, 0, 0, 0, 0, 0, 0, 8078, 0, 1758,
            ],
        ),
        (
            "ST",
            "IMP",
            [
                73800, 10080, 1826, 2368, 1826, 510, 478, 0, 0, 0, 0, 0, 0, 0, 16526, 0, 510,
            ],
        ),
        (
            "ST",
            "DVR",
            [
                67856, 10080, 1728, 2594, 1728, 576, 576, 0, 0, 0, 0, 0, 0, 0, 4608, 0, 576,
            ],
        ),
        (
            "ST",
            "NVR",
            [
                33305, 10080, 30, 2862, 30, 2283, 2274, 814, 1460, 0, 1951613, 0, 0, 0, 168, 0,
                2283,
            ],
        ),
        (
            "ST",
            "NVR+NSB",
            [
                34101, 5120, 24, 793, 24, 2289, 773, 726, 1554, 0, 1863770, 3388, 1981, 401, 2113,
                0, 2289,
            ],
        ),
    ];
    let mut idx = 0;
    for workload in WorkloadId::ALL {
        let spec = WorkloadSpec {
            width: DataWidth::Fp16,
            seed: 777,
            scale: Scale::Tiny,
            order: TileOrder::Natural,
        };
        let program = workload.build(&spec);
        for system in SystemKind::ALL {
            let o = run_system(&program, &MemoryConfig::default(), system);
            let m = &o.result.mem;
            let t = o.timeliness.clone().unwrap_or_default();
            let nsb = m.nsb.clone().unwrap_or_default();
            let got = (
                workload.short(),
                system.label(),
                [
                    o.result.total_cycles,
                    o.base_cycles,
                    m.l2.demand_misses.get(),
                    m.l2.demand_hits.get(),
                    m.dram.demand_lines.get(),
                    m.l2.prefetch_issued.get(),
                    m.l2.prefetch_useful.get(),
                    t.timely,
                    t.late,
                    t.evicted_unused,
                    t.slack.sum(),
                    nsb.prefetch_issued.get(),
                    nsb.demand_hits.get(),
                    nsb.retention_rejected.get(),
                    m.l2.prefetch_redundant.get(),
                    m.l2.retention_rejected.get(),
                    m.dram.prefetch_lines.get(),
                ],
            );
            assert_eq!(
                got,
                GOLDEN[idx],
                "{} / {} deviates from the seed fingerprint",
                workload.short(),
                system.label()
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN.len(), "every golden row must be exercised");
}

/// FNV-1a over 64-bit words: a stable digest of a program's tiles and
/// memory image.
fn program_digest(program: &NpuProgram) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(program.tiles.len() as u64);
    for t in &program.tiles {
        mix(t.id as u64);
        mix(t.index_region.start().raw());
        mix(t.index_region.bytes());
        match t.gather {
            None => mix(0),
            Some(g) => {
                match g.func {
                    SparseFunc::Affine { ia_base, row_bytes } => {
                        mix(1);
                        mix(ia_base.raw());
                        mix(row_bytes);
                    }
                    SparseFunc::TableLookup {
                        table_base,
                        ia_base,
                        row_bytes,
                    } => {
                        mix(2);
                        mix(table_base.raw());
                        mix(ia_base.raw());
                        mix(row_bytes);
                    }
                }
                mix(g.batch as u64);
            }
        }
        mix(t.dma_bytes);
        mix(t.compute_cycles);
        mix(t.store_bytes);
    }
    for (base, words) in program.image.segments() {
        mix(base.raw());
        mix(words.len() as u64);
        for &w in words {
            mix(u64::from(w));
        }
    }
    h
}

/// Program fingerprints: a digest of every tile field and every image
/// word per workload. The simulation fingerprints above can mask a builder
/// drift (a changed index that happens to hit the same lines); this table
/// cannot. Captured before the builders were rewritten for speed (the
/// allocation-free R-MAT, DS and voxel-hash paths), which must reproduce
/// every program bit for bit.
#[test]
fn program_digests_match_pinned() {
    const GOLDEN: &[(Scale, &str, u64)] = &[
        (Scale::Tiny, "DS", 0x3ce2_6181_dbe3_4748),
        (Scale::Tiny, "GAT", 0xe1f4_61e0_30b7_1435),
        (Scale::Tiny, "GCN", 0x0f39_061c_4032_564f),
        (Scale::Tiny, "GSABT", 0xf6d1_9df7_8978_211a),
        (Scale::Tiny, "H2O", 0x9dff_ac82_7370_65a3),
        (Scale::Tiny, "MK", 0x4446_8f03_45d6_83cd),
        (Scale::Tiny, "SCN", 0xbec2_2dc5_8e1a_1b20),
        (Scale::Tiny, "ST", 0x83b1_718b_f6d0_84a5),
        (Scale::Default, "DS", 0x4bc1_64b5_4f9d_9ff4),
        (Scale::Default, "GAT", 0x9909_20d2_e79e_7adb),
        (Scale::Default, "GCN", 0x65de_cf7c_8fce_1278),
        (Scale::Default, "GSABT", 0xaf96_857a_d170_9338),
        (Scale::Default, "H2O", 0x46f5_799b_560b_506e),
        (Scale::Default, "MK", 0x2dce_5e02_2273_b04c),
        (Scale::Default, "SCN", 0x00dd_46f6_b129_1d52),
        (Scale::Default, "ST", 0x63c3_b651_03eb_9a95),
    ];
    let mut idx = 0;
    for scale in [Scale::Tiny, Scale::Default] {
        for workload in WorkloadId::ALL {
            let spec = WorkloadSpec {
                width: DataWidth::Fp16,
                seed: 2025,
                scale,
                order: TileOrder::Natural,
            };
            let got = (
                scale,
                workload.short(),
                program_digest(&workload.build(&spec)),
            );
            assert_eq!(
                got,
                GOLDEN[idx],
                "{scale} {} program drifted",
                workload.short()
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN.len(), "every golden row must be exercised");
}
