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
/// pins the per-system, per-counter decomposition.)
#[test]
fn optimised_hot_paths_match_seed_fingerprints() {
    // Columns: workload, system, total_cycles, base_cycles,
    // l2_demand_misses, l2_demand_hits, dram_demand_lines,
    // l2_prefetch_issued, l2_prefetch_useful, timely, late,
    // evicted_unused, slack_sum.
    const GOLDEN: &[(&str, &str, [u64; 11])] = &[
        (
            "DS",
            "InO",
            [122560, 22368, 4584, 3864, 4584, 0, 0, 0, 0, 0, 0],
        ),
        (
            "DS",
            "OoO",
            [73344, 16438, 4584, 3864, 4584, 0, 0, 0, 0, 0, 0],
        ),
        (
            "DS",
            "Stream",
            [121112, 22368, 4411, 4003, 4411, 177, 173, 0, 0, 0, 0],
        ),
        (
            "DS",
            "IMP",
            [116536, 22368, 3796, 4640, 3796, 828, 796, 0, 0, 0, 0],
        ),
        (
            "DS",
            "DVR",
            [99936, 22368, 3856, 4592, 3856, 809, 728, 0, 0, 0, 0],
        ),
        (
            "DS",
            "NVR",
            [
                45064, 22368, 96, 6055, 96, 4501, 4492, 2195, 2297, 0, 2606617,
            ],
        ),
        (
            "DS",
            "NVR+NSB",
            [
                45711, 17184, 95, 730, 95, 4531, 1098, 1960, 2562, 0, 2310763,
            ],
        ),
        (
            "GAT",
            "InO",
            [139764, 28356, 1997, 3494, 1997, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GAT",
            "OoO",
            [71476, 20578, 1997, 3492, 1997, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GAT",
            "Stream",
            [130428, 28356, 1360, 3826, 1360, 868, 639, 0, 0, 0, 0],
        ),
        (
            "GAT",
            "IMP",
            [122320, 28356, 1595, 3838, 1595, 796, 410, 0, 0, 0, 0],
        ),
        (
            "GAT",
            "DVR",
            [97212, 28356, 1076, 4406, 1076, 979, 922, 0, 0, 0, 0],
        ),
        (
            "GAT",
            "NVR",
            [
                47899, 28356, 43, 4935, 43, 2143, 1977, 1464, 513, 3, 4480805,
            ],
        ),
        (
            "GAT",
            "NVR+NSB",
            [
                47482, 21636, 38, 2458, 38, 2089, 1107, 1423, 551, 4, 4294872,
            ],
        ),
        (
            "GCN",
            "InO",
            [331088, 50435, 18542, 3009, 18542, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "OoO",
            [244120, 42440, 18546, 3001, 18546, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "Stream",
            [327376, 50435, 18197, 3160, 18197, 523, 364, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "IMP",
            [324648, 50435, 17812, 3714, 17812, 1288, 812, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "DVR",
            [269000, 50435, 11578, 9967, 11578, 7771, 7096, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "NVR",
            [
                190193, 50435, 5789, 8578, 5789, 12862, 12814, 5630, 7184, 47, 10622041,
            ],
        ),
        (
            "GCN",
            "NVR+NSB",
            [
                189670, 45448, 5585, 3376, 5585, 12872, 4546, 5693, 7018, 160, 10439650,
            ],
        ),
        (
            "GSABT",
            "InO",
            [200056, 38008, 7426, 7094, 7426, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GSABT",
            "OoO",
            [139699, 28288, 7426, 7094, 7426, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GSABT",
            "Stream",
            [199936, 38008, 2465, 7241, 2465, 5024, 4974, 0, 0, 0, 0],
        ),
        (
            "GSABT",
            "IMP",
            [194920, 38008, 6714, 7742, 6714, 884, 732, 0, 0, 0, 0],
        ),
        (
            "GSABT",
            "DVR",
            [194773, 38008, 7045, 7475, 7045, 514, 382, 0, 0, 0, 0],
        ),
        (
            "GSABT",
            "NVR",
            [
                105846, 38008, 214, 10671, 214, 7268, 7256, 3621, 3635, 0, 7317234,
            ],
        ),
        (
            "GSABT",
            "NVR+NSB",
            [
                107136, 32256, 193, 3440, 193, 7375, 3014, 3329, 4034, 0, 6863410,
            ],
        ),
        (
            "H2O",
            "InO",
            [71816, 16928, 2168, 4168, 2168, 0, 0, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "OoO",
            [49949, 12338, 2168, 4168, 2168, 0, 0, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "Stream",
            [71280, 16928, 2012, 4232, 2012, 157, 156, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "IMP",
            [67504, 16928, 1629, 4706, 1629, 735, 540, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "DVR",
            [68000, 16928, 1744, 4264, 1744, 498, 424, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "NVR",
            [
                25167, 16928, 40, 5902, 40, 2135, 2128, 1734, 394, 0, 1837241,
            ],
        ),
        (
            "H2O",
            "NVR+NSB",
            [25241, 12896, 40, 253, 40, 2135, 281, 1454, 674, 0, 1630986],
        ),
        ("MK", "InO", [42038, 3009, 880, 79, 880, 0, 0, 0, 0, 0, 0]),
        ("MK", "OoO", [40838, 964, 880, 79, 880, 0, 0, 0, 0, 0, 0]),
        (
            "MK",
            "Stream",
            [42038, 3009, 880, 79, 880, 0, 0, 0, 0, 0, 0],
        ),
        (
            "MK",
            "IMP",
            [33722, 3009, 853, 106, 853, 30, 27, 0, 0, 0, 0],
        ),
        (
            "MK",
            "DVR",
            [40165, 3009, 748, 183, 748, 135, 132, 0, 0, 0, 0],
        ),
        (
            "MK",
            "NVR",
            [20607, 3009, 398, 559, 398, 562, 482, 480, 2, 0, 3254304],
        ),
        (
            "MK",
            "NVR+NSB",
            [20635, 1414, 402, 200, 402, 558, 156, 476, 2, 0, 3187922],
        ),
        (
            "SCN",
            "InO",
            [81816, 9501, 990, 2657, 990, 0, 0, 0, 0, 0, 0],
        ),
        (
            "SCN",
            "OoO",
            [65539, 5086, 990, 2558, 990, 0, 0, 0, 0, 0, 0],
        ),
        (
            "SCN",
            "Stream",
            [78180, 9501, 958, 2689, 958, 38, 32, 0, 0, 0, 0],
        ),
        (
            "SCN",
            "IMP",
            [72704, 9501, 916, 2731, 916, 106, 74, 0, 0, 0, 0],
        ),
        (
            "SCN",
            "DVR",
            [71673, 9501, 751, 2873, 751, 242, 239, 0, 0, 0, 0],
        ),
        (
            "SCN",
            "NVR",
            [28065, 9501, 92, 3697, 92, 1014, 898, 881, 17, 0, 2159745],
        ),
        (
            "SCN",
            "NVR+NSB",
            [27920, 6048, 91, 989, 91, 1032, 436, 867, 32, 0, 2049059],
        ),
        (
            "ST",
            "InO",
            [81280, 10080, 2304, 2048, 2304, 0, 0, 0, 0, 0, 0],
        ),
        (
            "ST",
            "OoO",
            [45552, 4150, 2304, 2048, 2304, 0, 0, 0, 0, 0, 0],
        ),
        (
            "ST",
            "Stream",
            [78312, 10080, 575, 2190, 575, 1758, 1729, 0, 0, 0, 0],
        ),
        (
            "ST",
            "IMP",
            [73800, 10080, 1826, 2368, 1826, 510, 478, 0, 0, 0, 0],
        ),
        (
            "ST",
            "DVR",
            [67856, 10080, 1728, 2594, 1728, 576, 576, 0, 0, 0, 0],
        ),
        (
            "ST",
            "NVR",
            [
                33305, 10080, 30, 2862, 30, 2283, 2274, 814, 1460, 0, 1951613,
            ],
        ),
        (
            "ST",
            "NVR+NSB",
            [34101, 5120, 24, 793, 24, 2289, 773, 726, 1554, 0, 1863770],
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
