//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants. On a shared 2-vCPU
//! Xeon VM the same `fig5-default` pass read anywhere from 0.36 s to
//! 0.61 s within one minute, often for whole runs at a time. So the runner
//! times a fixed, deterministic kernel right before and right after every
//! pass — a set-associative LRU cache model (2 MB of tag and age tables)
//! fed by a pseudo-random line stream, the same kind of work the simulator
//! does — and rescales the pass's host times by `NOMINAL_S / mean kernel
//! time`. Every reported time is therefore in seconds on a host where the
//! kernel takes [`NOMINAL_S`]. The kernel is the benchmark's own code, so
//! no change to the simulator can move it; the raw host seconds are
//! printed beside the rescaled ones.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the nominal host.
pub const NOMINAL_S: f64 = 0.04;

const SETS: usize = 8192;
const WAYS: usize = 16;
const ACCESSES: u64 = 1_000_000;

/// The kernel's tables, allocated once so that a timing measures no page
/// faults.
pub struct Kernel {
    tags: Vec<u64>,
    last_use: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            tags: vec![0; SETS * WAYS],
            last_use: vec![0; SETS * WAYS],
        }
    }

    /// Host seconds one run of the kernel takes right now.
    pub fn seconds(&mut self) -> f64 {
        self.tags.fill(u64::MAX);
        self.last_use.fill(0);
        // Escaping both tables keeps the compiler from moving the loop
        // across the clock reads.
        black_box((&mut self.tags, &mut self.last_use));
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        let mut hits = 0_u64;
        let t0 = Instant::now();
        for i in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Half the accesses stream with a little jitter; half are random.
            let line = if x & 1 == 0 {
                x % 262_144
            } else {
                i / 4 % 100_000 + (x & 7)
            };
            let base = (line % SETS as u64) as usize * WAYS;
            let tags = &mut self.tags[base..base + WAYS];
            let uses = &mut self.last_use[base..base + WAYS];
            if let Some(way) = tags.iter().position(|&t| t == line) {
                uses[way] = i;
                hits += 1;
            } else {
                let victim = (0..WAYS).min_by_key(|&w| uses[w]).unwrap_or(0);
                tags[victim] = line;
                uses[victim] = i;
            }
        }
        black_box((hits, &self.tags, &self.last_use));
        t0.elapsed().as_secs_f64()
    }
}
