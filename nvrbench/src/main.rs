//! `nvrbench` — the end-to-end benchmark of the NVR simulator.
//!
//! ```text
//! nvrbench --workload <fig5-default|nvr-large|gpp-large> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload's grid through the users' entry point
//! `run_sweep(&spec, 1)` for `--seconds` seconds after one warm-up pass,
//! checks every cell, and prints the metrics by name with their units;
//! the last line of standard output is one JSON object. `--trace 1` also
//! runs an outside-in traced pass after each untraced one and reports the
//! per-layer metrics instead. README.md in this directory documents the
//! workloads, the metrics and the checks.

mod calib;
mod metrics;
mod trace;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nvr_common::DataWidth;
use nvr_sim::{geometric_mean, run_sweep, RunOutcome, SweepResults, SweepSpec, SystemKind};
use nvr_workloads::{Scale, TileOrder, WorkloadId};

use metrics::{exact_counters, host_ns_per_cycle_name, ratio, Metric};

/// Seed used when `--seed` is not given (the repository's experiment seed).
const DEFAULT_SEED: u64 = 2025;

/// Fewest measured passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The paper's aggregate claims the model is compared against.
const PAPER_SPEEDUP: f64 = 4.0;
const PAPER_MISS_REDUCTION: f64 = 0.90;

const USAGE: &str = "usage: nvrbench --workload <fig5-default|nvr-large|gpp-large> \
[--seed N] [--seconds S] [--trace 0|1]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Default,
    NvrLarge,
    GppLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Default,
        Workload::NvrLarge,
        Workload::GppLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Default => "fig5-default",
            Workload::NvrLarge => "nvr-large",
            Workload::GppLarge => "gpp-large",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Workload::Fig5Default => Scale::Default,
            Workload::NvrLarge | Workload::GppLarge => Scale::Large,
        }
    }

    fn systems(self) -> Vec<SystemKind> {
        use SystemKind::{Dvr, Imp, InOrder, Nvr, NvrNsb, OutOfOrder, Stream};
        match self {
            Workload::Fig5Default => SystemKind::ALL.to_vec(),
            Workload::NvrLarge => vec![InOrder, Nvr, NvrNsb],
            Workload::GppLarge => vec![InOrder, OutOfOrder, Stream, Imp, Dvr],
        }
    }

    /// The system whose speedup and miss reduction over InO are reported.
    fn lead(self) -> SystemKind {
        match self {
            Workload::Fig5Default | Workload::NvrLarge => SystemKind::NvrNsb,
            Workload::GppLarge => SystemKind::Dvr,
        }
    }

    /// Every program × the workload's systems, single-threaded, FP16,
    /// natural tile order, one DRAM channel (the default memory system).
    fn spec(self, seed: u64) -> SweepSpec {
        SweepSpec {
            workloads: WorkloadId::ALL.to_vec(),
            systems: self.systems(),
            scales: vec![self.scale()],
            orders: vec![TileOrder::Natural],
            widths: vec![DataWidth::Fp16],
            seeds: vec![seed],
            ..SweepSpec::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host times of one untraced pass, in raw host seconds.
struct PassTiming {
    /// `calib::NOMINAL_S` over the mean calibration-kernel time around the
    /// pass: multiplying a host time by it gives nominal-host seconds.
    scale: f64,
    wall_s: f64,
    /// Summed `SweepCell::wall`: the simulation phase.
    cells_s: f64,
    sim_cycles: u64,
    /// Summed cell wall and timed-run cycles, indexed like `SystemKind::ALL`.
    per_system: [(f64, u64); 7],
}

fn system_slot(system: SystemKind) -> usize {
    SystemKind::ALL
        .iter()
        .position(|&s| s == system)
        .expect("every system is in SystemKind::ALL")
}

fn time_pass(spec: &SweepSpec, kernel: &mut calib::Kernel) -> (SweepResults, PassTiming) {
    let before = kernel.seconds();
    let t0 = Instant::now();
    let results = run_sweep(black_box(spec), 1);
    let wall_s = t0.elapsed().as_secs_f64();
    let scale = 2.0 * calib::NOMINAL_S / (before + kernel.seconds());
    let mut per_system = [(0.0, 0); 7];
    for c in &results.cells {
        let slot = &mut per_system[system_slot(c.job.system)];
        slot.0 += c.wall.as_secs_f64();
        slot.1 += c.outcome.result.total_cycles;
    }
    let timing = PassTiming {
        scale,
        wall_s,
        cells_s: results.cells.iter().map(|c| c.wall.as_secs_f64()).sum(),
        sim_cycles: results
            .cells
            .iter()
            .map(|c| c.outcome.result.total_cycles)
            .sum(),
        per_system,
    };
    (results, timing)
}

/// Whether `system` runs the NVR controller (the `core` layer).
fn is_nvr_family(system: SystemKind) -> bool {
    matches!(system, SystemKind::Nvr | SystemKind::NvrNsb)
}

/// Why `o` fails the per-cell output checks, if it does.
fn cell_error(o: &RunOutcome) -> Option<String> {
    let r = &o.result;
    if o.base_cycles > r.total_cycles {
        return Some(format!(
            "base_cycles {} > total_cycles {}",
            o.base_cycles, r.total_cycles
        ));
    }
    if let Some(u) = r
        .channel_utilisation
        .iter()
        .find(|&&u| !(0.0..=1.0).contains(&u))
    {
        return Some(format!("channel utilisation {u} outside [0, 1]"));
    }
    if is_nvr_family(o.system) {
        let Some(t) = &o.timeliness else {
            return Some("NVR-family cell without a timeliness report".into());
        };
        let lifetimes = t.timely + t.late + t.evicted_unused + t.unresolved;
        let issued = r.mem.l2.prefetch_issued.get();
        let dram = r.mem.dram.prefetch_lines.get();
        if lifetimes != issued || issued != dram {
            return Some(format!(
                "prefetch lifetimes {lifetimes} != L2 prefetch_issued {issued} or DRAM prefetch_lines {dram}"
            ));
        }
    }
    None
}

fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.system == b.system
        && a.result == b.result
        && a.base_cycles == b.base_cycles
        && a.timeliness == b.timeliness
}

/// Counts cells attempted and failed across passes, remembering the first
/// few failures for the report.
struct Checker<'a> {
    reference: &'a SweepResults,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker<'_> {
    /// Checks one pass's cells (in `spec.jobs()` order) against the
    /// invariants and against the reference pass.
    fn check<'o>(&mut self, what: &str, outcomes: impl Iterator<Item = &'o RunOutcome>) {
        let mut n = 0;
        for (o, reference) in outcomes.zip(&self.reference.cells) {
            n += 1;
            self.attempted += 1;
            let error = cell_error(o).or_else(|| {
                (!same_outcome(o, &reference.outcome))
                    .then(|| format!("{what} result differs from the first pass"))
            });
            if let Some(e) = error {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{}: {e}", reference.job.key()));
                }
            }
        }
        if n != self.reference.cells.len() {
            self.attempted += 1;
            self.failed += 1;
            self.errors.push(format!(
                "{what} ran {n} cells, expected {}",
                self.reference.cells.len()
            ));
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Speedup geomean and mean L2 demand-miss reduction of the lead system
/// over InO. The L2 is the level both systems share; NVR+NSB's
/// NPU-visible misses are NSB misses, most of which the L2 still serves.
fn model_metrics(wl: Workload, reference: &SweepResults) -> (f64, f64) {
    let cell = |w: WorkloadId, s: SystemKind| {
        reference
            .cells
            .iter()
            .find(|c| c.job.workload == w && c.job.system == s)
            .map(|c| &c.outcome.result)
            .expect("the grid has every (program, system) cell")
    };
    let (speedups, reductions): (Vec<f64>, Vec<f64>) = WorkloadId::ALL
        .iter()
        .map(|&w| {
            let (ino, lead) = (cell(w, SystemKind::InOrder), cell(w, wl.lead()));
            let speedup = ratio(ino.total_cycles as f64, lead.total_cycles as f64);
            let misses = ratio(
                lead.mem.l2.demand_misses.get() as f64,
                ino.mem.l2.demand_misses.get() as f64,
            );
            (speedup, 1.0 - misses)
        })
        .unzip();
    (geometric_mean(&speedups), nvr_common::mean(&reductions))
}

/// Per-layer metrics: host times rescaled to the nominal host (each traced
/// pass by the calibration of the untraced pass it follows), medians over
/// passes; counts are the same in every pass.
fn per_layer_metrics(
    traced: &[(trace::LayerTimes, f64)],
    untraced: &[PassTiming],
    counters: Vec<Metric>,
) -> Vec<Metric> {
    let secs = |f: &dyn Fn(&trace::LayerTimes) -> f64| median_of(traced, |(t, scale)| f(t) * scale);
    let count = |f: &dyn Fn(&trace::LayerTimes) -> u64| median_of(traced, |(t, _)| f(t) as f64);
    let mut out: Vec<Metric> = WorkloadId::ALL
        .iter()
        .enumerate()
        .map(|(i, w)| {
            Metric::new(
                format!("workloads.build_s.{}", w.short()),
                "s",
                secs(&|t| t.build_s[i]),
            )
        })
        .collect();
    let traced_wall = secs(&|t| t.wall_s);
    let untraced_wall = median_of(untraced, |p| p.wall_s * p.scale);
    out.extend([
        Metric::new("sim.ideal_runs", "count", count(&|t| t.ideal_runs)),
        Metric::new("sim.ideal_run_s", "s", secs(&|t| t.ideal_run_s)),
        Metric::new(
            "core.advance_s",
            "s",
            secs(&|t| t.core.advance.as_secs_f64()),
        ),
        Metric::new("core.observe_s", "s", secs(&|t| t.core.observe_s())),
        Metric::new(
            "core.advance_calls",
            "count",
            count(&|t| t.core.advance_calls),
        ),
        Metric::new(
            "core.advance_cycles",
            "cycles",
            count(&|t| t.core.advance_cycles),
        ),
        Metric::new("prefetch.observe_s", "s", secs(&|t| t.baseline.observe_s())),
        Metric::new(
            "prefetch.advance_s",
            "s",
            secs(&|t| t.baseline.advance.as_secs_f64()),
        ),
        Metric::new(
            "prefetch.observe_calls",
            "count",
            count(&|t| t.baseline.observe_calls),
        ),
        Metric::new(
            "prefetch.advance_calls",
            "count",
            count(&|t| t.baseline.advance_calls),
        ),
        Metric::new("npu.demand_path_s", "s", secs(&|t| t.demand_path_s)),
        Metric::new("trace.overhead_s", "s", traced_wall - untraced_wall),
        Metric::new(
            "trace.overhead_frac",
            "fraction",
            ratio(traced_wall - untraced_wall, untraced_wall),
        ),
    ]);
    out.extend(SystemKind::ALL.iter().enumerate().map(|(i, &s)| {
        let ns = median_of(untraced, |p| {
            ratio(p.per_system[i].0 * p.scale * 1e9, p.per_system[i].1 as f64)
        });
        Metric::new(host_ns_per_cycle_name(s), "ns/cycle", ns)
    }));
    out.extend(counters);
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<32} {:>20} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let spec = wl.spec(args.seed);
    let setup_t0 = Instant::now();
    // Warm-up pass: not timed, but the reference every later pass must
    // reproduce and the source of the exact counters.
    let reference = run_sweep(&spec, 1);
    let mut checker = Checker {
        reference: &reference,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    checker.check("warm-up", reference.cells.iter().map(|c| &c.outcome));
    eprintln!(
        "nvrbench: {} seed {} — {} cells, warm-up {:.3} s",
        wl.name(),
        args.seed,
        reference.cells.len(),
        setup_t0.elapsed().as_secs_f64()
    );

    // The process's peak footprint is that of one pass over the grid; read
    // it before the calibration kernel's tables exist.
    let peak_rss_mb = peak_rss_mb()?;
    let mut kernel = calib::Kernel::new();
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < MIN_PASSES || start.elapsed() < deadline {
        let (results, timing) = time_pass(&spec, &mut kernel);
        checker.check("untraced", results.cells.iter().map(|c| &c.outcome));
        if args.trace {
            let (outcomes, layers) = trace::traced_pass(&spec);
            checker.check("traced", outcomes.iter());
            traced.push((layers, timing.scale));
        }
        untraced.push(timing);
    }

    let (speedup, miss_reduction) = model_metrics(wl, &reference);
    let end_to_end = vec![
        Metric::new("wall_s", "s", median_of(&untraced, |p| p.wall_s * p.scale)),
        Metric::new(
            "setup_s",
            "s",
            median_of(&untraced, |p| (p.wall_s - p.cells_s) * p.scale),
        ),
        Metric::new(
            "sim_cycles_per_s",
            "cycles/s",
            median_of(&untraced, |p| {
                ratio(p.sim_cycles as f64, p.cells_s * p.scale)
            }),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        Metric::new("speedup_geomean", "x", speedup),
        Metric::new("miss_reduction", "fraction", miss_reduction),
    ];
    let outcomes: Vec<&RunOutcome> = reference.cells.iter().map(|c| &c.outcome).collect();
    let counters = exact_counters(&outcomes);

    println!(
        "nvrbench {} — seed {}, {} cells x {} untraced passes{}",
        wl.name(),
        args.seed,
        reference.cells.len(),
        untraced.len(),
        if args.trace {
            format!(" + {} traced passes", traced.len())
        } else {
            String::new()
        }
    );
    print_metrics(
        "end to end (medians over passes, nominal-host seconds):",
        &end_to_end,
    );
    println!(
        "host speed: calibration kernel median {:.4} s against a nominal {} s; raw host medians: \
         wall {:.4} s, setup {:.4} s",
        median_of(&untraced, |p| calib::NOMINAL_S / p.scale),
        calib::NOMINAL_S,
        median_of(&untraced, |p| p.wall_s),
        median_of(&untraced, |p| p.wall_s - p.cells_s),
    );
    println!(
        "model vs paper: {} over InO — speedup geomean {:.3}x (paper ~{PAPER_SPEEDUP}x), \
         miss reduction {:.1}% (paper ~{:.0}%); the model is checked only against these aggregate claims",
        wl.lead().label(),
        speedup,
        miss_reduction * 100.0,
        PAPER_MISS_REDUCTION * 100.0
    );
    let (metrics, expected): (Vec<Metric>, Vec<(String, &str)>) = if args.trace {
        let layers = per_layer_metrics(&traced, &untraced, counters);
        print_metrics(
            "per layer (medians over traced passes; counters are exact):",
            &layers,
        );
        let names = metrics::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        (layers, names)
    } else {
        print_metrics("exact counters (host-independent):", &counters);
        let names = metrics::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect();
        (end_to_end, names)
    };
    println!(
        "checks: {} of {} cells failed",
        checker.failed, checker.attempted
    );
    for e in &checker.errors {
        println!("  FAILED {e}");
    }
    let correct = checker.failed == 0;
    let line = metrics::result_line(
        correct,
        checker.attempted,
        checker.failed,
        &metrics,
        &expected,
    )?;
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nvrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nvrbench: {e}");
            ExitCode::FAILURE
        }
    }
}
