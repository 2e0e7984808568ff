//! `perf` — pinned-grid simulator-throughput benchmark and the committed
//! perf-trajectory gate.
//!
//! Runs the pinned grid — every workload × every system, tiny scale,
//! natural order, FP16, seed 2025 — single-threaded, `--repeats` times,
//! and reports the best repeat's throughput:
//!
//! * **cells/sec** — grid cells simulated per wall-clock second;
//! * **sim-cycles/sec** — simulated cycles (timed runs only, base runs
//!   excluded) per wall-clock second. The simulated-cycle total is
//!   bit-exact across code changes (the determinism suite enforces it),
//!   so the ratio of `sim_cycles_per_sec` between two builds is a pure
//!   simulator-speed ratio.
//!
//! `--out PATH` writes the schema-documented JSON snapshot (see
//! `BENCH_10.json` at the repo root for the committed trajectory point);
//! `--check PATH` compares the fresh run against a committed snapshot and
//! fails (exit 1) on a >`--tolerance` (default 0.20) sim-cycles/sec
//! regression, or on *any* simulated-cycle-total mismatch — a bit-exactness
//! violation, reported regardless of speed. A tolerance outside `[0, 1)`
//! is a usage error (exit 2). ARCHITECTURE.md "Simulator
//! performance" documents the snapshot schema and update procedure.

use std::process::ExitCode;

use nvr_common::DataWidth;
use nvr_sim::sweep::{run_sweep, SweepSpec, DEFAULT_SEED};
use nvr_sim::SystemKind;
use nvr_workloads::{Scale, TileOrder, WorkloadId};

const USAGE: &str = "\
perf — pinned-grid simulator-throughput benchmark

USAGE:
  perf [--repeats N] [--out PATH] [--check PATH] [--tolerance F]

OPTIONS:
  --repeats N    timed repetitions of the grid; the best repeat is
                 reported (default: 3)
  --out PATH     write the JSON throughput snapshot
  --check PATH   compare against a committed snapshot; exit 1 on a
                 regression beyond the tolerance or on any simulated-
                 cycle-total mismatch
  --tolerance F  allowed fractional sim-cycles/sec regression for
                 --check, in [0, 1) (default: 0.20; exit 2 outside)
  --help         this text";

/// Identifier of the pinned grid, embedded in every snapshot so a check
/// against a snapshot of a *different* grid fails loudly.
const GRID: &str = "all-workloads/all-systems/tiny/natural/FP16/seed2025";

struct Args {
    repeats: usize,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeats: 3,
        out: None,
        check: None,
        tolerance: 0.20,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if args.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The pinned throughput grid. Single seed, single width, tiny scale:
/// small enough for CI, wide enough to exercise every system's hot path.
fn pinned_spec() -> SweepSpec {
    SweepSpec {
        workloads: WorkloadId::ALL.to_vec(),
        systems: SystemKind::ALL.to_vec(),
        scales: vec![Scale::Tiny],
        orders: vec![TileOrder::Natural],
        widths: vec![DataWidth::Fp16],
        seeds: vec![DEFAULT_SEED],
        ..SweepSpec::default()
    }
}

/// One measured snapshot of the pinned grid's throughput.
struct Snapshot {
    cells: usize,
    sim_cycles_total: u64,
    best_wall_us: u128,
    cells_per_sec: f64,
    sim_cycles_per_sec: f64,
}

impl Snapshot {
    /// The committed JSON rendition. Schema `nvr-perf-v1`:
    ///
    /// * `schema`, `grid` — format/grid identifiers, checked on compare;
    /// * `jobs`, `repeats`, `cells` — measurement shape;
    /// * `sim_cycles_total` — summed `total_cycles` of the timed runs
    ///   (bit-exact; compared exactly);
    /// * `best_wall_us` — best repeat's wall clock, microseconds
    ///   (host-dependent);
    /// * `cells_per_sec`, `sim_cycles_per_sec` — throughput of the best
    ///   repeat (host-dependent; gated with a tolerance).
    fn to_json(&self, repeats: usize) -> String {
        format!(
            "{{\n  \"schema\": \"nvr-perf-v1\",\n  \"grid\": \"{}\",\n  \
             \"jobs\": 1,\n  \"repeats\": {},\n  \"cells\": {},\n  \
             \"sim_cycles_total\": {},\n  \"best_wall_us\": {},\n  \
             \"cells_per_sec\": {:.1},\n  \"sim_cycles_per_sec\": {:.1}\n}}\n",
            GRID,
            repeats,
            self.cells,
            self.sim_cycles_total,
            self.best_wall_us,
            self.cells_per_sec,
            self.sim_cycles_per_sec,
        )
    }
}

/// Extracts a numeric field from a `nvr-perf-v1` JSON snapshot (flat
/// schema, so a positional scan is sufficient — no JSON dependency).
fn json_num(src: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = src.find(&pat)? + pat.len();
    let rest = src[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field from a `nvr-perf-v1` JSON snapshot.
fn json_str<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = src.find(&pat)? + pat.len();
    let rest = src[at..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

fn measure(repeats: usize) -> Snapshot {
    let spec = pinned_spec();
    let mut best_wall = None;
    let mut sim_cycles_total = 0u64;
    let mut cells = 0usize;
    for rep in 0..repeats {
        let results = run_sweep(&spec, 1);
        let total: u64 = results
            .cells
            .iter()
            .map(|c| c.outcome.result.total_cycles)
            .sum();
        if rep == 0 {
            sim_cycles_total = total;
            cells = results.cells.len();
        } else {
            assert_eq!(
                total, sim_cycles_total,
                "simulated-cycle total must be identical across repeats"
            );
        }
        let wall = results.wall;
        eprintln!(
            "repeat {}/{}: {} cells in {} us",
            rep + 1,
            repeats,
            results.cells.len(),
            wall.as_micros()
        );
        best_wall = Some(best_wall.map_or(wall, |b: std::time::Duration| b.min(wall)));
    }
    let best = best_wall.expect("at least one repeat");
    let secs = best.as_secs_f64().max(1e-9);
    Snapshot {
        cells,
        sim_cycles_total,
        best_wall_us: best.as_micros(),
        cells_per_sec: cells as f64 / secs,
        sim_cycles_per_sec: sim_cycles_total as f64 / secs,
    }
}

/// Why [`check`] did not pass.
enum CheckError {
    /// The tolerance cannot form a gate (exit 2).
    Usage(String),
    /// The fresh run fails the gate, or the baseline is unusable (exit 1).
    Failed(String),
}

/// Compares the fresh snapshot against a committed baseline file.
/// `tolerance` must lie in `[0, 1)`: NaN or a value of 1 or more would
/// turn the throughput gate off.
fn check(fresh: &Snapshot, baseline_src: &str, tolerance: f64) -> Result<String, CheckError> {
    use CheckError::Failed;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(CheckError::Usage(format!(
            "--tolerance must be finite and in [0, 1), got {tolerance}"
        )));
    }
    if json_str(baseline_src, "schema") != Some("nvr-perf-v1") {
        return Err(Failed("baseline is not an nvr-perf-v1 snapshot".into()));
    }
    if json_str(baseline_src, "grid") != Some(GRID) {
        return Err(Failed(format!(
            "baseline grid {:?} does not match this binary's pinned grid {GRID:?}",
            json_str(baseline_src, "grid").unwrap_or("<missing>")
        )));
    }
    let base_total = json_num(baseline_src, "sim_cycles_total")
        .ok_or_else(|| Failed("baseline missing sim_cycles_total".into()))?
        as u64;
    if base_total != fresh.sim_cycles_total {
        return Err(Failed(format!(
            "simulated-cycle total changed: baseline {}, fresh {} — \
             simulation outputs are no longer bit-exact",
            base_total, fresh.sim_cycles_total
        )));
    }
    let base_rate = json_num(baseline_src, "sim_cycles_per_sec")
        .ok_or_else(|| Failed("baseline missing sim_cycles_per_sec".into()))?;
    let floor = base_rate * (1.0 - tolerance);
    if fresh.sim_cycles_per_sec < floor {
        return Err(Failed(format!(
            "sim-cycles/sec regressed beyond {:.0}% tolerance: baseline {:.1}, \
             floor {:.1}, fresh {:.1}",
            tolerance * 100.0,
            base_rate,
            floor,
            fresh.sim_cycles_per_sec
        )));
    }
    Ok(format!(
        "perf gate passed: fresh {:.1} sim-cycles/sec vs baseline {:.1} \
         (floor {:.1} at {:.0}% tolerance)",
        fresh.sim_cycles_per_sec,
        base_rate,
        floor,
        tolerance * 100.0
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fresh = measure(args.repeats);
    println!(
        "pinned grid {GRID}: {} cells, {} simulated cycles",
        fresh.cells, fresh.sim_cycles_total
    );
    println!(
        "best of {}: {} us wall — {:.1} cells/sec, {:.1} sim-cycles/sec",
        args.repeats, fresh.best_wall_us, fresh.cells_per_sec, fresh.sim_cycles_per_sec
    );
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, fresh.to_json(args.repeats)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.check {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reading baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match check(&fresh, &baseline, args.tolerance) {
            Ok(msg) => println!("{msg}"),
            Err(CheckError::Usage(msg)) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
            Err(CheckError::Failed(msg)) => {
                eprintln!("perf gate FAILED: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(sim_cycles_total: u64, sim_cycles_per_sec: f64) -> Snapshot {
        Snapshot {
            cells: 56,
            sim_cycles_total,
            best_wall_us: 1,
            cells_per_sec: 1.0,
            sim_cycles_per_sec,
        }
    }

    #[test]
    fn out_of_range_tolerance_is_a_usage_error() {
        let fresh = snapshot(100, 1.0e7);
        let baseline = fresh.to_json(1);
        for tolerance in [f64::NAN, 1.5, -0.1, 1.0, f64::INFINITY] {
            assert!(
                matches!(
                    check(&fresh, &baseline, tolerance),
                    Err(CheckError::Usage(_))
                ),
                "tolerance {tolerance} must be rejected"
            );
        }
    }

    #[test]
    fn tolerance_bounds_the_throughput_floor() {
        let baseline = snapshot(100, 1.0e7).to_json(1);
        assert!(check(&snapshot(100, 0.85e7), &baseline, 0.2).is_ok());
        assert!(matches!(
            check(&snapshot(100, 0.75e7), &baseline, 0.2),
            Err(CheckError::Failed(msg)) if msg.contains("regressed")
        ));
    }

    #[test]
    fn cycle_total_mismatch_is_reported_before_throughput() {
        let baseline = snapshot(100, 1.0e12).to_json(1);
        assert!(matches!(
            check(&snapshot(101, 1.0e7), &baseline, 0.2),
            Err(CheckError::Failed(msg)) if msg.contains("simulated-cycle total changed")
        ));
    }
}
