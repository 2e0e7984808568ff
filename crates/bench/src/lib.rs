//! Shared helpers for the experiment binaries.
//!
//! Every table and figure of the paper has a binary here that regenerates
//! it (`cargo run --release -p nvr_bench --bin fig5`, etc.). Simulator
//! throughput is measured by the `perf` bin and the repository's
//! `nvrbench` runner. The root README.md maps experiment ids to these
//! targets.

use nvr_workloads::Scale;

/// Seed used by all experiment binaries, so printed numbers are stable.
pub const EXPERIMENT_SEED: u64 = 2025;

/// The evaluation scale used by the experiment binaries.
#[must_use]
pub fn experiment_scale() -> Scale {
    Scale::Default
}

/// Worker-thread count for the experiment binaries: `--jobs N` (or `-j N`)
/// from the CLI, defaulting to 1 — the printed numbers are identical
/// either way (see `nvr_sim::sweep`), parallelism only changes wall clock.
///
/// # Panics
///
/// Exits the process with an error message when `--jobs` is malformed.
#[must_use]
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = match arg.as_str() {
            "--jobs" | "-j" => match it.next() {
                Some(v) => Some(v.as_str()),
                None => {
                    eprintln!("error: {arg} needs a value");
                    std::process::exit(2);
                }
            },
            _ => arg.strip_prefix("--jobs="),
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => {
                    eprintln!("error: --jobs needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            }
        }
    }
    1
}
