//! Fig. 8 — system-level LLM evaluation.
//!
//! (a) per-attention-layer batch vs element miss rates, InO vs NVR;
//! (b) prefill throughput vs bandwidth for three prompt lengths;
//! (c) decode throughput vs bandwidth for three output lengths.
//!
//! The sparse-gather cycles feeding the roofline model are *measured* by
//! running the `nvr-llm` layer programs through the cache simulator at each
//! bandwidth point.

use std::fmt;

use nvr_llm::{
    av_program, decode_throughput, prefill_throughput, qkt_program, qkv_program, LlmConfig,
};
use nvr_mem::{DramConfig, MemoryConfig};

use crate::report::{fmt3, Table};
use crate::runner::{run_system, SystemKind};
use crate::sweep::run_batch;

/// Panel (a): one layer's miss rates under one system.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMiss {
    /// Layer name (QKV / QKT / AV).
    pub layer: &'static str,
    /// System label.
    pub system: &'static str,
    /// Fraction of vector batches with at least one missing element.
    pub batch_miss_rate: f64,
    /// Fraction of elements whose line missed.
    pub element_miss_rate: f64,
}

/// Panels (b)/(c): one throughput curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Sequence length the curve was measured at.
    pub seq_len: usize,
    /// Whether NVR was enabled (dashed lines in the paper).
    pub nvr: bool,
    /// `(bytes_per_cycle, tokens_per_mcycle)` points.
    pub points: Vec<(u64, f64)>,
}

/// The Fig. 8 data set.
#[derive(Debug, Clone, Default)]
pub struct Fig8 {
    /// Panel (a).
    pub layer_misses: Vec<LayerMiss>,
    /// Panel (b): prefill curves.
    pub prefill: Vec<Curve>,
    /// Panel (c): decode curves.
    pub decode: Vec<Curve>,
}

impl Fig8 {
    /// Average decode-throughput gain of NVR over baseline across a curve
    /// pair at `seq_len` (the paper's "average 50% throughput improvement").
    #[must_use]
    pub fn decode_gain(&self, seq_len: usize) -> f64 {
        let find = |nvr: bool| {
            self.decode
                .iter()
                .find(|c| c.seq_len == seq_len && c.nvr == nvr)
        };
        let (Some(base), Some(nvr)) = (find(false), find(true)) else {
            return 0.0;
        };
        let gains: Vec<f64> = base
            .points
            .iter()
            .zip(&nvr.points)
            .filter(|((_, b), _)| *b > 0.0)
            .map(|((_, b), (_, n))| n / b)
            .collect();
        if gains.is_empty() {
            0.0
        } else {
            gains.iter().sum::<f64>() / gains.len() as f64
        }
    }
}

/// Measures the sparse-attention gather cycles of one decode step at one
/// bandwidth, for baseline or NVR.
fn sparse_step_cycles(
    cfg: &LlmConfig,
    l: usize,
    bytes_per_cycle: u64,
    nvr: bool,
    seed: u64,
) -> f64 {
    let mem_cfg = MemoryConfig::default().with_dram(DramConfig {
        bytes_per_cycle,
        ..DramConfig::default()
    });
    let system = if nvr {
        SystemKind::Nvr
    } else {
        SystemKind::InOrder
    };
    let qkt = run_system(&qkt_program(cfg, l, seed), &mem_cfg, system);
    let av = run_system(&av_program(cfg, l, seed), &mem_cfg, system);
    // The programs simulate 48 decode steps of one head; scale to the
    // whole stack (heads x layers serialise through the gather unit).
    let sim_steps = 48.0;
    let per_step = (qkt.result.total_cycles + av.result.total_cycles) as f64 / sim_steps;
    per_step * cfg.heads as f64 * cfg.layers as f64
}

/// Bandwidth sweep points (bytes/cycle ~ GB/s at 1 GHz).
const BANDWIDTHS: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// Curve family of one panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PanelKind {
    Prefill,
    Decode,
}

/// Runs all three panels on `jobs` workers. `fast` trims the sweep for
/// tests. Every (layer, system) cell and every (panel, length, system,
/// bandwidth) point is one independent sweep job.
#[must_use]
pub fn run_jobs(seed: u64, fast: bool, jobs: usize) -> Fig8 {
    let cfg = LlmConfig::default();
    let mut fig = Fig8::default();

    // Panel (a): layer miss rates at l = 2048.
    let l = 2048;
    let layer_tasks: Vec<_> = ["QKV", "QKT", "AV"]
        .into_iter()
        .flat_map(|layer| {
            [SystemKind::InOrder, SystemKind::Nvr].map(|system| {
                move || {
                    let program = match layer {
                        "QKV" => qkv_program(&cfg, l),
                        "QKT" => qkt_program(&cfg, l, seed),
                        _ => av_program(&cfg, l, seed),
                    };
                    let o = run_system(&program, &MemoryConfig::default(), system);
                    LayerMiss {
                        layer,
                        system: system.label(),
                        batch_miss_rate: o.result.batch_miss_rate(),
                        element_miss_rate: o.result.element_miss_rate(),
                    }
                }
            })
        })
        .collect();
    fig.layer_misses = run_batch(layer_tasks, jobs);

    let bandwidths: &[u64] = if fast { &BANDWIDTHS[..3] } else { &BANDWIDTHS };
    let prefill_lens: &[usize] = if fast { &[1024] } else { &[1024, 2048, 4096] };
    let decode_lens: &[usize] = if fast { &[512] } else { &[512, 1024, 2048] };

    // Panels (b)/(c): one job per curve point, flattened so the pool
    // load-balances across the whole grid at once.
    let mut meta = Vec::new();
    for (kind, lens) in [
        (PanelKind::Prefill, prefill_lens),
        (PanelKind::Decode, decode_lens),
    ] {
        for &l in lens {
            for nvr in [false, true] {
                for &b in bandwidths {
                    meta.push((kind, l, nvr, b));
                }
            }
        }
    }
    let point_tasks: Vec<_> = meta
        .iter()
        .map(|&(kind, l, nvr, b)| {
            move || match kind {
                PanelKind::Prefill => {
                    // Prefill processes queries in blocks sharing gathers;
                    // the sparse share is ~1/64 of a per-token decode pass.
                    let sparse = sparse_step_cycles(&cfg, l, b, nvr, seed) * l as f64 / 64.0;
                    prefill_throughput(&cfg, l, b, sparse).tokens_per_mcycle
                }
                PanelKind::Decode => {
                    let sparse = sparse_step_cycles(&cfg, l, b, nvr, seed);
                    decode_throughput(&cfg, l, b, sparse).tokens_per_mcycle
                }
            }
        })
        .collect();
    let throughputs = run_batch(point_tasks, jobs);

    for ((kind, l, nvr, b), tput) in meta.into_iter().zip(throughputs) {
        let curves = match kind {
            PanelKind::Prefill => &mut fig.prefill,
            PanelKind::Decode => &mut fig.decode,
        };
        match curves.iter_mut().find(|c| c.seq_len == l && c.nvr == nvr) {
            Some(curve) => curve.points.push((b, tput)),
            None => curves.push(Curve {
                seq_len: l,
                nvr,
                points: vec![(b, tput)],
            }),
        }
    }
    fig
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8a — per-layer miss rates (InO vs NVR)")?;
        let mut t = Table::new(vec![
            "layer".into(),
            "system".into(),
            "batch miss".into(),
            "element miss".into(),
        ]);
        for m in &self.layer_misses {
            t.row(vec![
                m.layer.into(),
                m.system.into(),
                fmt3(m.batch_miss_rate),
                fmt3(m.element_miss_rate),
            ]);
        }
        writeln!(f, "{t}")?;
        for (name, curves) in [
            ("Fig. 8b — prefill", &self.prefill),
            ("Fig. 8c — decode", &self.decode),
        ] {
            writeln!(f, "{name} throughput vs bandwidth (tokens/Mcycle)")?;
            let mut t = Table::new(vec![
                "l".into(),
                "system".into(),
                "points (B/cyc -> tput)".into(),
            ]);
            for c in curves {
                let pts = c
                    .points
                    .iter()
                    .map(|(b, v)| format!("{b}->{}", fmt3(*v)))
                    .collect::<Vec<_>>()
                    .join(", ");
                t.row(vec![
                    c.seq_len.to_string(),
                    if c.nvr { "NVR" } else { "base" }.into(),
                    pts,
                ]);
            }
            writeln!(f, "{t}")?;
        }
        if let Some(c) = self.decode.first() {
            writeln!(
                f,
                "decode NVR gain at l={}: {:.0}%",
                c.seq_len,
                100.0 * (self.decode_gain(c.seq_len) - 1.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvr_improves_decode_and_batch_misses() {
        let fig = run_jobs(3, true, 1);
        // Panel (a): NVR shrinks both miss metrics on the gather layers;
        // batch misses stay >= element misses.
        for layer in ["QKT", "AV"] {
            let get = |sys: &str| {
                fig.layer_misses
                    .iter()
                    .find(|m| m.layer == layer && m.system == sys)
                    .expect("cell")
            };
            let ino = get("InO");
            let nvr = get("NVR");
            assert!(ino.batch_miss_rate >= ino.element_miss_rate);
            assert!(
                nvr.element_miss_rate < ino.element_miss_rate,
                "{layer}: NVR {} vs InO {}",
                nvr.element_miss_rate,
                ino.element_miss_rate
            );
        }
        // Panel (c): NVR gains throughput on the IO-bound decode.
        let gain = fig.decode_gain(512);
        assert!(gain > 1.05, "decode gain {gain} should exceed 5%");
    }
}
