//! Metric tables, the exact work counters and the result line.
//!
//! The tables here are the single source of the names the runner prints;
//! [`result_line`] refuses to print a set that differs from them, and the
//! test at the bottom checks them against `BENCHMARK.json`.

use nvr_mem::CacheStats;
use nvr_sim::{RunOutcome, SystemKind};
use nvr_workloads::WorkloadId;

/// One printed metric: name, unit and value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The end-to-end metrics: name, unit, better direction.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("speedup_geomean", "x", "higher"),
    ("miss_reduction", "fraction", "higher"),
];

/// The per-layer metrics of the traced run: name, unit, better direction.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = WorkloadId::ALL
        .iter()
        .map(|w| (format!("workloads.build_s.{}", w.short()), "s", "lower"))
        .collect();
    let fixed: [(&str, &'static str, &'static str); 31] = [
        ("sim.ideal_runs", "count", "lower"),
        ("sim.ideal_run_s", "s", "lower"),
        ("core.advance_s", "s", "lower"),
        ("core.observe_s", "s", "lower"),
        ("core.advance_calls", "count", "lower"),
        ("core.advance_cycles", "cycles", "lower"),
        ("prefetch.observe_s", "s", "lower"),
        ("prefetch.advance_s", "s", "lower"),
        ("prefetch.observe_calls", "count", "lower"),
        ("prefetch.advance_calls", "count", "lower"),
        ("npu.demand_path_s", "s", "lower"),
        ("npu.sim_cycles", "cycles", "lower"),
        ("npu.gather_elements", "count", "lower"),
        ("npu.index_lines", "lines", "lower"),
        ("mem.l2_demand_accesses", "count", "lower"),
        ("mem.l2_demand_misses", "count", "lower"),
        ("mem.nsb_demand_hits", "count", "higher"),
        ("mem.mshr_merges", "count", "lower"),
        ("mem.prefetch_issued", "count", "lower"),
        ("mem.prefetch_useful", "count", "higher"),
        ("mem.prefetch_redundant", "count", "lower"),
        ("mem.retention_rejected", "count", "lower"),
        ("mem.dram_demand_lines", "lines", "lower"),
        ("mem.dram_prefetch_lines", "lines", "lower"),
        ("mem.dram_busy_cycles", "cycles", "lower"),
        ("mem.pf_queue_rejected", "count", "lower"),
        ("mem.ch_util_mean", "fraction", "lower"),
        ("mem.prefetch_accuracy", "fraction", "higher"),
        ("core.timely_fraction", "fraction", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ];
    out.extend(fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    out.extend(
        SystemKind::ALL
            .iter()
            .map(|&s| (host_ns_per_cycle_name(s), "ns/cycle", "lower")),
    );
    out
}

/// `host_ns_per_cycle.<system>`; `+` is not allowed in a metric name, so
/// NVR+NSB is spelled `NVR-NSB`.
pub fn host_ns_per_cycle_name(system: SystemKind) -> String {
    format!("host_ns_per_cycle.{}", system.label().replace('+', "-"))
}

/// The host-independent work counters of a set of cells, summed. Two runs
/// of the same code on the same seed must print them identically.
pub fn exact_counters(cells: &[&RunOutcome]) -> Vec<Metric> {
    let sum =
        |f: &dyn Fn(&RunOutcome) -> u64| -> f64 { cells.iter().map(|o| f(o)).sum::<u64>() as f64 };
    let nsb =
        |o: &RunOutcome, f: &dyn Fn(&CacheStats) -> u64| o.result.mem.nsb.as_ref().map_or(0, f);
    let useful =
        sum(&|o| o.result.mem.l2.prefetch_useful.get() + nsb(o, &|c| c.prefetch_useful.get()));
    let unused = sum(&|o| {
        let unused =
            |c: &CacheStats| c.prefetch_evicted_unused.get() + c.prefetch_resident_unused.get();
        unused(&o.result.mem.l2) + nsb(o, &unused)
    });
    let timeliness = cells.iter().filter_map(|o| o.timeliness.as_ref());
    let (timely, resolved) = timeliness.fold((0, 0), |(t, r), x| {
        (t + x.timely, r + x.used() + x.evicted_unused)
    });
    let util_means: Vec<f64> = cells
        .iter()
        .map(|o| nvr_common::mean(o.channel_utilisation()))
        .collect();
    vec![
        Metric::new("npu.sim_cycles", "cycles", sum(&|o| o.result.total_cycles)),
        Metric::new(
            "npu.gather_elements",
            "count",
            sum(&|o| o.result.gather_elements),
        ),
        Metric::new("npu.index_lines", "lines", sum(&|o| o.result.index_lines)),
        Metric::new(
            "mem.l2_demand_accesses",
            "count",
            sum(&|o| o.result.mem.l2.demand_accesses()),
        ),
        Metric::new(
            "mem.l2_demand_misses",
            "count",
            sum(&|o| o.result.mem.l2.demand_misses.get()),
        ),
        Metric::new(
            "mem.nsb_demand_hits",
            "count",
            sum(&|o| nsb(o, &|c| c.demand_hits.get())),
        ),
        Metric::new(
            "mem.mshr_merges",
            "count",
            sum(&|o| o.result.mem.l2.mshr_merges.get()),
        ),
        Metric::new(
            "mem.prefetch_issued",
            "count",
            sum(&|o| o.result.mem.l2.prefetch_issued.get()),
        ),
        Metric::new("mem.prefetch_useful", "count", useful),
        Metric::new(
            "mem.prefetch_redundant",
            "count",
            sum(&|o| o.result.mem.l2.prefetch_redundant.get()),
        ),
        Metric::new(
            "mem.retention_rejected",
            "count",
            sum(&|o| {
                o.result.mem.l2.retention_rejected.get() + nsb(o, &|c| c.retention_rejected.get())
            }),
        ),
        Metric::new(
            "mem.dram_demand_lines",
            "lines",
            sum(&|o| o.result.mem.dram.demand_lines.get()),
        ),
        Metric::new(
            "mem.dram_prefetch_lines",
            "lines",
            sum(&|o| o.result.mem.dram.prefetch_lines.get()),
        ),
        Metric::new(
            "mem.dram_busy_cycles",
            "cycles",
            sum(&|o| o.result.mem.dram.busy_cycles.get()),
        ),
        Metric::new(
            "mem.pf_queue_rejected",
            "count",
            sum(&|o| o.result.mem.dram.pf_queue_rejected.get()),
        ),
        Metric::new(
            "mem.ch_util_mean",
            "fraction",
            nvr_common::mean(&util_means),
        ),
        Metric::new(
            "mem.prefetch_accuracy",
            "fraction",
            ratio(useful, useful + unused),
        ),
        Metric::new(
            "core.timely_fraction",
            "fraction",
            ratio(timely as f64, resolved as f64),
        ),
    ]
}

/// `num / den`, 0 when `den` is 0 (so no metric is ever NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The benchmark's last line: `metrics` must carry exactly the names and
/// units of `expected`, or the runner has drifted from its own tables.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    expected: &[(String, &str)],
) -> Result<String, String> {
    let mut got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let mut want: Vec<(&str, &str)> = expected.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "printed metrics {got:?} differ from the table {want:?}"
        ));
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `{"name": .., "unit": .., "better": ..}` objects of one array
    /// section of `BENCHMARK.json`, as (name, unit, better) triples.
    fn section(text: &str, key: &str) -> Vec<(String, String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let open = start + text[start..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        text[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains('{'))
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
                    at.and_then(|i| obj[i..].split('"').nth(1))
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn sorted(mut v: Vec<(String, String, String)>) -> Vec<(String, String, String)> {
        v.sort();
        v
    }

    #[test]
    fn benchmark_json_matches_the_runner_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
            .collect();
        assert_eq!(sorted(section(&text, "end_to_end")), sorted(e2e));
        let layer: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.into(), b.into()))
            .collect();
        assert_eq!(sorted(section(&text, "per_layer")), sorted(layer));
        let workloads: Vec<String> = section(&text, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_rejects_a_drifted_set() {
        let m = [Metric::new("a", "s", 1.5)];
        let line = result_line(true, 1, 0, &m, &[("a".into(), "s")]).expect("matching set");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 1, 0, &m, &[("b".into(), "s")]).is_err());
        assert!(result_line(true, 1, 0, &m, &[("a".into(), "ms")]).is_err());
    }
}
