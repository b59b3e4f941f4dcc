//! Metric definitions, the result line, and the manifest.
//!
//! The tables here are the single source of the names, units and bounds:
//! `run.sh manifest` prints `BENCHMARK.json` from them, and a unit test
//! fails when the committed file differs.

use crate::workload::WORKLOADS;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 20;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the manifest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload.
///
/// Every bound but the exact one is as wide as the contract allows. On a
/// quiet host ten runs spread (interquartile range over median) by 1–7 %;
/// in the host's busy periods, which last longer than a run and so survive
/// every within-run estimator, by up to 12 % (README.md, "Noise"). A bound
/// has to hold three times the spread in the first and the spread itself in
/// the second.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p95_ms", "ms", Lower, 0.25),
    e2e("ttfr_p50_ms", "ms", Lower, 0.25),
    e2e("bytes_per_edge", "B/edge", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, from the traced run. Layer = module name.
pub const PER_LAYER: &[MetricDef] = &[
    layer("loader.load_s", "s", Lower),
    layer("loader.edges_per_s", "1/s", Higher),
    layer("storage.neighbor_scan_ns_per_edge", "ns", Lower),
    layer("storage.cell_load_ns", "ns", Lower),
    layer("storage.postings_scan_ns_per_id", "ns", Lower),
    layer("storage.compact_over_plain_scan_ratio", "ratio", Lower),
    layer("storage.adjacency_bytes", "B", Lower),
    layer("storage.postings_bytes", "B", Lower),
    layer("storage.id_map_bytes", "B", Lower),
    layer("storage.signature_bytes", "B", Lower),
    layer("transport.messages_per_query", "count", Lower),
    layer("transport.bytes_per_query", "B", Lower),
    layer("transport.explore_bytes_per_query", "B", Lower),
    layer("transport.sync_bytes_per_query", "B", Lower),
    layer("transport.join_ship_bytes_per_query", "B", Lower),
    layer("transport.load_exchange_us", "us", Lower),
    layer("transport.retries", "count", Lower),
    layer("transport.timeouts", "count", Lower),
    layer("transport.messages_over_direct_ratio", "ratio", Lower),
    layer("plan.us_p50", "us", Lower),
    layer("plan.stwigs_per_query", "count", Lower),
    layer("explore.ms_p50", "ms", Lower),
    layer("explore.share", "ratio", Lower),
    layer("explore.roots_scanned", "count", Lower),
    layer("explore.cells_loaded", "count", Lower),
    layer("explore.label_probes", "count", Lower),
    layer("explore.rows_emitted", "count", Lower),
    layer("explore.rows_pruned_by_bindings", "count", Higher),
    layer("explore.rounds", "count", Lower),
    layer("explore.rows_per_cell", "ratio", Higher),
    layer("join.ms_p50", "ms", Lower),
    layer("join.share", "ratio", Lower),
    layer("join.intermediate_rows", "count", Lower),
    layer("join.joins_performed", "count", Lower),
    layer("join.rows_pruned_injective", "count", Lower),
    layer("join.pipeline_rounds", "count", Lower),
    layer("join.useful_ratio", "ratio", Higher),
    layer("join.peak_table_bytes", "B", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.bypass_ratio", "ratio", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.stale_evictions", "count", Lower),
    layer("cache.bytes_resident", "B", Lower),
    layer("cache.lookup_hit_ns", "ns", Lower),
    layer("cache.hit_ratio_tight", "ratio", Higher),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.queue_wait_us_p50", "us", Lower),
    layer("serve.peak_queue_depth", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("engine.overhead_us_p50", "us", Lower),
    layer("engine.busy_frac", "ratio", Higher),
    layer("stream.first_row_us_p50", "us", Lower),
    layer("stream.deliver_us_p50", "us", Lower),
    layer("stream.rows_per_query", "count", Higher),
    layer("epoch.apply_ms_p50", "ms", Lower),
    layer("epoch.apply_ms_p95", "ms", Lower),
    layer("epoch.seal_ms_p50", "ms", Lower),
    layer("epoch.pin_ns", "ns", Lower),
    layer("epoch.batches_applied", "count", Higher),
    layer("epoch.batches_refused", "count", Lower),
    layer("epoch.unsealed_bytes_per_edge", "B/edge", Lower),
    layer("heap.allocs_per_query", "count", Lower),
    layer("heap.alloc_bytes_per_query", "B", Lower),
    layer("heap.peak_live_mb", "MB", Lower),
    layer("host.noise_frac", "ratio", Lower),
    layer("host.calib_ms", "ms", Lower),
    layer("host.passes", "count", Higher),
    layer("host.latency_positions", "count", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.coverage_min", "ratio", Higher),
];

/// Measured values, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer matched its reference and nothing failed.
    pub correct: bool,
    /// Submits, update batches and seals attempted.
    pub attempted: u64,
    /// Those that were refused, shed, failed or answered wrongly.
    pub failed: u64,
    /// The metrics of the run's kind.
    pub values: Values,
}

impl Outcome {
    /// Prints one `name value unit` line per metric of `defs`, then the
    /// result as one JSON object on the last line. Fails when a metric of
    /// `defs` was not measured, so the manifest and the code cannot drift.
    pub fn print(&self, defs: &[MetricDef]) -> Result<(), String> {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let value = self
                .values
                .get(def.name)
                .ok_or(format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            println!("{} {} {}", def.name, value, def.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "run `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            names.push(m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn printing_refuses_an_unmeasured_metric() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            values: Values::default(),
        };
        assert!(outcome.print(END_TO_END).is_err());
    }
}
