//! Shared experiment plumbing: scales, query-suite runners and the CSV row
//! format shared by all experiments.

use serde::{Deserialize, Serialize};
use std::time::Instant;
use stwig::{MatchConfig, QueryGraph, QueryOptions};
use trinity_sim::MemoryCloud;

/// Experiment scale. The paper runs on clusters with billions of vertices;
/// `Small` keeps every experiment under a few seconds on one core (the unit
/// tests and CI's `experiments all small` run use it), `Medium` is the
/// default for the `experiments` binary, `Large` stretches toward the
/// largest sizes that stay reasonable on a laptop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny sizes for smoke tests and CI.
    Small,
    /// Default sizes for the experiments binary.
    Medium,
    /// Larger sizes for a more faithful trend reproduction.
    Large,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Base vertex count used by graph-size-independent experiments.
    pub fn base_vertices(self) -> u64 {
        match self {
            Scale::Small => 2_000,
            Scale::Medium => 20_000,
            Scale::Large => 100_000,
        }
    }

    /// Number of queries per configuration point (the paper uses 100).
    pub fn queries_per_point(self) -> usize {
        match self {
            Scale::Small => 5,
            Scale::Medium => 20,
            Scale::Large => 50,
        }
    }
}

/// One output row of an experiment, printed as CSV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Experiment identifier (e.g. `fig8a`, `table1`).
    pub experiment: String,
    /// Series within the experiment (e.g. the dataset or method name).
    pub series: String,
    /// X coordinate (query size, node count, machine count, …).
    pub x: f64,
    /// Name of the measured quantity (e.g. `run_time_ms`).
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

impl Row {
    /// Creates a row.
    pub fn new(experiment: &str, series: &str, x: f64, metric: &str, value: f64) -> Self {
        Row {
            experiment: experiment.to_string(),
            series: series.to_string(),
            x,
            metric: metric.to_string(),
            value,
        }
    }

    /// CSV header matching [`Row::to_csv`].
    pub fn csv_header() -> &'static str {
        "experiment,series,x,metric,value"
    }

    /// Renders the row as a CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.experiment, self.series, self.x, self.metric, self.value
        )
    }
}

/// Metric names of a figure's time rows ([`SuiteResult::time_rows`]): the
/// simulated run time, then the measured wall-clock.
pub const RUN_TIME: [&str; 2] = ["run_time_ms", "wall_ms"];

/// Aggregate result of running a suite of queries against one graph.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Number of queries executed.
    pub queries: usize,
    /// Mean measured wall-clock per query, milliseconds.
    pub avg_wall_ms: f64,
    /// Mean simulated time per query, milliseconds.
    pub avg_simulated_ms: f64,
    /// Mean matches found per query.
    pub avg_matches: f64,
    /// Mean cross-machine messages per query.
    pub avg_messages: f64,
    /// Mean cross-machine bytes per query.
    pub avg_bytes: f64,
    /// Mean STwig result rows (exploration output) per query.
    pub avg_stwig_rows: f64,
    /// Mean cross-machine bytes spent in STwig exploration per query.
    pub avg_explore_bytes: f64,
    /// Mean cross-machine bytes spent synchronizing bindings per query.
    pub avg_sync_bytes: f64,
    /// Mean cross-machine bytes spent shipping join tables per query.
    pub avg_join_bytes: f64,
    /// Mean retried exchanges per query (non-zero only under fault plans).
    pub avg_retries: f64,
    /// Mean per-exchange timeouts per query.
    pub avg_timeouts: f64,
    /// Mean duplicate envelopes suppressed per query.
    pub avg_duplicates_suppressed: f64,
    /// Queries that completed degraded (`QueryOutcome::Partial`).
    pub partial_queries: usize,
    /// Mean root candidates skipped by the neighborhood-signature prune per
    /// query (every exploration prunes).
    pub avg_roots_pruned: f64,
}

impl SuiteResult {
    /// The suite's mean query time twice, under `names`: first as simulated —
    /// measured compute plus communication the cost model prices, the figure
    /// the paper's plots report — then as measured wall-clock on this host.
    pub fn time_rows(&self, experiment: &str, series: &str, x: f64, names: [&str; 2]) -> [Row; 2] {
        [
            Row::new(experiment, series, x, names[0], self.avg_simulated_ms),
            Row::new(experiment, series, x, names[1], self.avg_wall_ms),
        ]
    }

    /// CSV rows for the per-phase traffic breakdown (exploration vs.
    /// binding sync vs. join shipping), alongside the run-time rows the
    /// experiments already emit.
    pub fn phase_rows(&self, experiment: &str, series: &str, x: f64) -> Vec<Row> {
        vec![
            Row::new(
                experiment,
                series,
                x,
                "explore_bytes",
                self.avg_explore_bytes,
            ),
            Row::new(experiment, series, x, "sync_bytes", self.avg_sync_bytes),
            Row::new(
                experiment,
                series,
                x,
                "join_ship_bytes",
                self.avg_join_bytes,
            ),
        ]
    }

    /// CSV rows for the fault-tolerance counters (retries, timeouts,
    /// suppressed duplicates, degraded completions). All-zero on a healthy
    /// transport; meaningful under a `FaultPlan`.
    pub fn fault_rows(&self, experiment: &str, series: &str, x: f64) -> Vec<Row> {
        vec![
            Row::new(experiment, series, x, "retries", self.avg_retries),
            Row::new(experiment, series, x, "timeouts", self.avg_timeouts),
            Row::new(
                experiment,
                series,
                x,
                "duplicates_suppressed",
                self.avg_duplicates_suppressed,
            ),
            Row::new(
                experiment,
                series,
                x,
                "partial_queries",
                self.partial_queries as f64,
            ),
        ]
    }
}

/// Runs a suite of queries and averages the metrics (the paper reports
/// averages over 100 queries).
pub fn run_suite(cloud: &MemoryCloud, queries: &[QueryGraph], config: &MatchConfig) -> SuiteResult {
    run_suite_under(cloud, queries, config, &QueryOptions::none())
}

/// [`run_suite`] with every query under `options` (its fault stack, say).
pub fn run_suite_under(
    cloud: &MemoryCloud,
    queries: &[QueryGraph],
    config: &MatchConfig,
    options: &QueryOptions,
) -> SuiteResult {
    let mut out = SuiteResult {
        queries: queries.len(),
        ..Default::default()
    };
    if queries.is_empty() {
        return out;
    }
    for q in queries {
        let result = stwig::match_query(
            cloud,
            q,
            config,
            stwig::Run {
                options: options.clone(),
                ..stwig::Run::default()
            },
        )
        .expect("query execution failed");
        let m = &result.metrics;
        out.avg_wall_ms += m.wall_ms();
        out.avg_simulated_ms += m.simulated_ms();
        out.avg_matches += m.matches_found as f64;
        out.avg_messages += m.network_messages as f64;
        out.avg_bytes += m.network_bytes as f64;
        out.avg_stwig_rows += m.stwig_rows.iter().sum::<u64>() as f64;
        out.avg_explore_bytes += m.phase_traffic.explore_bytes as f64;
        out.avg_sync_bytes += m.phase_traffic.binding_sync_bytes as f64;
        out.avg_join_bytes += m.phase_traffic.join_ship_bytes as f64;
        out.avg_roots_pruned += m.explore.roots_pruned as f64;
        out.avg_retries += m.fault.retries as f64;
        out.avg_timeouts += m.fault.timeouts as f64;
        out.avg_duplicates_suppressed += m.fault.duplicates_suppressed as f64;
        if m.outcome == stwig::metrics::QueryOutcome::Partial {
            out.partial_queries += 1;
        }
    }
    let n = queries.len() as f64;
    out.avg_wall_ms /= n;
    out.avg_simulated_ms /= n;
    out.avg_matches /= n;
    out.avg_messages /= n;
    out.avg_bytes /= n;
    out.avg_stwig_rows /= n;
    out.avg_explore_bytes /= n;
    out.avg_sync_bytes /= n;
    out.avg_join_bytes /= n;
    out.avg_roots_pruned /= n;
    out.avg_retries /= n;
    out.avg_timeouts /= n;
    out.avg_duplicates_suppressed /= n;
    out
}

/// Measures the wall-clock of a closure in milliseconds, returning the value
/// and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1000.0)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, by nearest rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_gen::prelude::*;
    use trinity_sim::network::CostModel;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("MEDIUM"), Some(Scale::Medium));
        assert_eq!(Scale::parse("huge"), None);
        assert!(Scale::Large.base_vertices() > Scale::Small.base_vertices());
    }

    #[test]
    fn row_csv_round_trip() {
        let r = Row::new("fig8a", "patents", 5.0, "run_time_ms", 1.25);
        assert_eq!(r.to_csv(), "fig8a,patents,5,run_time_ms,1.25");
        assert!(Row::csv_header().starts_with("experiment"));
    }

    #[test]
    fn suite_runner_averages_metrics() {
        let g = wordnet_like(500, 1);
        let cloud = g.build_cloud(2, CostModel::default());
        let queries = query_batch(&cloud, 3, 4, None, 11);
        assert!(!queries.is_empty());
        let res = run_suite(&cloud, &queries, &MatchConfig::paper_default());
        assert_eq!(res.queries, queries.len());
        assert!(res.avg_wall_ms > 0.0);
        assert!(res.avg_matches >= 1.0);
    }

    #[test]
    fn suite_runner_breaks_traffic_down_by_phase() {
        let g = wordnet_like(500, 1);
        let cloud = g.build_cloud(4, CostModel::default());
        let queries = query_batch(&cloud, 3, 4, None, 11);
        let res = run_suite(&cloud, &queries, &MatchConfig::paper_default());
        // The phases partition the totals (serial suite, one query at a
        // time), so their sum can never exceed the average total bytes.
        let phase_sum = res.avg_explore_bytes + res.avg_sync_bytes + res.avg_join_bytes;
        assert!(phase_sum > 0.0, "a 4-machine run must cross machines");
        assert!(phase_sum <= res.avg_bytes + 1e-6);
        let rows = res.phase_rows("fig8a", "wordnet", 4.0);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.experiment == "fig8a"));
        assert_eq!(rows[0].metric, "explore_bytes");
        assert_eq!(rows[1].metric, "sync_bytes");
        assert_eq!(rows[2].metric, "join_ship_bytes");
    }

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, ms) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
