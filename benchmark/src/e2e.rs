//! The end-to-end run (`--trace 0`): three set-ups, each followed by its
//! share of the measured passes.

use crate::digest::Digest;
use crate::host;
use crate::report::{Outcome, Values};
use crate::runner::{reference_pass, run_ops, set_up, PassLog, Stage};
use crate::stats::{median, percentile, samples_beyond, BlockMin, PositionMin};
use crate::workload::{GraphInput, Inputs, Op, Spec};
use std::time::{Duration, Instant};
use trinity_sim::prelude::StorageTier;
use trinity_sim::MemoryCloud;

/// Timed set-ups per run; the fastest is `setup_s`.
pub const SET_UPS: usize = 3;

/// The latency tail every workload reports: with at least 200 positions it
/// leaves at least ten samples beyond it.
pub const TAIL: f64 = 0.95;

/// The fastest-of-passes estimators over one measured phase, beside the
/// pooled ones they replace (kept for the README's noise table).
#[derive(Debug)]
pub struct Estimators {
    /// Positions of the sequence that are queries.
    query_positions: Vec<usize>,
    latency: PositionMin,
    first_row: PositionMin,
    blocks: BlockMin,
    /// Every query latency of every pass, ns.
    pooled_latency: Vec<f64>,
    /// Sum of all request durations of all passes, ns.
    pooled_busy_ns: f64,
    /// Wall time of every pass, s.
    pub pass_wall_s: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
}

impl Estimators {
    /// Estimators for the sequence of `inputs`.
    pub fn new(inputs: &Inputs) -> Self {
        let query_positions: Vec<usize> = inputs
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Query { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(
            samples_beyond(query_positions.len(), TAIL) >= 10,
            "p95 needs ten samples beyond it"
        );
        Estimators {
            latency: PositionMin::new(query_positions.len()),
            first_row: PositionMin::new(query_positions.len()),
            query_positions,
            blocks: BlockMin::default(),
            pooled_latency: Vec::new(),
            pooled_busy_ns: 0.0,
            pass_wall_s: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts a pass's requests without timing it (the warm passes).
    pub fn count_only(&mut self, log: &PassLog) {
        self.attempted += log.attempted();
        self.failed += log.failed;
    }

    /// Folds one measured pass in.
    pub fn observe(&mut self, log: &PassLog) {
        self.count_only(log);
        for (slot, &pos) in self.query_positions.iter().enumerate() {
            let answer = &log.answers[pos];
            self.latency.observe(slot, answer.total_ns as f64);
            self.first_row.observe(slot, answer.first_row_ns as f64);
            self.pooled_latency.push(answer.total_ns as f64);
        }
        // Updates and seals take block time but are not counted as queries.
        let durations: Vec<f64> = log.answers.iter().map(|a| a.total_ns as f64).collect();
        self.blocks.observe_pass(&durations);
        self.pooled_busy_ns += durations.iter().sum::<f64>();
        self.pass_wall_s.push(log.wall_ns as f64 / 1e9);
    }

    /// Measured passes.
    pub fn passes(&self) -> usize {
        self.pass_wall_s.len()
    }

    /// Query positions per pass.
    pub fn positions(&self) -> usize {
        self.query_positions.len()
    }

    /// Queries per second of the fastest blocks.
    pub fn throughput_qps(&self) -> f64 {
        self.positions() as f64 / (self.blocks.total() / 1e9)
    }

    /// `(p50, p95)` of per-position fastest latency, ms.
    pub fn latency_ms(&self) -> (f64, f64) {
        let sorted = self.latency.sorted();
        (median(&sorted) / 1e6, percentile(&sorted, TAIL) / 1e6)
    }

    /// p50 of per-position fastest time to first row, ms.
    pub fn ttfr_p50_ms(&self) -> f64 {
        median(&self.first_row.sorted()) / 1e6
    }

    /// The estimators this benchmark does *not* use: `(p50 ms, p95 ms, q/s)`
    /// over all samples of all passes pooled.
    pub fn pooled(&self) -> (f64, f64, f64) {
        let mut sorted = self.pooled_latency.clone();
        sorted.sort_by(f64::total_cmp);
        (
            median(&sorted) / 1e6,
            percentile(&sorted, TAIL) / 1e6,
            sorted.len() as f64 / (self.pooled_busy_ns / 1e9),
        )
    }

    /// `(median pass − fastest pass) / fastest pass`: how much of a typical
    /// pass was the host's, not the program's.
    pub fn noise_frac(&self) -> f64 {
        let mut walls = self.pass_wall_s.clone();
        walls.sort_by(f64::total_cmp);
        (median(&walls) - walls[0]) / walls[0]
    }
}

/// Replays the sequence on `stage` until `budget` is spent (at least three
/// passes), folding every pass into `estimators`.
fn measure(
    stage: &Stage<'_>,
    spec: &Spec,
    inputs: &Inputs,
    expected: &[Digest],
    budget: Duration,
    estimators: &mut Estimators,
) {
    let deadline = Instant::now() + budget;
    let mut passes = 0;
    while passes < 3 || Instant::now() < deadline {
        let log = stage.pass(|engine, _| run_ops(engine, spec, inputs, Some(expected)));
        estimators.observe(&log);
        passes += 1;
    }
}

/// Resident bytes of `cloud` per edge.
pub fn bytes_per_edge(cloud: &MemoryCloud) -> f64 {
    cloud.storage_bytes().total() as f64 / cloud.num_edges() as f64
}

/// Generates the inputs of a run and the digests every pass must reproduce.
/// Untimed; any mismatch with the independent matcher is an error.
pub fn prepare(
    spec: &Spec,
    seed: u64,
    graph: &GraphInput,
) -> Result<(Inputs, Vec<Digest>), String> {
    let cloud = graph.build_cloud(StorageTier::Compact);
    let inputs = Inputs::generate(spec, seed, &cloud);
    let expected = reference_pass(spec, &cloud, &inputs)?;
    Ok((inputs, expected))
}

/// The whole end-to-end run of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    host::pin_to_first_processor();
    let graph = GraphInput::generate(spec);
    let (inputs, expected) = prepare(spec, seed, &graph)?;
    println!("sequence_hash {:016x} hash", inputs.sequence_hash);

    let mut estimators = Estimators::new(&inputs);
    let mut set_ups = Vec::with_capacity(SET_UPS);
    let mut peaks = Vec::with_capacity(SET_UPS);
    let mut size = 0.0;
    let share = Duration::from_secs(seconds) / SET_UPS as u32;
    for _ in 0..SET_UPS {
        host::forget_memory_so_far();
        set_up(spec, &graph, &inputs, &expected, |stage, timing| {
            set_ups.push(timing.total_s);
            estimators.count_only(&timing.warm);
            size = bytes_per_edge(stage.cloud());
            // Every set-up's stage serves its share of the measured phase:
            // each build lays the graph out in memory anew, and a position's
            // fastest time is taken over all of them.
            measure(stage, spec, &inputs, &expected, share, &mut estimators);
            peaks.push(host::peak_rss_mb());
        });
    }

    let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let (p50, p95) = estimators.latency_ms();
    let mut values = Values::default();
    values.set("setup_s", fastest(&set_ups));
    values.set("throughput_qps", estimators.throughput_qps());
    values.set("latency_p50_ms", p50);
    values.set("latency_p95_ms", p95);
    values.set("ttfr_p50_ms", estimators.ttfr_p50_ms());
    values.set("bytes_per_edge", size);
    // What the allocator retains from one set-up to the next only ever adds
    // to a mark, so the smallest is the one closest to what the work needs.
    values.set("peak_rss_mb", fastest(&peaks));
    let (pooled_p50, pooled_p95, pooled_qps) = estimators.pooled();
    println!("passes {} count", estimators.passes());
    println!("latency_samples {} count", estimators.positions());
    println!("host_noise_frac {} ratio", estimators.noise_frac());
    println!("pooled_latency_p50_ms {pooled_p50} ms");
    println!("pooled_latency_p95_ms {pooled_p95} ms");
    println!("pooled_throughput_qps {pooled_qps} 1/s");
    Ok(Outcome {
        correct: estimators.failed == 0,
        attempted: estimators.attempted,
        failed: estimators.failed,
        values,
    })
}
