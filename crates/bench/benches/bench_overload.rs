//! Overload serving: goodput and tail latency of the admission-controlled
//! `submit()` engine under closed-loop calibration and open-loop arrivals at
//! 1x / 2x / 10x the measured service capacity.
//!
//! Acceptance (asserted by `report_overload`):
//! - goodput at 10x offered load stays within 20% of goodput at 1x — the
//!   bounded queue plus shed-at-dispatch keeps the servers doing useful work
//!   instead of dragging every query past its deadline;
//! - refused work fails fast: rejected submissions and expired-deadline
//!   sheds resolve in < 1 ms median, with no exploration or transport work;
//! - the p99 latency of *accepted and completed* queries at 10x is at most
//!   2x the 1x p99 — overload hurts the excess, not the admitted work.
//!
//! A `run_batch` contrast run (no deadlines, so nothing is refused or shed)
//! is reported alongside: it executes everything to completion, so under
//! the same 10x burst nearly all queries would have been served long past
//! the deadline instead of being refused up front.

use criterion::{criterion_group, criterion_main, Criterion};
use graph_gen::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stwig::prelude::*;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

const MACHINES: usize = 4;
/// Serve-loop worker threads (and the admission `servers` hint).
const SERVERS: usize = 2;
const QUERY_POOL: usize = 12;
const QUERY_NODES: usize = 5;
const ZIPF_EXPONENT: f64 = 1.1;
/// Closed-loop queries used to calibrate the cost estimator and measure the
/// per-query service time distribution.
const CAL_QUERIES: usize = 64;
/// Open-loop submission window per load multiplier, seconds.
const OPEN_SECONDS: f64 = 1.5;
/// Bounds on the open-loop query count, so a very fast (or very slow) graph
/// still produces a meaningful, bounded phase.
const MIN_OPEN: usize = 60;
const MAX_OPEN: usize = 1_200;
/// Bounded admission queue: ~2 queries of backlog per server, so accepted
/// work waits O(service time), never O(backlog).
const QUEUE_CAPACITY: usize = 2 * SERVERS;
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

fn overload_cloud() -> MemoryCloud {
    synthetic_experiment_graph(10_000, 8.0, 2e-3, 0x0DD0)
        .build_cloud(MACHINES, CostModel::default())
}

fn engine_config() -> EngineConfig {
    let admission = AdmissionConfig::default()
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_servers(SERVERS);
    EngineConfig::default()
        .with_workers(Some(SERVERS))
        .with_match_config(MatchConfig::paper_default().with_num_threads(Some(1)))
        .with_serve(ServeConfig::default().with_admission(admission))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Service-time distribution from a closed-loop (one in flight) run, which
/// also feeds the engine's cost estimator its calibration samples.
struct Calibration {
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn calibrate(engine: &QueryEngine<'_>, cloud: &MemoryCloud) -> Calibration {
    let queries = zipf_workload(
        cloud,
        QUERY_POOL,
        CAL_QUERIES,
        QUERY_NODES,
        ZIPF_EXPONENT,
        0xCA11,
    );
    let mut service_ms: Vec<f64> = Vec::with_capacity(queries.len());
    for query in &queries {
        let handle = engine
            .submit(QueryRequest::new(query.clone()).with_tenant("calibration"))
            .expect_accepted();
        engine.drain();
        let response = handle.wait().expect("calibration query completes");
        assert_eq!(response.metrics.outcome, QueryOutcome::Complete);
        service_ms.push(response.metrics.wall_us / 1e3);
    }
    service_ms.sort_by(f64::total_cmp);
    Calibration {
        mean_ms: service_ms.iter().sum::<f64>() / service_ms.len() as f64,
        p50_ms: percentile(&service_ms, 0.5),
        p99_ms: percentile(&service_ms, 0.99),
    }
}

struct PhaseStats {
    multiplier: f64,
    offered_qps: f64,
    submitted: usize,
    completed: usize,
    deadline_missed: usize,
    shed: usize,
    rejected_full: usize,
    rejected_late: usize,
    wall_s: f64,
    /// Submit-to-last-row latency of accepted queries that completed, ms.
    latency_ms: Vec<f64>,
    /// Wall-clock of the `submit()` call for *rejected* submissions, µs —
    /// the fail-fast path must not do per-query exploration work.
    reject_us: Vec<f64>,
}

impl PhaseStats {
    fn goodput_qps(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    fn report(&mut self) {
        self.latency_ms.sort_by(f64::total_cmp);
        let refused = self.rejected_full + self.rejected_late + self.shed;
        eprintln!(
            "{:>4.0}x offered {:>7.0} q/s | goodput {:>7.0} q/s | completed {:>4} \
             missed {:>3} shed {:>3} rejected {:>4} (full {}, late {}) | \
             accepted-latency p50 {:.2} ms p99 {:.2} ms p999 {:.2} ms | \
             reject median {:.0} µs",
            self.multiplier,
            self.offered_qps,
            self.goodput_qps(),
            self.completed,
            self.deadline_missed,
            self.shed,
            self.rejected_full + self.rejected_late,
            self.rejected_full,
            self.rejected_late,
            percentile(&self.latency_ms, 0.5),
            percentile(&self.latency_ms, 0.99),
            percentile(&self.latency_ms, 0.999),
            median(&mut self.reject_us.clone()),
        );
        assert_eq!(
            self.submitted,
            self.completed + self.deadline_missed + refused,
            "every submission must resolve exactly once"
        );
    }
}

/// Open-loop phase: submissions arrive on a fixed schedule at `rate_qps`
/// regardless of completions; `SERVERS` serve workers drain the queue.
fn run_open_loop(
    engine: &QueryEngine<'_>,
    cloud: &MemoryCloud,
    multiplier: f64,
    rate_qps: f64,
    deadline: Duration,
    seed: u64,
) -> PhaseStats {
    let count = ((rate_qps * OPEN_SECONDS).ceil() as usize).clamp(MIN_OPEN, MAX_OPEN);
    let queries = zipf_workload(cloud, QUERY_POOL, count, QUERY_NODES, ZIPF_EXPONENT, seed);
    let stop = AtomicBool::new(false);
    let mut stats = PhaseStats {
        multiplier,
        offered_qps: rate_qps,
        submitted: queries.len(),
        completed: 0,
        deadline_missed: 0,
        shed: 0,
        rejected_full: 0,
        rejected_late: 0,
        wall_s: 0.0,
        latency_ms: Vec::new(),
        reject_us: Vec::new(),
    };
    let handles: Vec<QueryHandle> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..SERVERS)
            .map(|_| s.spawn(|| engine.serve(&stop)))
            .collect();
        let start = Instant::now();
        let mut handles = Vec::with_capacity(queries.len());
        for (i, query) in queries.iter().enumerate() {
            let target = start + Duration::from_secs_f64(i as f64 / rate_qps);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            let request = QueryRequest::new(query.clone())
                .with_tenant(TENANTS[i % TENANTS.len()])
                .with_deadline(deadline);
            let submit_started = Instant::now();
            match engine.submit(request) {
                Submit::Accepted(handle) => handles.push(handle),
                Submit::Rejected(reason) => {
                    stats
                        .reject_us
                        .push(submit_started.elapsed().as_secs_f64() * 1e6);
                    match reason {
                        RejectReason::QueueFull { .. } => stats.rejected_full += 1,
                        RejectReason::EstimatedTooLate { .. } => stats.rejected_late += 1,
                    }
                }
            }
        }
        while handles.iter().any(|h| !h.is_finished()) {
            std::thread::yield_now();
        }
        stats.wall_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        for worker in workers {
            worker.join().expect("serve worker exits");
        }
        handles
    });
    for handle in handles {
        let response = handle.wait().expect("accepted query resolves");
        if response.was_shed() {
            stats.shed += 1;
        } else if response.metrics.outcome == QueryOutcome::Complete {
            stats.completed += 1;
            stats
                .latency_ms
                .push(response.queue_wait_us / 1e3 + response.metrics.wall_us / 1e3);
        } else {
            // DeadlineExceeded mid-execution: partial rows, counted as a miss.
            stats.deadline_missed += 1;
        }
    }
    stats
}

/// Fail-fast micro-measurement for the dispatch-time shed path: an engine
/// that admits everything is handed already-expired deadlines; resolving
/// each one must cost well under a millisecond and move zero bytes.
fn measure_shed_fast_path(cloud: &MemoryCloud) -> f64 {
    let serve = ServeConfig::default()
        .with_admission(AdmissionConfig::default().with_reject_estimated_late(false));
    let engine = QueryEngine::new(cloud, EngineConfig::default().with_serve(serve));
    let queries = zipf_workload(cloud, QUERY_POOL, 64, QUERY_NODES, ZIPF_EXPONENT, 0x5EDD);
    let handles: Vec<QueryHandle> = queries
        .iter()
        .map(|q| {
            engine
                .submit(QueryRequest::new(q.clone()).with_deadline(Duration::ZERO))
                .expect_accepted()
        })
        .collect();
    cloud.reset_traffic();
    let started = Instant::now();
    engine.drain();
    let per_query_us = started.elapsed().as_secs_f64() * 1e6 / handles.len() as f64;
    assert_eq!(
        cloud.traffic().total_messages(),
        0,
        "shedding must not touch the transport"
    );
    for handle in handles {
        assert!(handle.wait().expect("shed resolves").was_shed());
    }
    per_query_us
}

/// The same burst without deadlines: `run_batch` drains a full queue and
/// resubmits, so it executes every query to completion no matter how late.
fn run_batch_contrast(
    engine: &QueryEngine<'_>,
    cloud: &MemoryCloud,
    count: usize,
    deadline: Duration,
    seed: u64,
) {
    let queries = zipf_workload(cloud, QUERY_POOL, count, QUERY_NODES, ZIPF_EXPONENT, seed);
    let started = Instant::now();
    let outputs = engine.run_batch(&queries);
    let elapsed = started.elapsed();
    assert!(outputs.iter().all(|o| o.is_ok()));
    let qps = queries.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    // FIFO approximation: if the whole burst arrived at once with the same
    // per-query deadline, only the slice finishing inside the deadline
    // window would have met it.
    let would_meet =
        (deadline.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).clamp(0.0, 1.0) * 100.0;
    eprintln!(
        "run_batch contrast: {} queries in {:.2} s ({qps:.0} q/s), no shedding — \
         under the same 10x burst only ~{would_meet:.0}% would have met the \
         {deadline:?} deadline; the rest would be served late instead of refused",
        queries.len(),
        elapsed.as_secs_f64(),
    );
}

/// The acceptance measurement: calibrate closed-loop, then open-loop at
/// 1x / 2x / 10x of measured capacity, then the fail-fast and `run_batch`
/// contrast measurements, with the overload acceptance bounds asserted.
fn report_overload(c: &mut Criterion) {
    let _ = c;
    let cloud = overload_cloud();
    let engine = QueryEngine::new(&cloud, engine_config());

    let cal = calibrate(&engine, &cloud);
    let capacity_qps = SERVERS as f64 / (cal.mean_ms / 1e3).max(1e-9);
    // Generous deadline — several tail service times — so the 1x phase is
    // essentially shed-free and overload behavior is down to admission.
    let deadline = Duration::from_secs_f64((4.0 * cal.p99_ms).max(5.0) / 1e3);
    eprintln!(
        "calibration: service p50 {:.2} ms p99 {:.2} ms mean {:.2} ms | \
         {SERVERS} servers -> capacity ~{capacity_qps:.0} q/s | \
         deadline {deadline:?} | estimator samples {}",
        cal.p50_ms,
        cal.p99_ms,
        cal.mean_ms,
        engine.cost_estimator().samples(),
    );

    let mut phases: Vec<PhaseStats> = [1.0f64, 2.0, 10.0]
        .into_iter()
        .enumerate()
        .map(|(i, multiplier)| {
            run_open_loop(
                &engine,
                &cloud,
                multiplier,
                multiplier * capacity_qps,
                deadline,
                0x0DD1 + i as u64,
            )
        })
        .collect();
    for phase in &mut phases {
        phase.report();
    }

    let shed_us = measure_shed_fast_path(&cloud);
    let mut reject_us: Vec<f64> = phases.iter().flat_map(|p| p.reject_us.clone()).collect();
    let reject_median_us = median(&mut reject_us);
    eprintln!(
        "fail-fast: shed resolution {shed_us:.0} µs/query, rejected submit() \
         median {reject_median_us:.0} µs (acceptance: both < 1 ms)"
    );

    let baseline = &phases[0];
    let overload = &phases[2];
    run_batch_contrast(&engine, &cloud, overload.submitted, deadline, 0x0DD3);

    let goodput_ratio = overload.goodput_qps() / baseline.goodput_qps().max(1e-9);
    let p99_1x = percentile(&baseline.latency_ms, 0.99);
    let p99_10x = percentile(&overload.latency_ms, 0.99);
    eprintln!(
        "acceptance: 10x/1x goodput {goodput_ratio:.2} (>= 0.8), accepted p99 \
         {p99_10x:.2} ms vs 1x p99 {p99_1x:.2} ms (<= 2x)"
    );
    assert!(
        goodput_ratio >= 0.8,
        "goodput under 10x overload must stay within 20% of the 1x goodput \
         (got {goodput_ratio:.2})"
    );
    assert!(
        shed_us < 1_000.0,
        "shed queries must resolve in < 1 ms (got {shed_us:.0} µs)"
    );
    assert!(
        reject_us.is_empty() || reject_median_us < 1_000.0,
        "rejected submissions must resolve in < 1 ms median \
         (got {reject_median_us:.0} µs)"
    );
    assert!(
        overload.latency_ms.is_empty()
            || baseline.latency_ms.is_empty()
            || p99_10x <= 2.0 * p99_1x.max(cal.p50_ms),
        "accepted p99 under overload must stay within 2x the 1x p99 \
         (got {p99_10x:.2} ms vs {p99_1x:.2} ms)"
    );
    assert!(
        overload.rejected_full + overload.rejected_late + overload.shed > 0,
        "a 10x burst against a bounded queue must refuse some work"
    );
}

/// Lossy-transport phase: the same open-loop serving over a Messages
/// transport wrapped in a seeded lossy fault plan, with the default retry
/// policy absorbing drops, duplicates, delays and transient errors. Reports
/// goodput and accepted-latency p99 with retries on, plus the engine's
/// aggregated retry / timeout / duplicate counters.
fn report_lossy_transport(c: &mut Criterion) {
    let _ = c;
    let cloud = overload_cloud();
    let admission = AdmissionConfig::default()
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_servers(SERVERS);
    let engine = QueryEngine::new(
        &cloud,
        EngineConfig::default()
            .with_workers(Some(SERVERS))
            .with_match_config(
                MatchConfig::paper_default()
                    .with_num_threads(Some(1))
                    .with_transport_mode(TransportMode::Messages)
                    .with_fault_plan(Some(trinity_sim::fault::FaultPlan::lossy(0x10))),
            )
            .with_serve(ServeConfig::default().with_admission(admission)),
    );
    let cal = calibrate(&engine, &cloud);
    let capacity_qps = SERVERS as f64 / (cal.mean_ms / 1e3).max(1e-9);
    let deadline = Duration::from_secs_f64((4.0 * cal.p99_ms).max(5.0) / 1e3);
    let mut phase = run_open_loop(&engine, &cloud, 1.0, capacity_qps, deadline, 0x10AD);
    phase.report();
    let snapshot = engine.metrics_snapshot();
    eprintln!(
        "lossy transport: goodput {:.0} q/s | accepted-latency p99 {:.2} ms | \
         retries {} timeouts {} duplicates suppressed {}",
        phase.goodput_qps(),
        percentile(&phase.latency_ms, 0.99),
        snapshot.scheduler.retries_total,
        snapshot.scheduler.timeouts_total,
        snapshot.scheduler.duplicates_suppressed_total,
    );
    assert!(
        phase.completed > 0,
        "the lossy phase must still complete queries"
    );
    assert!(
        snapshot.scheduler.retries_total + snapshot.scheduler.duplicates_suppressed_total > 0,
        "the lossy plan must actually exercise the retry machinery"
    );
}

/// Criterion sweep (kept small — the acceptance numbers come from
/// `report_overload`): steady-state submit+drain round-trip of a small
/// closed-loop batch through the admission path.
fn bench_overload(c: &mut Criterion) {
    let cloud = overload_cloud();
    // Default (deep) admission queue: the sweep batch must always be
    // accepted — backpressure behavior belongs to `report_overload`.
    let engine = QueryEngine::new(
        &cloud,
        EngineConfig::default()
            .with_workers(Some(SERVERS))
            .with_match_config(MatchConfig::paper_default().with_num_threads(Some(1))),
    );
    let queries = zipf_workload(&cloud, QUERY_POOL, 8, QUERY_NODES, ZIPF_EXPONENT, 0xB0B0);
    let mut group = c.benchmark_group("overload");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("submit_drain_8", |b| {
        b.iter(|| {
            let handles: Vec<QueryHandle> = queries
                .iter()
                .map(|q| {
                    engine
                        .submit(QueryRequest::new(q.clone()).with_tenant("sweep"))
                        .expect_accepted()
                })
                .collect();
            engine.drain();
            handles
                .into_iter()
                .map(|h| h.wait().expect("completes").rows_delivered())
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_overload,
    report_overload,
    report_lossy_transport
);
criterion_main!(benches);
