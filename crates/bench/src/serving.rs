//! Serving-layer experiments (no paper counterpart): the `QueryEngine` as a
//! server of many queries rather than a matcher of one.
//!
//! | Function | What is measured |
//! |---|---|
//! | [`serving`]  | steady-state QPS per STwig-cache budget on a Zipf workload; time to first result per result mode; the 2×-deadline contract |
//! | [`overload`] | goodput and accepted-request p99 under open-loop arrivals at 1× / 2× / 10× of calibrated capacity; what a refusal costs |
//!
//! Timing bounds are rows, not assertions. What is asserted holds on any
//! host: every answer is `Ok`, every accepted request resolves, and a shed
//! request moves no transport envelope.

use crate::experiments::rmat_fixed_labels;
use crate::harness::{percentile, timed, Row, Scale};
use graph_gen::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stwig::prelude::*;
use trinity_sim::ids::VertexId;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

const MACHINES: usize = 4;
/// Threads that drain a batch, serve loops and the admission `servers` hint.
const SERVERS: usize = 2;
const QUERY_NODES: usize = 5;
const ZIPF_EXPONENT: f64 = 1.1;
/// Cache budgets [`serving`] sweeps, in bytes; 0 turns the cache off. The
/// middle one is small enough to keep the eviction path busy.
const BUDGETS: [usize; 3] = [0, 256 << 10, 32 << 20];
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// The engine both experiments serve with: each query explored on one
/// thread, the paper's first-1024 result mode.
fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_match_config(MatchConfig::paper_default().with_num_threads(Some(1)))
}

/// Cache QPS, time to first result and the deadline contract.
pub fn serving(scale: Scale) -> Vec<Row> {
    let mut rows = cache_qps(scale);
    rows.extend(first_result_latency(scale));
    rows
}

/// Batch throughput (submit all, drain on [`SERVERS`] threads, wait for
/// each) of a 128-query Zipf workload per cache budget
/// (series `cache`, X the budget in KiB), after one untimed pass fills the
/// cache. Degree 48 over 60 labels: exploration scans every neighbor of
/// every root candidate while the surviving STwig tables stay small, which
/// is the work a table cache removes.
fn cache_qps(scale: Scale) -> Vec<Row> {
    let cloud = rmat_fixed_labels(scale.base_vertices(), 48.0, 60, 0xCAC4E)
        .build_cloud(MACHINES, CostModel::default());
    let workload = zipf_workload(&cloud, 16, 128, QUERY_NODES, ZIPF_EXPONENT, 0xBEE5);
    let passes = scale.queries_per_point();
    let mut rows = Vec::new();
    for budget in BUDGETS {
        let cache = (budget > 0).then(|| CacheConfig::default().with_budget_bytes(budget));
        let engine = QueryEngine::new(&cloud, engine_config().with_cache(cache));
        let pass = || {
            let handles: Vec<QueryHandle> = (workload.iter())
                .map(|query| {
                    engine
                        .submit(QueryRequest::new(query.clone()))
                        .expect_accepted()
                })
                .collect();
            std::thread::scope(|scope| {
                for _ in 1..SERVERS {
                    scope.spawn(|| engine.drain());
                }
                engine.drain();
            });
            let all_ok = handles.into_iter().all(|handle| handle.wait().is_ok());
            assert!(all_ok, "a batched query failed");
        };
        pass();
        let ((), ms) = timed(|| (0..passes).for_each(|_| pass()));
        let x = (budget >> 10) as f64;
        let qps = (passes * workload.len()) as f64 / (ms / 1e3);
        let hit_rate = engine.cache_stats().map_or(0.0, |s| s.hit_rate());
        rows.push(Row::new("serving", "cache", x, "qps", qps));
        rows.push(Row::new("serving", "cache", x, "hit_rate", hit_rate));
    }
    rows
}

/// Time to first result (TTFR) and completion per result mode, streamed
/// into a row counter, over a Zipf workload; then the slowest full
/// enumeration under a 10 ms deadline (series `deadline`, X the deadline in
/// ms), which should return its partial rows within 2× of it.
fn first_result_latency(scale: Scale) -> Vec<Row> {
    // Full enumeration of these queries already peaks at hundreds of MB of
    // intermediate rows at 100k vertices, so larger scales stay there.
    let n = (scale.base_vertices() * 5).min(100_000);
    let cloud = rmat_fixed_labels(n, 8.0, 30, 0x9A11).build_cloud(MACHINES, CostModel::default());
    let queries = zipf_workload(&cloud, 12, 24, QUERY_NODES, ZIPF_EXPONENT, 0xF1B5);
    let mut rows = Vec::new();
    let mut slowest = 0;
    for (series, mode) in [
        ("all", ResultMode::All),
        ("first-1024", ResultMode::FirstK(1024)),
        ("first-1", ResultMode::FirstK(1)),
    ] {
        let config = MatchConfig::default().with_result_mode(mode);
        let (mut first_ms, mut done_ms) = (Vec::new(), Vec::new());
        for query in &queries {
            let (metrics, _, ms) = stream(&cloud, query, &config, &QueryOptions::none());
            first_ms.push(metrics.time_to_first_result_us.map_or(ms, |us| us / 1e3));
            done_ms.push(ms);
        }
        if mode == ResultMode::All {
            slowest = (0..done_ms.len())
                .max_by(|&a, &b| done_ms[a].total_cmp(&done_ms[b]))
                .expect("a non-empty workload");
        }
        let mean_ms = done_ms.iter().sum::<f64>() / done_ms.len() as f64;
        first_ms.sort_by(f64::total_cmp);
        done_ms.sort_by(f64::total_cmp);
        for (metric, value) in [
            ("ttfr_p50_ms", percentile(&first_ms, 0.5)),
            ("ttfr_p99_ms", percentile(&first_ms, 0.99)),
            ("completion_p50_ms", percentile(&done_ms, 0.5)),
            ("completion_mean_ms", mean_ms),
        ] {
            rows.push(Row::new("serving", series, 0.0, metric, value));
        }
    }

    let deadline = Duration::from_millis(10);
    let options = QueryOptions::none().with_deadline(deadline);
    let (metrics, delivered, ms) =
        stream(&cloud, &queries[slowest], &MatchConfig::default(), &options);
    let exceeded = metrics.outcome == QueryOutcome::DeadlineExceeded;
    if exceeded {
        assert_eq!(
            metrics.rows_streamed, delivered,
            "an interrupted query's partial rows stay delivered and counted"
        );
    }
    let x = deadline.as_secs_f64() * 1e3;
    rows.push(Row::new(
        "serving",
        "deadline",
        x,
        "elapsed_over_deadline",
        ms / x,
    ));
    rows.push(Row::new(
        "serving",
        "deadline",
        x,
        "exceeded",
        f64::from(u8::from(exceeded)),
    ));
    rows
}

/// Streams `query` into a row counter: its metrics, the rows delivered and
/// the wall-clock in ms.
fn stream(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    options: &QueryOptions,
) -> (QueryMetrics, u64, f64) {
    let mut delivered = 0u64;
    let mut sink = |_row: &[VertexId]| delivered += 1;
    let (metrics, ms) = timed(|| {
        match_query(
            cloud,
            query,
            config,
            Run {
                options: options.clone(),
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .expect("the query runs")
        .metrics
    });
    (metrics, delivered, ms)
}

/// Overload serving behind a two-deep-per-server admission queue. Series
/// `calibration`: a closed loop (one request in flight, submitted to the
/// running serve loops and timed until `wait()` returns) measures the
/// service time as an open-loop request pays it and feeds admission's cost
/// estimator. Series `open-loop`, X the load
/// multiplier: requests arrive on a fixed schedule at 1× / 2× / 10× of the
/// calibrated capacity whatever the completions, with a deadline of several
/// tail service times. Series `fail-fast`: what a refusal costs — a
/// rejected `submit()` (median over the open-loop phases) and a request
/// shed at dispatch because its deadline had passed.
pub fn overload(scale: Scale) -> Vec<Row> {
    let cloud = rmat_fixed_labels(scale.base_vertices() / 2, 8.0, 20, 0x0DD0)
        .build_cloud(MACHINES, CostModel::default());
    let admission = AdmissionConfig::default().with_queue_capacity(2 * SERVERS);
    let serve = ServeConfig::default().with_admission(admission);
    let engine = QueryEngine::new(&cloud, engine_config().with_serve(serve));
    let workload = |count, seed| zipf_workload(&cloud, 12, count, QUERY_NODES, ZIPF_EXPONENT, seed);
    let mut rows = Vec::new();
    let mut row = |series: &str, x: f64, metric: &str, value: f64| {
        rows.push(Row::new("overload", series, x, metric, value));
    };

    let calibration = workload(64, 0xCA11);
    let mut service_ms: Vec<f64> = with_servers(&engine, || {
        (calibration.into_iter())
            .map(|query| {
                let request = QueryRequest::new(query).with_tenant("calibration");
                let submitted = Instant::now();
                let response = (engine.submit(request).expect_accepted())
                    .wait()
                    .expect("a calibration query completes");
                assert_eq!(response.metrics.outcome, QueryOutcome::Complete);
                submitted.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    });
    service_ms.sort_by(f64::total_cmp);
    let mean_ms = service_ms.iter().sum::<f64>() / service_ms.len() as f64;
    let capacity_qps = SERVERS as f64 / (mean_ms / 1e3).max(1e-9);
    let p99_ms = percentile(&service_ms, 0.99);
    // Several tail service times: the 1× phase is essentially shed-free, so
    // what changes with load is admission alone.
    let deadline = Duration::from_secs_f64((4.0 * p99_ms).max(5.0) / 1e3);
    row(
        "calibration",
        0.0,
        "service_p50_ms",
        percentile(&service_ms, 0.5),
    );
    row("calibration", 0.0, "service_p99_ms", p99_ms);
    row("calibration", 0.0, "capacity_qps", capacity_qps);

    // Submission window per multiplier; the request count is bounded so a
    // very fast or very slow graph still gives a meaningful, finite phase.
    let window_s = match scale {
        Scale::Small => 0.25,
        Scale::Medium | Scale::Large => 1.5,
    };
    let mut reject_us = Vec::new();
    for (i, multiplier) in [1.0f64, 2.0, 10.0].into_iter().enumerate() {
        let rate_qps = multiplier * capacity_qps;
        let count = ((rate_qps * window_s).ceil() as usize).clamp(60, 1_200);
        let queries = workload(count, 0x0DD1 + i as u64);
        let phase = open_loop(&engine, &queries, rate_qps, deadline, &mut reject_us);
        let completed = phase.latency_ms.len();
        row("open-loop", multiplier, "offered_qps", rate_qps);
        row(
            "open-loop",
            multiplier,
            "goodput_qps",
            completed as f64 / phase.wall_s,
        );
        row(
            "open-loop",
            multiplier,
            "accepted_p99_ms",
            percentile(&phase.latency_ms, 0.99),
        );
        row("open-loop", multiplier, "refused", phase.refused as f64);
        row(
            "open-loop",
            multiplier,
            "deadline_missed",
            phase.missed as f64,
        );
    }
    reject_us.sort_by(f64::total_cmp);
    row(
        "fail-fast",
        0.0,
        "reject_us_p50",
        percentile(&reject_us, 0.5),
    );

    // An engine that admits everything, handed requests whose deadline has
    // already passed: dispatch sheds each one without exploring.
    let serve = ServeConfig::default()
        .with_admission(AdmissionConfig::default().with_reject_estimated_late(false));
    let admit_all = QueryEngine::new(&cloud, EngineConfig::default().with_serve(serve));
    let handles: Vec<QueryHandle> = workload(64, 0x5EDD)
        .into_iter()
        .map(|q| {
            let request = QueryRequest::new(q).with_deadline(Duration::ZERO);
            admit_all.submit(request).expect_accepted()
        })
        .collect();
    let shed = handles.len() as f64;
    let ((), ms) = timed(|| admit_all.drain());
    for handle in handles {
        let response = handle.wait().expect("a shed request resolves");
        assert!(response.was_shed());
        let messages = response.metrics.network_messages;
        assert_eq!(messages, 0, "shedding touched the transport");
    }
    row("fail-fast", 0.0, "shed_us_per_query", ms * 1e3 / shed);
    rows
}

/// What one open-loop phase measured.
struct Phase {
    wall_s: f64,
    /// Submit-to-last-row latency of each completed request, ms, ascending.
    latency_ms: Vec<f64>,
    /// Requests rejected at `submit()` or shed at dispatch.
    refused: usize,
    /// Requests whose deadline passed mid-execution (partial rows).
    missed: usize,
}

/// Runs `f` while [`SERVERS`] serve loops drain `engine`'s queue.
fn with_servers<T>(engine: &QueryEngine<'_>, f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..SERVERS)
            .map(|_| s.spawn(|| engine.serve(&stop)))
            .collect();
        let out = f();
        stop.store(true, Ordering::Release);
        for worker in workers {
            worker.join().expect("a serve loop exits");
        }
        out
    })
}

/// Submits `queries` at `rate_qps` on a fixed schedule while [`SERVERS`]
/// serve loops drain the queue; pushes each rejected `submit()`'s cost in µs
/// to `reject_us`.
fn open_loop(
    engine: &QueryEngine<'_>,
    queries: &[QueryGraph],
    rate_qps: f64,
    deadline: Duration,
    reject_us: &mut Vec<f64>,
) -> Phase {
    let mut refused = 0;
    let (handles, wall_s) = with_servers(engine, || {
        let start = Instant::now();
        let mut handles = Vec::with_capacity(queries.len());
        for (i, query) in queries.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate_qps);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let request = QueryRequest::new(query.clone())
                .with_tenant(TENANTS[i % TENANTS.len()])
                .with_deadline(deadline);
            let submitted = Instant::now();
            match engine.submit(request) {
                Submit::Accepted(handle) => handles.push(handle),
                Submit::Rejected(_) => {
                    reject_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                    refused += 1;
                }
            }
        }
        while handles.iter().any(|h| !h.is_finished()) {
            std::thread::yield_now();
        }
        (handles, start.elapsed().as_secs_f64())
    });
    let (mut latency_ms, mut missed) = (Vec::new(), 0);
    for handle in handles {
        let response = handle.wait().expect("an accepted request resolves");
        if response.was_shed() {
            refused += 1;
        } else if response.metrics.outcome == QueryOutcome::Complete {
            latency_ms.push((response.queue_wait_us + response.metrics.wall_us) / 1e3);
        } else {
            missed += 1;
        }
    }
    latency_ms.sort_by(f64::total_cmp);
    Phase {
        wall_s,
        latency_ms,
        refused,
        missed,
    }
}
