//! Chaos differential suite: under any *eventually delivering* fault plan
//! (drops, duplicates, delays, reorders, corrupted payloads, transient
//! unavailability and timeouts) armed on a request (`QueryOptions::faults`),
//! the retrying Messages-mode executor must return tables **bit-identical**
//! to the fault-free run — across machine counts, truncating and exhaustive
//! configs, and table and sink outputs; behind a cache, the same *answer* as the fault-free run and
//! bit-identical tables from one cached pass to the next; and on a dynamic
//! engine, VF2's answer after every apply and seal. Under a *permanent* machine
//! crash, `FailurePolicy::Fail` queries fail with a typed
//! `MachineUnavailable` error, `FailurePolicy::Degrade` queries return a
//! valid, flagged subset; either way the failure stays with the request
//! that armed it, and a fault-free request served next is answered in full.
//! A `DirectRead` query has no transport to fault: arming faults on one is
//! refused before any work.

mod common;

use common::run_batch;
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Instant;
use stwig::metrics::MachineMetrics;
use stwig::stream::QueryControl;
use stwig_match::prelude::*;
use trinity_sim::ids::MachineId;
use trinity_sim::transport::Envelope;

const MACHINES: [usize; 2] = [1, 4];
const SEEDS: [u64; 3] = [1, 7, 23];

fn chaos_graph() -> SyntheticGraph {
    let g = gnm(300, 800, 0xC4A05);
    let labels = LabelModel::Uniform { num_labels: 4 }.assign(300, 0xC4A06);
    g.with_labels(labels, 4)
}

fn workload(cloud: &trinity_sim::MemoryCloud) -> Vec<QueryGraph> {
    let queries = query_batch(cloud, 8, 4, None, 0xBEEF);
    assert!(queries.len() >= 6, "workload generation degenerated");
    queries
}

/// The faults a query's metrics saw: retries, timeouts, transient errors
/// and suppressed duplicates.
fn faults_seen(metrics: &QueryMetrics) -> u64 {
    let f = &metrics.fault;
    f.retries + f.timeouts + f.transient_errors + f.duplicates_suppressed
}

/// Runs `q` through `engine` under `options`, table output.
fn submit(engine: &QueryEngine, q: &QueryGraph, options: &QueryOptions) -> MatchOutput {
    let request = QueryRequest::new(q.clone()).with_options(options.clone());
    let handle = engine.submit(request).expect_accepted();
    engine.drain();
    let response = handle.wait().expect("chaos query succeeds");
    MatchOutput {
        table: response.table.expect("a table output"),
        metrics: response.metrics,
    }
}

/// Any eventually delivering plan must leave results bit-identical to the
/// fault-free run: duplicates are suppressed by sequence number, reordered
/// deliveries are canonicalized at the drain, and transient errors are
/// absorbed by the retry policy. Faults need a transport, so every arm runs
/// in `Messages` mode; each arm of more than one machine must show the
/// plan's faults in its metrics on every path (one machine sends nothing to
/// fault).
#[test]
fn lossy_plans_are_bit_identical_to_fault_free_runs() {
    let graph = chaos_graph();
    for machines in MACHINES {
        let cloud = graph.clone().build_cloud(machines, CostModel::default());
        let queries = workload(&cloud);
        let configs = [
            ("paper", MatchConfig::paper_default()),
            ("exhaustive", MatchConfig::exhaustive()),
        ];
        for (name, base) in configs {
            let config = base
                .with_num_threads(Some(1))
                .with_transport_mode(TransportMode::Messages);
            let expected: Vec<_> = queries
                .iter()
                .map(|q| stwig::match_query(&cloud, q, &config, stwig::Run::default()).unwrap())
                .collect();
            for seed in SEEDS {
                let plan = FaultPlan::lossy(seed);
                assert!(plan.eventually_delivers(), "lossy plans must not crash");
                let options = QueryOptions::none().with_faults(Faults::new(plan));
                // Faults each path's metrics saw: table, sink, cached.
                let mut activity = [0u64; 3];
                for cache_on in [false, true] {
                    let cache = cache_on.then(|| StwigCache::new(&cloud, CacheConfig::default()));
                    let passes = if cache_on { 2 } else { 1 };
                    let mut populated = Vec::new();
                    for pass in 0..passes {
                        for (i, (q, want)) in queries.iter().zip(&expected).enumerate() {
                            let out = stwig::match_query(
                                &cloud,
                                q,
                                &config,
                                stwig::Run {
                                    cache: cache.as_ref(),
                                    options: options.clone(),
                                    ..stwig::Run::default()
                                },
                            )
                            .unwrap();
                            let ctx = format!(
                                "machines = {machines}, config = {name}, seed = {seed}, \
                                 cache = {cache_on}, pass = {pass}, query = {i}"
                            );
                            if !cache_on {
                                assert_eq!(out.table, want.table, "chaos run diverged: {ctx}");
                                activity[0] += faults_seen(&out.metrics);
                                // The sink output gets the very same rows.
                                let mut sink = CollectSink::new();
                                let streamed = stwig::match_query(
                                    &cloud,
                                    q,
                                    &config,
                                    stwig::Run {
                                        options: options.clone(),
                                        sink: Some(&mut sink),
                                        ..stwig::Run::default()
                                    },
                                )
                                .unwrap()
                                .metrics;
                                assert_eq!(
                                    sink.into_table().as_ref(),
                                    Some(&want.table),
                                    "streamed chaos run diverged: {ctx}"
                                );
                                activity[1] += faults_seen(&streamed);
                            } else {
                                // A cache serves complete STwig tables, so
                                // which 1024 witnesses a cut answer holds is
                                // not the cache-free run's choice — but the
                                // populating pass and the hitting pass must
                                // make the same one, faults or not.
                                let limit = config.result_limit();
                                same_answer(&cloud, q, &out.table, &want.table, limit)
                                    .unwrap_or_else(|e| panic!("chaos run diverged: {e} ({ctx})"));
                                if pass == 0 {
                                    populated.push(out.table.clone());
                                } else {
                                    assert_eq!(out.table, populated[i], "hit != populate: {ctx}");
                                }
                                activity[2] += faults_seen(&out.metrics);
                            }
                            assert_eq!(
                                out.metrics.outcome,
                                QueryOutcome::Complete,
                                "an eventually delivering plan must not degrade results"
                            );
                        }
                    }
                }
                if machines > 1 {
                    for (path, seen) in ["table", "sink", "cached"].iter().zip(activity) {
                        assert!(
                            seen > 0,
                            "machines = {machines}, config = {name}, seed = {seed}: the {path} \
                             path never saw an injected fault"
                        );
                    }
                }
            }
        }
    }

    // A dynamic engine under the same plans: apply → query → seal → query,
    // every answer VF2's on the mutated graph.
    for seed in SEEDS {
        let base = graph.clone().build_cloud(4, CostModel::default());
        let stream = UpdateStreamConfig {
            num_batches: 2,
            ops_per_batch: 12,
            seed,
            ..UpdateStreamConfig::default()
        };
        let batches = update_stream(&base, &stream);
        let mut mirror = GraphMirror::from_cloud(&base);
        let epochs = GraphEpochs::new(base);
        let config = MatchConfig::exhaustive()
            .with_num_threads(Some(1))
            .with_transport_mode(TransportMode::Messages);
        let options = QueryOptions::none().with_faults(Faults::new(FaultPlan::lossy(seed)));
        let engine = QueryEngine::for_epochs(
            &epochs,
            EngineConfig::default()
                .with_workers(Some(1))
                .with_match_config(config),
        );
        let mut activity = 0u64;
        let mut check = |mirror: &GraphMirror, ctx: String| {
            let reference = mirror.build_cloud(1, CostModel::default());
            for q in query_batch(&epochs.pin(), 4, 4, None, seed) {
                let out = submit(&engine, &q, &options);
                assert_eq!(
                    canonical_rows(&q, &out.table),
                    canonical_rows(&q, &vf2(&reference, &q, None)),
                    "dynamic chaos run diverged from VF2: {ctx}"
                );
                assert_eq!(out.metrics.outcome, QueryOutcome::Complete, "{ctx}");
                activity += faults_seen(&out.metrics);
            }
        };
        for (b, batch) in batches.iter().enumerate() {
            let update = engine.apply_updates(batch.clone()).expect_accepted();
            engine.drain();
            update.wait().expect("generated batch applies");
            mirror.apply(batch);
            check(&mirror, format!("seed = {seed}, batch = {b}, applied"));
            engine.seal_epoch().expect("a dynamic engine seals");
            check(&mirror, format!("seed = {seed}, batch = {b}, sealed"));
        }
        assert!(
            activity > 0,
            "seed = {seed}: the engine path never saw an injected fault"
        );
    }
}

/// Faults need a transport to inject them into: a `DirectRead` query that
/// arms them fails typed on every front end before any work, instead of
/// silently running fault-free.
#[test]
fn faults_on_a_direct_read_query_fail_typed_before_any_work() {
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&cloud);
    let config = MatchConfig::exhaustive().with_num_threads(Some(1));
    assert_eq!(config.transport_mode, TransportMode::DirectRead);
    let options = QueryOptions::none().with_faults(Faults::new(FaultPlan::lossy(1)));
    let control = QueryControl::new(&options, Instant::now());
    let cache = StwigCache::new(&cloud, CacheConfig::default());
    let engine = QueryEngine::new(
        &cloud,
        EngineConfig::default()
            .with_workers(Some(1))
            .with_cache(None)
            .with_match_config(config.clone()),
    );
    let refused = Some(StwigError::FaultsNeedMessages);
    for q in &queries {
        for cache in [None, Some(&cache)] {
            let out = stwig::match_query(
                &cloud,
                q,
                &config,
                stwig::Run {
                    cache,
                    options: options.clone(),
                    ..stwig::Run::default()
                },
            );
            assert_eq!(out.err(), refused);
        }
        let mut sink = CollectSink::new();
        let streamed = stwig::match_query(
            &cloud,
            q,
            &config,
            stwig::Run {
                options: options.clone(),
                sink: Some(&mut sink),
                ..stwig::Run::default()
            },
        );
        assert_eq!(streamed.err(), refused);
        assert_eq!(sink.num_rows(), 0);
        let request = QueryRequest::new(q.clone()).with_options(options.clone());
        let handle = engine.submit(request).expect_accepted();
        engine.drain();
        assert_eq!(handle.wait().err(), refused);
        let plan = plan_query(&cloud, q).unwrap();
        let mut metrics = QueryMetrics::default();
        let mut machines = vec![MachineMetrics::default(); cloud.num_machines()];
        let tables = produce_stwig_tables(
            &cloud,
            q,
            &plan,
            &config,
            None,
            Some(&control),
            &mut metrics,
            &mut machines,
        );
        assert_eq!(tables.err(), refused);
        // Nothing was explored: no cell loaded, nothing read in place.
        assert_eq!(metrics.explore.cells_loaded, 0);
        assert_eq!(metrics.direct_remote_reads, 0);
    }
    // Nothing cached.
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.plan_misses), (0, 0, 0));
}

/// A `Messages` config for the crash tests.
fn messages() -> MatchConfig {
    MatchConfig::paper_default()
        .with_num_threads(Some(1))
        .with_transport_mode(TransportMode::Messages)
}

/// Options arming a lossy plan with `machine` crashed from the start.
fn crash(machine: u16, on_loss: FailurePolicy) -> QueryOptions {
    QueryOptions::none().with_faults(Faults {
        on_loss,
        ..Faults::new(FaultPlan::lossy(5).with_crash(machine, 0))
    })
}

/// With `FailurePolicy::Fail`, a permanently crashed machine surfaces as a
/// typed `MachineUnavailable` error once the retry budget is spent.
#[test]
fn crashed_machine_fails_typed_under_fail_policy() {
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&cloud);
    let (config, options) = (messages(), crash(1, FailurePolicy::Fail));
    let mut failures = 0usize;
    for q in &queries {
        match stwig::match_query(
            &cloud,
            q,
            &config,
            stwig::Run {
                options: options.clone(),
                ..stwig::Run::default()
            },
        ) {
            Err(StwigError::MachineUnavailable {
                machine, attempts, ..
            }) => {
                assert_eq!(machine, 1, "only machine 1 is down");
                assert!(attempts >= 1);
                failures += 1;
            }
            Err(other) => panic!("expected MachineUnavailable, got {other:?}"),
            // A query that never needs the dead partition may still finish.
            Ok(out) => assert_eq!(out.metrics.outcome, QueryOutcome::Complete),
        }
    }
    assert!(
        failures > 0,
        "no query touched the crashed machine; the workload is too small"
    );
}

/// With `FailurePolicy::Degrade`, the same crash yields flagged partial
/// results: every delivered row is a genuine embedding, the row set is a
/// subset of the fault-free answer, and the loss is visible in the metrics.
#[test]
fn crashed_machine_degrades_to_valid_partial_results() {
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&cloud);
    let (config, options) = (messages(), crash(1, FailurePolicy::Degrade));
    let mut partials = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let full = stwig::match_query(&cloud, q, &config, stwig::Run::default()).unwrap();
        let out = stwig::match_query(
            &cloud,
            q,
            &config,
            stwig::Run {
                options: options.clone(),
                ..stwig::Run::default()
            },
        )
        .unwrap_or_else(|e| panic!("Degrade must not error (query {i}): {e:?}"));
        // Soundness: every delivered row verifies against the data graph.
        verify_all(&cloud, q, &out.table)
            .unwrap_or_else(|r| panic!("degraded run produced invalid row {r} (query {i})"));
        // Subset: degradation only loses rows, never invents them.
        let full_rows: HashSet<_> = canonical_rows(q, &full.table).into_iter().collect();
        for row in canonical_rows(q, &out.table) {
            assert!(
                full_rows.contains(&row),
                "degraded run invented a row the fault-free run lacks (query {i})"
            );
        }
        if out.metrics.outcome == QueryOutcome::Partial {
            partials += 1;
            assert!(
                out.metrics.fault.machines_lost.contains(&1),
                "a Partial outcome must name the lost machine"
            );
            assert!(out.metrics.fault.coverage(cloud.num_machines()) < 1.0);
        } else {
            assert_eq!(out.metrics.outcome, QueryOutcome::Complete);
            assert_eq!(out.table, full.table, "an undegraded query must be exact");
        }
    }
    assert!(
        partials > 0,
        "no query was degraded; the crash never bit and the test is vacuous"
    );
}

/// A crash is for good within the query that armed it: the exchanges a
/// machine serves count across the query's phases and slab rounds, so a
/// machine that dies in one phase or round is still dead in the next, and
/// a one-way round (binding broadcast, join shipping) notices the death at
/// its barrier even though no exchange follows to fail.
///
/// One `a` hub on machine 0 fans out to 300 `b`s and 300 `c`s spread over
/// four machines, and only the last `(b, c)` pair closes a triangle, so a
/// first-1 triangle query (two STwigs) explores slab after slab before it
/// finds it. `serves` is read off the query's own runs: the exchanges
/// machine 1 serves in one whole exploration, one less than the smallest
/// crash point an `All` run (one exploration round) outlives.
/// * Crashing after `serves` exchanges kills machine 1 right after the
///   exploration's last exchange; only the join's one-way shipping follows.
/// * Crashing after `serves + 1` is out of reach of any single round (a
///   capped round explores no more than the whole), but the first-1 query's
///   rounds together reach it, inside the exploration of a later round.
///
/// Either way `Fail` must fail with `MachineUnavailable(1)`, and `Degrade`
/// must lose machine 1 and return a verified subset, never a silently
/// smaller "complete" answer.
#[test]
fn a_crash_outlasts_the_phase_and_round_it_fired_in() {
    let mut gb = GraphBuilder::default();
    gb.add_vertex(VertexId(0), "a");
    for i in 0..300u64 {
        gb.add_vertex(VertexId(100 + i), "b");
        gb.add_vertex(VertexId(1000 + i), "c");
        gb.add_edge(VertexId(0), VertexId(100 + i));
        gb.add_edge(VertexId(0), VertexId(1000 + i));
    }
    gb.add_edge(VertexId(399), VertexId(1299));
    let cloud = gb.build(4, CostModel::default());
    let q = stwig::parse_pattern(&cloud, "(a:a)-(b:b), (b)-(c:c), (c)-(a)").unwrap();
    let whole = MatchConfig::exhaustive()
        .with_num_threads(Some(1))
        .with_transport_mode(TransportMode::Messages);
    let first = whole.clone().with_result_mode(ResultMode::FirstK(1));
    // A machine recorded lost delivers nothing: no row is its join's (whose
    // rows all have their head-STwig root on it), and it reports no match.
    let lost_machine_delivers_nothing = |cloud: &MemoryCloud, q: &QueryGraph, out: &MatchOutput| {
        assert_eq!(
            out.metrics.machines[1].matches_found, 0,
            "machine 1's matches"
        );
        let plan = stwig::plan_query(cloud, q).unwrap();
        let head_root = plan.stwigs[plan.head.head_index].root;
        let col = out
            .table
            .columns()
            .iter()
            .position(|&c| c == head_root)
            .unwrap();
        for row in out.table.rows() {
            assert_ne!(
                cloud.machine_of(row[col]),
                MachineId(1),
                "a row of machine 1"
            );
        }
    };
    let run = |config: &MatchConfig, after_ops: u64, on_loss| {
        let options = QueryOptions::none().with_faults(Faults {
            on_loss,
            ..Faults::new(FaultPlan::default().with_crash(1, after_ops))
        });
        let run = stwig::Run {
            options,
            ..stwig::Run::default()
        };
        stwig::match_query(&cloud, &q, config, run)
    };
    let full = stwig::match_query(&cloud, &q, &first, stwig::Run::default()).unwrap();
    assert_eq!(full.num_matches(), 1);
    assert!(full.metrics.num_stwigs >= 2, "a multi-STwig query");
    assert!(
        full.metrics.explore_rounds >= 3,
        "the first slabs must undershoot ({} rounds)",
        full.metrics.explore_rounds
    );
    let once = stwig::match_query(&cloud, &q, &whole, stwig::Run::default()).unwrap();
    assert_eq!((once.num_matches(), once.metrics.explore_rounds), (1, 1));

    let outlives = |n| run(&whole, n, FailurePolicy::Fail).is_ok();
    assert!(!outlives(0), "machine 1 serves the exploration");
    let (mut dies, mut lives) = (0u64, 1u64);
    while !outlives(lives) {
        (dies, lives) = (lives, lives * 2);
    }
    while lives - dies > 1 {
        let mid = (dies + lives) / 2;
        if outlives(mid) {
            lives = mid;
        } else {
            dies = mid;
        }
    }
    let serves = lives - 1;

    let full_rows: HashSet<_> = canonical_rows(&q, &full.table).into_iter().collect();
    for (config, n, when) in [
        (&whole, serves, "after the exploration"),
        (&first, serves + 1, "in a later round"),
    ] {
        match run(config, n, FailurePolicy::Fail) {
            Err(StwigError::MachineUnavailable { machine, .. }) => assert_eq!(machine, 1),
            other => panic!("machine 1 crashed {when} (n = {n}): {other:?}"),
        }
        let degraded = run(config, n, FailurePolicy::Degrade).expect("Degrade does not fail");
        assert_eq!(degraded.metrics.outcome, QueryOutcome::Partial, "{when}");
        assert_eq!(degraded.metrics.fault.machines_lost, [1], "{when}");
        assert!(degraded.metrics.fault.coverage(cloud.num_machines()) < 1.0);
        verify_all(&cloud, &q, &degraded.table).expect("every degraded row is an embedding");
        lost_machine_delivers_nothing(&cloud, &q, &degraded);
        for row in canonical_rows(&q, &degraded.table) {
            assert!(full_rows.contains(&row), "a row the fault-free run lacks");
        }
    }

    // Every crash point of machine 1 on the chaos workload, up to the first
    // the query outlives: an answer the query returns as complete is the
    // whole answer, and a partial one names the loss and is a verified
    // subset, whichever phase the crash fell before.
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    for (i, q) in workload(&cloud).iter().enumerate() {
        let full = stwig::match_query(&cloud, q, &whole, stwig::Run::default()).unwrap();
        let full_rows: HashSet<_> = canonical_rows(q, &full.table).into_iter().collect();
        let run = |n: u64, on_loss| {
            let options = QueryOptions::none().with_faults(Faults {
                on_loss,
                ..Faults::new(FaultPlan::default().with_crash(1, n))
            });
            let run = stwig::Run {
                options,
                ..stwig::Run::default()
            };
            stwig::match_query(&cloud, q, &whole, run)
        };
        for n in 0.. {
            let failed = match run(n, FailurePolicy::Fail) {
                Err(StwigError::MachineUnavailable { machine, .. }) => machine == 1,
                Ok(out) => {
                    assert_eq!(out.table, full.table, "query {i}, n = {n}: complete");
                    false
                }
                Err(other) => panic!("query {i}, n = {n}: {other:?}"),
            };
            assert!(
                n < 64,
                "query {i}: machine 1 serves fewer than 64 exchanges"
            );
            let out = run(n, FailurePolicy::Degrade).expect("Degrade does not fail");
            if failed {
                assert_eq!(
                    out.metrics.outcome,
                    QueryOutcome::Partial,
                    "query {i}, n = {n}"
                );
                assert_eq!(out.metrics.fault.machines_lost, [1]);
                verify_all(&cloud, q, &out.table).expect("every degraded row is an embedding");
                lost_machine_delivers_nothing(&cloud, q, &out);
                for row in canonical_rows(q, &out.table) {
                    assert!(
                        full_rows.contains(&row),
                        "query {i}, n = {n}: an invented row"
                    );
                }
            } else {
                assert_eq!(out.metrics.outcome, QueryOutcome::Complete);
                assert_eq!(out.table, full.table, "query {i}, n = {n}");
                break;
            }
        }
    }
}

/// A crash armed on one request stays with that request: after several
/// requests fail on a crashed machine, a fault-free request of the same
/// query runs to completion and returns the fault-free answer, through
/// `submit` and through `run_batch`. The engine keeps no fault state that
/// could shed it.
#[test]
fn another_requests_crash_never_sheds_a_fault_free_request() {
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&cloud);
    let config = messages();
    let expected = stwig::match_query(&cloud, &queries[0], &config, stwig::Run::default()).unwrap();
    assert!(
        expected.table.num_rows() > 0,
        "the test needs a non-empty answer"
    );
    let engine = QueryEngine::new(
        &cloud,
        EngineConfig::default()
            .with_workers(Some(1))
            .with_cache(None)
            .with_match_config(config),
    );
    let crashed = crash(1, FailurePolicy::Fail);
    let mut crash_failures = 0;
    for _ in 0..4 {
        let request = QueryRequest::new(queries[0].clone()).with_options(crashed.clone());
        let handle = engine.submit(request).expect_accepted();
        engine.drain();
        if let Err(StwigError::MachineUnavailable { machine: 1, .. }) = handle.wait() {
            crash_failures += 1;
        }
    }

    let handle = engine
        .submit(QueryRequest::new(queries[0].clone()))
        .expect_accepted();
    engine.drain();
    let response = handle.wait().expect("a fault-free request succeeds");
    assert_eq!(response.metrics.outcome, QueryOutcome::Complete);
    assert_eq!(response.table.as_ref(), Some(&expected.table));

    let one = run_batch(&engine, std::slice::from_ref(&queries[0]))
        .remove(0)
        .expect("the fault-free request succeeds");
    assert_eq!(one.metrics.outcome, QueryOutcome::Complete);
    assert_eq!(one.table, expected.table);
    assert_eq!(engine.metrics_snapshot().scheduler.shed(), 0);
    assert_eq!(crash_failures, 4, "every crash-armed request fails typed");
}

/// Every admitted request lands in exactly one tenant counter, failures
/// included: a tenant mixing clean, crash-armed (`Fail` and `Degrade`) and
/// cancelled queries, and the updates tenant mixing valid and invalid
/// batches, each balance `accepted` once the queue drains.
#[test]
fn tenant_counters_account_for_every_admitted_request() {
    let base = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&base);
    let epochs = GraphEpochs::new(base);
    let engine = QueryEngine::for_epochs(
        &epochs,
        EngineConfig::default()
            .with_workers(Some(1))
            .with_cache(None)
            .with_match_config(messages()),
    );
    let unknown = VertexId(1_000_000);
    let mut handles = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let options = match i % 4 {
            0 => QueryOptions::none(),
            1 => crash(1, FailurePolicy::Fail),
            2 => crash(1, FailurePolicy::Degrade),
            _ => {
                let token = CancelToken::new();
                token.cancel();
                QueryOptions::none().with_cancel(token)
            }
        };
        let request = QueryRequest::new(q.clone())
            .with_tenant("mixed")
            .with_options(options);
        handles.push(engine.submit(request).expect_accepted());
    }
    let updates = [
        UpdateBatch::new().remove_vertex(unknown),
        UpdateBatch::new().add_vertex(unknown, "x"),
        UpdateBatch::new().add_edge(unknown, VertexId(1_000_001)),
    ];
    for batch in updates {
        handles.push(engine.apply_updates(batch).expect_accepted());
    }
    engine.drain();
    let failed = handles
        .into_iter()
        .map(|handle| handle.wait())
        .filter(Result::is_err)
        .count() as u64;

    let tenants = engine.metrics_snapshot().tenants;
    assert_eq!(tenants.len(), 2);
    for t in &tenants {
        assert!(t.failed > 0, "{}: the mix must include failures", t.tenant);
        assert_eq!(
            t.accepted,
            t.completed + t.cancelled + t.deadline_exceeded + t.shed + t.failed + t.queued,
            "{t:?}"
        );
    }
    assert_eq!(tenants.iter().map(|t| t.failed).sum::<u64>(), failed);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// The fault plan is a pure function of the seed: replaying the same
    /// operation sequence through two transports configured with the same
    /// plan injects the identical fault log.
    #[test]
    fn same_seed_injects_the_same_fault_log(seed in 0u64..10_000) {
        let graph = {
            let g = gnm(40, 90, 0xFA11);
            let labels = LabelModel::Uniform { num_labels: 3 }.assign(40, 0xFA12);
            g.with_labels(labels, 3)
        };
        let cloud = graph.build_cloud(3, CostModel::default());
        let run = |plan: FaultPlan| {
            let tp = FaultyTransport::new(ChannelTransport::new(&cloud), plan);
            for step in 0..12u64 {
                let src = MachineId((step % 3) as u16);
                let dst = MachineId(((step + 1) % 3) as u16);
                let _ = tp.exchange(
                    src,
                    dst,
                    Message::LoadRequest { ids: vec![VertexId(step)], with_neighbors: false },
                );
                tp.post(src, dst, Message::LoadRequest {
                    ids: vec![VertexId(step + 100)],
                    with_neighbors: true,
                });
                if step % 4 == 3 {
                    let _ = tp.drain(dst);
                }
            }
            tp.fault_log()
        };
        let first = run(FaultPlan::lossy(seed));
        let second = run(FaultPlan::lossy(seed));
        prop_assert_eq!(first, second, "fault injection must be seed-deterministic");
    }

    /// Duplicate suppression is insensitive to how drains interleave with
    /// posts: however the mailbox is emptied, each `(src, seq)` pair is
    /// delivered exactly once.
    #[test]
    fn duplicate_suppression_is_drain_order_insensitive(
        posts in proptest::collection::vec((0u16..3, 0u64..16), 1..48),
        drain_after in proptest::collection::vec(0u8..2, 48),
    ) {
        let graph = {
            let g = gnm(12, 20, 0xD0D0);
            let labels = LabelModel::Uniform { num_labels: 2 }.assign(12, 0xD0D1);
            g.with_labels(labels, 2)
        };
        let cloud = graph.build_cloud(4, CostModel::default());
        let tp = ChannelTransport::new(&cloud);
        let dst = MachineId(3);
        let mut delivered: Vec<(u16, u64)> = Vec::new();
        for (i, &(src, seq)) in posts.iter().enumerate() {
            tp.post_envelope(dst, Envelope {
                src: MachineId(src),
                seq,
                msg: Message::LoadRequest { ids: vec![VertexId(seq)], with_neighbors: false },
            });
            if drain_after[i] == 1 {
                delivered.extend(tp.drain(dst).iter().map(|e| (e.src.0, e.seq)));
            }
        }
        delivered.extend(tp.drain(dst).iter().map(|e| (e.src.0, e.seq)));
        let unique_posted: HashSet<(u16, u64)> = posts.iter().copied().collect();
        let delivered_set: HashSet<(u16, u64)> = delivered.iter().copied().collect();
        prop_assert_eq!(
            delivered.len(),
            delivered_set.len(),
            "a duplicate sequence number was delivered twice"
        );
        prop_assert_eq!(delivered_set, unique_posted);
        prop_assert_eq!(
            tp.duplicates_suppressed(),
            (posts.len() - delivered.len()) as u64
        );
    }
}
