//! Chaos differential suite: under any *eventually delivering* fault plan
//! (drops, duplicates, delays, reorders, corrupted payloads, transient
//! unavailability and timeouts), the retrying Messages-mode executor must
//! return tables **bit-identical** to the fault-free run — across machine
//! counts, transport modes, truncating and exhaustive configs, and table and
//! sink outputs; behind a cache, the same *answer* as the fault-free run and
//! bit-identical tables from one cached pass to the next; and on a dynamic
//! engine, VF2's answer after every apply and seal. Under a *permanent* machine
//! crash, `FailurePolicy::Fail` queries fail with a typed
//! `MachineUnavailable` error, `FailurePolicy::Degrade` queries return a
//! valid, flagged subset, and the serving layer's circuit breaker sheds
//! follow-on queries in well under a millisecond with zero transport work.

use proptest::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use stwig::serve::BreakerState;
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

/// Any eventually delivering plan must leave results bit-identical to the
/// fault-free run: duplicates are suppressed by sequence number, reordered
/// deliveries are canonicalized at the drain, and transient errors are
/// absorbed by the retry policy.
#[test]
fn lossy_plans_are_bit_identical_to_fault_free_runs() {
    let graph = chaos_graph();
    let mut fault_activity = 0u64;
    for machines in MACHINES {
        let cloud = graph.clone().build_cloud(machines, CostModel::default());
        let queries = workload(&cloud);
        let configs = [
            ("paper", MatchConfig::paper_default()),
            ("exhaustive", MatchConfig::exhaustive()),
        ]
        .into_iter()
        .flat_map(|(name, base)| {
            [TransportMode::DirectRead, TransportMode::Messages].map(|mode| {
                let config = base.clone().with_num_threads(Some(1));
                (name, mode, config.with_transport_mode(mode))
            })
        });
        for (name, mode, clean_config) in configs {
            let expected: Vec<_> = queries
                .iter()
                .map(|q| stwig::match_query_distributed(&cloud, q, &clean_config).unwrap())
                .collect();
            for seed in SEEDS {
                let plan = FaultPlan::lossy(seed);
                assert!(plan.eventually_delivers(), "lossy plans must not crash");
                let chaos_config = clean_config.clone().with_fault_plan(Some(plan));
                for cache_on in [false, true] {
                    let cache = cache_on.then(|| StwigCache::new(&cloud, CacheConfig::default()));
                    let passes = if cache_on { 2 } else { 1 };
                    let mut populated = Vec::new();
                    for pass in 0..passes {
                        for (i, (q, want)) in queries.iter().zip(&expected).enumerate() {
                            let out = stwig::match_query_distributed_with_cache(
                                &cloud,
                                q,
                                &chaos_config,
                                cache.as_ref(),
                            )
                            .unwrap();
                            let ctx = format!(
                                "machines = {machines}, config = {name}, mode = {mode:?}, \
                                 seed = {seed}, cache = {cache_on}, pass = {pass}, query = {i}"
                            );
                            if !cache_on {
                                assert_eq!(out.table, want.table, "chaos run diverged: {ctx}");
                                // The sink output gets the very same rows.
                                let mut sink = CollectSink::new();
                                let options = QueryOptions::default();
                                stwig::match_query_streaming(
                                    &cloud,
                                    q,
                                    &chaos_config,
                                    &options,
                                    &mut sink,
                                )
                                .unwrap();
                                assert_eq!(
                                    sink.into_table().as_ref(),
                                    Some(&want.table),
                                    "streamed chaos run diverged: {ctx}"
                                );
                            } else {
                                // A cache serves complete STwig tables, so
                                // which 1024 witnesses a cut answer holds is
                                // not the cache-free run's choice — but the
                                // populating pass and the hitting pass must
                                // make the same one, faults or not.
                                let limit = chaos_config.result_limit();
                                same_answer(&cloud, q, &out.table, &want.table, limit)
                                    .unwrap_or_else(|e| panic!("chaos run diverged: {e} ({ctx})"));
                                if pass == 0 {
                                    populated.push(out.table.clone());
                                } else {
                                    assert_eq!(out.table, populated[i], "hit != populate: {ctx}");
                                }
                            }
                            assert_eq!(
                                out.metrics.outcome,
                                QueryOutcome::Complete,
                                "an eventually delivering plan must not degrade results"
                            );
                            fault_activity += faults_seen(&out.metrics);
                        }
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
            .with_transport_mode(TransportMode::Messages)
            .with_fault_plan(Some(FaultPlan::lossy(seed)));
        let engine = QueryEngine::for_epochs(
            &epochs,
            EngineConfig::default()
                .with_workers(Some(1))
                .with_match_config(config),
        );
        let mut check = |mirror: &GraphMirror, ctx: String| {
            let reference = mirror.build_cloud(1, CostModel::default());
            for q in query_batch(&epochs.pin(), 4, 4, None, seed) {
                let out = engine.run_one(&q).expect("chaos query succeeds");
                assert_eq!(
                    canonical_rows(&q, &out.table),
                    canonical_rows(&q, &vf2(&reference, &q, None)),
                    "dynamic chaos run diverged from VF2: {ctx}"
                );
                assert_eq!(out.metrics.outcome, QueryOutcome::Complete, "{ctx}");
                fault_activity += faults_seen(&out.metrics);
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
    }
    assert!(
        fault_activity > 0,
        "the lossy plans never actually injected a fault the metrics saw"
    );
}

fn crash_config(machine: u16, policy: FailurePolicy) -> MatchConfig {
    MatchConfig::paper_default()
        .with_num_threads(Some(1))
        .with_transport_mode(TransportMode::Messages)
        .with_failure_policy(policy)
        .with_fault_plan(Some(FaultPlan::lossy(5).with_crash(machine, 0)))
}

/// With `FailurePolicy::Fail`, a permanently crashed machine surfaces as a
/// typed `MachineUnavailable` error once the retry budget is spent.
#[test]
fn crashed_machine_fails_typed_under_fail_policy() {
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&cloud);
    let config = crash_config(1, FailurePolicy::Fail);
    let mut failures = 0usize;
    for q in &queries {
        match stwig::match_query_distributed(&cloud, q, &config) {
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
    let clean_config = MatchConfig::paper_default()
        .with_num_threads(Some(1))
        .with_transport_mode(TransportMode::Messages);
    let config = crash_config(1, FailurePolicy::Degrade);
    let mut partials = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let full = stwig::match_query_distributed(&cloud, q, &clean_config).unwrap();
        let out = stwig::match_query_distributed(&cloud, q, &config)
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

/// Once the breaker opens, the engine sheds queued queries in O(1): no
/// exploration, no transport envelope, and well under a millisecond.
#[test]
fn open_breaker_sheds_in_under_a_millisecond_with_zero_transport_work() {
    let cloud = chaos_graph().build_cloud(4, CostModel::default());
    let queries = workload(&cloud);
    let engine = QueryEngine::new(
        &cloud,
        EngineConfig::default()
            .with_workers(Some(1))
            .with_cache(None)
            .with_match_config(crash_config(1, FailurePolicy::Fail)),
    );
    // Burn queries against the dead machine until its breaker opens
    // (3 consecutive failures by default).
    let mut fed = 0usize;
    while engine.breaker_state(1) != BreakerState::Open {
        fed += 1;
        assert!(
            fed <= 32,
            "breaker never opened after {fed} failing queries"
        );
        let handle = engine
            .submit(QueryRequest::new(queries[fed % queries.len()].clone()))
            .expect_accepted();
        engine.drain();
        let _ = handle.wait();
    }
    // Now a queued query is shed at dispatch: zero transport work, <1ms.
    cloud.reset_traffic();
    let direct_before = cloud.direct_remote_reads();
    let handle = engine
        .submit(QueryRequest::new(queries[0].clone()))
        .expect_accepted();
    let started = Instant::now();
    engine.drain();
    let elapsed = started.elapsed();
    let response = handle.wait().unwrap();
    assert_eq!(response.metrics.outcome, QueryOutcome::Shed);
    assert!(response.table.is_none());
    assert_eq!(
        cloud.traffic().total_messages(),
        0,
        "shed must cost no envelope"
    );
    assert_eq!(cloud.direct_remote_reads(), direct_before);
    assert!(
        elapsed < Duration::from_millis(1),
        "breaker shed took {elapsed:?}, expected < 1ms"
    );
    let snapshot = engine.metrics_snapshot();
    assert!(snapshot.scheduler.breaker_opened >= 1);
    assert!(snapshot.scheduler.shed_machine_down >= 1);
    assert_eq!(snapshot.scheduler.shed(), snapshot.engine.queries_shed);
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
