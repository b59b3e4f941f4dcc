//! Property tests (vendored proptest) for the multi-query engine and its
//! STwig-result cache: on randomly generated graphs and query batches,
//! interleaved concurrent cached execution must give the uncached serial
//! executor's answers — and, pass after pass, the very same tables — and a
//! byte budget small enough to evict on every insert must never corrupt a
//! table a concurrent query is reading — under both transports. Beside them,
//! a fixed batch pins that each query's traffic record is its own, however
//! many workers run beside it.

mod common;

use common::run_batch;
use proptest::prelude::*;
use stwig_match::prelude::*;

/// A randomly generated small labeled graph described by value.
#[derive(Debug, Clone)]
struct RandomGraph {
    num_vertices: u64,
    labels: Vec<u32>,
    edges: Vec<(u64, u64)>,
    num_labels: usize,
}

fn random_graph(max_vertices: u64, max_labels: u32) -> impl Strategy<Value = RandomGraph> {
    (8..=max_vertices, 2..=max_labels).prop_flat_map(move |(n, l)| {
        let labels = proptest::collection::vec(0..l, n as usize);
        let edges = proptest::collection::vec((0..n, 0..n), 8..(n as usize * 3));
        (labels, edges).prop_map(move |(labels, edges)| RandomGraph {
            num_vertices: n,
            labels,
            edges,
            num_labels: l as usize,
        })
    })
}

const MODES: [TransportMode; 2] = [TransportMode::DirectRead, TransportMode::Messages];

fn build_cloud(g: &RandomGraph, machines: usize) -> MemoryCloud {
    SyntheticGraph::unlabeled(g.num_vertices, g.edges.clone())
        .with_labels(g.labels.clone(), g.num_labels)
        .build_cloud(machines, CostModel::default())
}

/// An interleaved batch with duplicates: DFS queries (≥ 1 match each) and
/// random queries, each repeated so concurrent workers race on the same
/// cache entries.
fn batch(cloud: &MemoryCloud, seed: u64) -> Vec<QueryGraph> {
    let mut distinct = query_batch(cloud, 3, 4, None, seed);
    distinct.extend(query_batch(cloud, 2, 4, Some(5), seed ^ 0xF00));
    let mut out = Vec::new();
    for round in 0..3 {
        for (i, q) in distinct.iter().enumerate() {
            // Vary the interleaving across rounds.
            if (round + i) % 2 == 0 {
                out.push(q.clone());
            } else {
                out.insert(out.len() / 2, q.clone());
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Interleaved concurrent cached queries return the uncached serial
    /// executor's answer — the same rows and `matches_found`; `k` distinct
    /// valid embeddings where the limit cuts (the cache serves complete
    /// STwig tables, so the witnesses are its join's choice) — for
    /// exhaustive and truncating configs alike, and a second batch, all
    /// hits, repeats the first's tables bit for bit whatever the
    /// interleaving was.
    #[test]
    fn concurrent_cached_batches_equal_uncached_serial(
        g in random_graph(200, 6),
        machines in 1usize..=4,
        seed in 0u64..1_000,
    ) {
        let cloud = build_cloud(&g, machines);
        prop_assume!(cloud.num_edges() > 0);
        let queries = batch(&cloud, seed);
        prop_assume!(!queries.is_empty());
        let configs = MODES.into_iter().flat_map(|mode| {
            [MatchConfig::exhaustive(), MatchConfig::paper_default()]
                .map(|base| base.with_num_threads(Some(1)).with_transport_mode(mode))
        });
        for config in configs {
            let expected: Vec<_> = queries
                .iter()
                .map(|q| stwig::match_query(&cloud, q, &config, stwig::Run::default()).unwrap())
                .collect();
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_workers(Some(4))
                    .with_match_config(config.clone()),
            );
            let outputs = run_batch(&engine, &queries);
            for (i, (out, want)) in outputs.iter().zip(&expected).enumerate() {
                let out = out.as_ref().expect("query succeeds");
                let same = same_answer(&cloud, &queries[i], &out.table, &want.table, config.result_limit());
                prop_assert!(same.is_ok(), "query {} diverged ({:?}): {:?}", i, config.transport_mode, same);
                prop_assert_eq!(out.metrics.matches_found, want.metrics.matches_found);
            }
            let again = run_batch(&engine, &queries);
            for (i, (out, first)) in again.iter().zip(&outputs).enumerate() {
                let (out, first) = (out.as_ref().unwrap(), first.as_ref().unwrap());
                prop_assert_eq!(&out.table, &first.table, "query {}: hit != populate", i);
            }
        }
    }

    /// A budget so small that almost every insert evicts: answers stay those
    /// of the uncached executor and every handed-out table stays readable
    /// (evictions drop the cache's reference, never the reader's).
    #[test]
    fn evictions_never_corrupt_concurrently_read_tables(
        g in random_graph(150, 5),
        machines in 1usize..=3,
        seed in 0u64..1_000,
    ) {
        let cloud = build_cloud(&g, machines);
        prop_assume!(cloud.num_edges() > 0);
        let queries = batch(&cloud, seed);
        prop_assume!(!queries.is_empty());
        for mode in MODES {
            let config = MatchConfig::exhaustive()
                .with_num_threads(Some(1))
                .with_transport_mode(mode);
            let expected: Vec<_> = queries
                .iter()
                .map(|q| stwig::match_query(&cloud, q, &config, stwig::Run::default()).unwrap())
                .collect();
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_workers(Some(4))
                    .with_cache(Some(CacheConfig::default().with_budget_bytes(2_048)))
                    .with_match_config(config),
            );
            // Two passes so later lookups race against earlier entries being
            // evicted by concurrent inserts.
            for _ in 0..2 {
                let outputs = run_batch(&engine, &queries);
                for (i, (out, want)) in outputs.iter().zip(&expected).enumerate() {
                    let out = out.as_ref().expect("query succeeds");
                    let same = same_answer(&cloud, &queries[i], &out.table, &want.table, None);
                    prop_assert!(same.is_ok(), "query {} diverged ({:?}): {:?}", i, mode, same);
                }
            }
            let stats = engine.cache_stats().expect("cache enabled");
            // The accounting must balance: every lookup is a hit, miss or
            // bypass.
            prop_assert_eq!(
                stats.hits + stats.misses + stats.bypasses > 0,
                true,
                "cache was never consulted"
            );
            prop_assert!(
                stats.bytes_resident <= 2_048,
                "resident bytes {} exceed the budget",
                stats.bytes_resident
            );
        }
    }
}

/// Every query charges a ledger of its own and adds it to the cloud's
/// aggregate when it retires: on 4 workers, each query's traffic record —
/// totals and per-phase split — is the one the serial run gives it, and the
/// aggregate after the batch is the sum of the records. Eight distinct cold
/// queries (cache off) eight times each, under both transports and a lossy
/// fault plan.
#[test]
fn per_query_traffic_is_exact_whatever_runs_beside_it() {
    let cloud =
        synthetic_experiment_graph(1_500, 6.0, 5e-2, 0xBEEF).build_cloud(4, CostModel::default());
    let distinct = query_batch(&cloud, 8, 5, None, 0x7EDC);
    assert_eq!(distinct.len(), 8, "workload generation degenerated");
    let queries: Vec<QueryGraph> = (0..8).flat_map(|_| distinct.clone()).collect();
    let configs = [
        (TransportMode::DirectRead, None),
        (TransportMode::Messages, None),
        (TransportMode::Messages, Some(FaultPlan::lossy(7))),
    ];
    for (mode, faults) in configs {
        let config = MatchConfig::default()
            .with_num_threads(Some(1))
            .with_transport_mode(mode);
        let ctx = format!("mode = {mode:?}, faults = {}", faults.is_some());
        let options = match &faults {
            Some(plan) => QueryOptions::none().with_faults(Faults::new(plan.clone())),
            None => QueryOptions::none(),
        };
        let records = |workers| {
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_workers(Some(workers))
                    .with_cache(None)
                    .with_match_config(config.clone()),
            );
            cloud.network().reset();
            // `run_batch` with the request's options: submit all, drain on
            // `workers` threads, wait for each.
            let handles: Vec<QueryHandle> = (queries.iter())
                .map(|q| QueryRequest::new(q.clone()).with_options(options.clone()))
                .map(|request| engine.submit(request).expect_accepted())
                .collect();
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(|| engine.drain());
                }
                engine.drain();
            });
            let records: Vec<(u64, u64, PhaseTraffic)> = (handles.into_iter())
                .map(|handle| {
                    let m = handle.wait().expect("query succeeds").metrics;
                    (m.network_messages, m.network_bytes, m.phase_traffic)
                })
                .collect();
            let sum: u64 = records.iter().map(|r| r.0).sum();
            let ctx = format!("{ctx}, workers = {workers}");
            assert_eq!(cloud.traffic().total_messages(), sum, "{ctx}");
            if mode == TransportMode::Messages {
                assert_eq!(cloud.direct_remote_reads(), 0, "{ctx}");
            }
            records
        };
        let serial = records(1);
        assert!(
            serial.iter().any(|r| r.0 > 0),
            "no query crossed machines ({ctx})"
        );
        assert_eq!(records(4), serial, "{ctx}");
    }
}
