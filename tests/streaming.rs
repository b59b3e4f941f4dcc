//! Integration suite for the streaming first-k serving mode: `FirstK(k)`
//! must deliver exactly k valid embeddings (each verified against the full
//! enumeration), `Exists` must answer zero-match queries, and deadlines /
//! cancellation must stop a query cooperatively with partial delivery —
//! across **both** transport modes (`DirectRead` and `Messages`). Rows that
//! cross a thread boundary do so in batches (`ChannelSink` → `RowStream`):
//! the consumer must see exactly the rows, in exactly the order, a
//! same-thread sink sees, and a consumer that goes away stops its query.

use graph_gen::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stwig::prelude::*;
use trinity_sim::builder::GraphBuilder;
use trinity_sim::ids::VertexId;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

const MACHINES: [usize; 2] = [1, 4];
const MODES: [TransportMode; 2] = [TransportMode::DirectRead, TransportMode::Messages];

fn test_cloud(machines: usize) -> MemoryCloud {
    synthetic_experiment_graph(1_500, 6.0, 5e-2, 0xBEEF).build_cloud(machines, CostModel::default())
}

/// DFS-induced queries (guaranteed ≥ 1 match) plus random queries.
fn workload(cloud: &MemoryCloud) -> Vec<QueryGraph> {
    let mut queries = query_batch(cloud, 3, 5, None, 0xA0);
    queries.extend(query_batch(cloud, 3, 5, Some(7), 0xB0));
    assert!(queries.len() >= 4, "workload generation degenerated");
    queries
}

#[test]
fn first_k_streams_exactly_k_valid_embeddings_in_both_modes() {
    for machines in MACHINES {
        let cloud = test_cloud(machines);
        for (qi, query) in workload(&cloud).iter().enumerate() {
            let full = match_query(&cloud, query, &MatchConfig::default(), Run::default()).unwrap();
            let full_rows: HashSet<Vec<VertexId>> =
                canonical_rows(query, &full.table).into_iter().collect();
            let total = full_rows.len();
            for mode in MODES {
                for k in [1usize, 4, 64] {
                    let ctx =
                        format!("machines = {machines}, query = {qi}, mode = {mode:?}, k = {k}");
                    let config = MatchConfig::default()
                        .with_transport_mode(mode)
                        .with_result_mode(ResultMode::FirstK(k));
                    let mut sink = CollectSink::new();
                    let direct_before = cloud.direct_remote_reads();
                    let metrics = match_query(
                        &cloud,
                        query,
                        &config,
                        Run {
                            sink: Some(&mut sink),
                            ..Run::default()
                        },
                    )
                    .unwrap()
                    .metrics;
                    let table = sink.into_table().unwrap();
                    assert_eq!(metrics.outcome, QueryOutcome::Complete, "{ctx}");
                    assert_eq!(
                        table.num_rows(),
                        k.min(total),
                        "FirstK must deliver exactly min(k, total) rows ({ctx}, total = {total})"
                    );
                    assert_eq!(metrics.rows_streamed, table.num_rows() as u64, "{ctx}");
                    let rows = canonical_rows(query, &table);
                    let distinct: HashSet<_> = rows.iter().cloned().collect();
                    assert_eq!(distinct.len(), rows.len(), "duplicate embedding ({ctx})");
                    for row in &rows {
                        assert!(
                            full_rows.contains(row),
                            "streamed row is not in the full enumeration ({ctx})"
                        );
                    }
                    verify_all(&cloud, query, &table).unwrap();
                    if mode == TransportMode::Messages {
                        assert_eq!(
                            cloud.direct_remote_reads(),
                            direct_before,
                            "streaming must stay partition-local ({ctx})"
                        );
                    }
                }
            }
        }
    }
}

/// A request's result mode is applied in one place, the executor, so
/// `match_query` into a table, `match_query` into a sink and the engine's
/// `submit` all mean the same by `QueryOptions::with_result_mode`.
#[test]
fn a_requests_result_mode_means_the_same_at_every_entry_point() {
    let cloud = test_cloud(4);
    let config = MatchConfig::default();
    let run_all = |query: &QueryGraph| match_query(&cloud, query, &config, Run::default()).unwrap();
    let queries = workload(&cloud);
    let query = (queries.iter())
        .max_by_key(|query| run_all(query).num_matches())
        .unwrap();
    let all = run_all(query);
    assert!(all.num_matches() > 1, "the override must have rows to cut");
    let first = || QueryOptions::none().with_result_mode(ResultMode::FirstK(1));

    let into_table = Run {
        options: first(),
        ..Run::default()
    };
    let table = match_query(&cloud, query, &config, into_table).unwrap();
    assert_eq!(table.num_matches(), 1);

    let mut sink = CollectSink::new();
    let into_sink = Run {
        options: first(),
        sink: Some(&mut sink),
        ..Run::default()
    };
    let streamed = match_query(&cloud, query, &config, into_sink).unwrap();
    assert_eq!(streamed.metrics.rows_streamed, 1);
    assert_eq!(streamed.num_matches(), 0, "a sink leaves the table empty");
    assert_eq!(streamed.table.columns(), all.table.columns());
    assert_eq!(sink.num_rows(), 1);

    let engine = QueryEngine::new(&cloud, EngineConfig::default().with_match_config(config));
    let handle = engine
        .submit(QueryRequest::new(query.clone()).with_options(first()))
        .expect_accepted();
    engine.drain();
    assert_eq!(handle.wait().unwrap().table.unwrap().num_rows(), 1);
}

#[test]
fn exists_mode_handles_zero_match_queries_in_both_modes() {
    for machines in MACHINES {
        let cloud = test_cloud(machines);
        // A 3-clique over the rarest label is (virtually) guaranteed absent;
        // verify against the exhaustive executor rather than assuming.
        let queries = workload(&cloud);
        for mode in MODES {
            for (qi, query) in queries.iter().enumerate() {
                let total = match_query(&cloud, query, &MatchConfig::default(), Run::default())
                    .unwrap()
                    .num_matches();
                let config = MatchConfig::default()
                    .with_transport_mode(mode)
                    .with_result_mode(ResultMode::Exists);
                let mut rows = 0u64;
                let mut sink = |_row: &[VertexId]| rows += 1;
                let metrics = match_query(
                    &cloud,
                    query,
                    &config,
                    Run {
                        sink: Some(&mut sink),
                        ..Run::default()
                    },
                )
                .unwrap()
                .metrics;
                let ctx = format!("machines = {machines}, mode = {mode:?}, query = {qi}");
                assert_eq!(metrics.outcome, QueryOutcome::Complete, "{ctx}");
                assert_eq!(
                    rows > 0,
                    total > 0,
                    "existence answer disagrees with enumeration ({ctx}, total = {total})"
                );
                assert!(rows <= 1, "Exists must stop at the first row ({ctx})");
            }
        }
    }
}

#[test]
fn pre_cancelled_query_stops_before_exploring_in_both_modes() {
    for mode in MODES {
        let cloud = test_cloud(4);
        let query = &workload(&cloud)[0];
        let token = CancelToken::new();
        token.cancel();
        let config = MatchConfig::default().with_transport_mode(mode);
        let mut sink = CollectSink::new();
        let metrics = match_query(
            &cloud,
            query,
            &config,
            Run {
                options: QueryOptions::none().with_cancel(token),
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(metrics.outcome, QueryOutcome::Cancelled, "mode = {mode:?}");
        assert_eq!(metrics.rows_streamed, 0, "mode = {mode:?}");
    }
}

#[test]
fn cancel_mid_stream_delivers_only_valid_pre_cancel_rows() {
    // The sink itself cancels after the first row — exercising the
    // cooperative checks *between* join rounds and machines while the query
    // is mid-flight. Every row delivered before the interrupt must be a
    // genuine embedding.
    for mode in MODES {
        let cloud = test_cloud(4);
        for (qi, query) in workload(&cloud).iter().enumerate() {
            let full = match_query(&cloud, query, &MatchConfig::default(), Run::default()).unwrap();
            if full.num_matches() < 2 {
                continue; // nothing to cancel mid-stream
            }
            let full_rows: HashSet<Vec<VertexId>> =
                canonical_rows(query, &full.table).into_iter().collect();
            let token = CancelToken::new();
            let sink_token = token.clone();
            let mut collected: Vec<Vec<VertexId>> = Vec::new();
            {
                let mut sink = |row: &[VertexId]| {
                    collected.push(row.to_vec());
                    sink_token.cancel();
                };
                let config = MatchConfig::default().with_transport_mode(mode);
                let metrics = match_query(
                    &cloud,
                    query,
                    &config,
                    Run {
                        options: QueryOptions::none().with_cancel(token),
                        sink: Some(&mut sink),
                        ..Run::default()
                    },
                )
                .unwrap()
                .metrics;
                let ctx = format!("mode = {mode:?}, query = {qi}");
                assert_eq!(metrics.outcome, QueryOutcome::Cancelled, "{ctx}");
                assert!(metrics.rows_streamed >= 1, "{ctx}");
                assert!(
                    metrics.rows_streamed < full.num_matches() as u64,
                    "cancellation must cut the stream short ({ctx})"
                );
            }
            let columns: Vec<QVid> = query.vertices().collect();
            let mut table = ResultTable::new(columns);
            for row in &collected {
                table.push_row(row);
            }
            for row in canonical_rows(query, &table) {
                assert!(full_rows.contains(&row), "pre-cancel row must be valid");
            }
        }
    }
}

#[test]
fn deadline_exceeded_query_returns_promptly_with_partial_rows() {
    for mode in MODES {
        // A heavier workload so the deadline realistically lands mid-query:
        // exhaustive enumeration over a denser graph.
        let cloud = synthetic_experiment_graph(6_000, 12.0, 1e-2, 0x5EED)
            .build_cloud(4, CostModel::default());
        let queries = query_batch(&cloud, 4, 5, None, 0xC0);
        let deadline = Duration::from_millis(10);
        for (qi, query) in queries.iter().enumerate() {
            let config = MatchConfig::default().with_transport_mode(mode);
            let mut rows = 0u64;
            let started = Instant::now();
            let mut sink = |_row: &[VertexId]| rows += 1;
            let metrics = match_query(
                &cloud,
                query,
                &config,
                Run {
                    options: QueryOptions::none().with_deadline(deadline),
                    sink: Some(&mut sink),
                    ..Run::default()
                },
            )
            .unwrap()
            .metrics;
            let elapsed = started.elapsed();
            let ctx = format!("mode = {mode:?}, query = {qi}");
            // Generous CI bound; `experiments serving` reports the strict
            // elapsed/deadline ratio as a row, which nothing gates.
            assert!(
                elapsed < deadline * 20 + Duration::from_millis(500),
                "query overran its deadline by too much ({ctx}, elapsed = {elapsed:?})"
            );
            if metrics.outcome == QueryOutcome::DeadlineExceeded {
                // Partial delivery: whatever was streamed stays delivered
                // and is counted.
                assert_eq!(metrics.rows_streamed, rows, "{ctx}");
            } else {
                // Fast queries may legitimately finish inside the deadline.
                assert_eq!(metrics.outcome, QueryOutcome::Complete, "{ctx}");
            }
        }
    }
}

#[test]
fn a_sink_gets_rows_as_machines_join_them_whatever_the_thread_count() {
    // Full enumeration into a sink with threads to spare: the join pass must
    // not stage the machines' answers and hand them over at the end.
    // Few labels, so the one query has matches on every machine.
    let cloud =
        synthetic_experiment_graph(1_500, 6.0, 1e-2, 0xBEEF).build_cloud(4, CostModel::default());
    let query = &query_batch(&cloud, 1, 4, None, 0xA0)[0];
    for mode in MODES {
        let config = MatchConfig::default()
            .with_transport_mode(mode)
            .with_num_threads(Some(4));
        // (a) When the first row arrives, later machines have not yet been
        // shipped their load sets: a consumer that cancels on its first row
        // leaves them unshipped.
        let mut sink = |_row: &[VertexId]| {};
        let live = match_query(
            &cloud,
            query,
            &config,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert!(live.rows_streamed > 1, "{mode:?}");
        let token = CancelToken::new();
        let mut sink = |_row: &[VertexId]| token.cancel();
        let options = QueryOptions::none().with_cancel(token.clone());
        let first = match_query(
            &cloud,
            query,
            &config,
            Run {
                options: options.clone(),
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(first.outcome, QueryOutcome::Cancelled, "{mode:?}");
        let explore = |m: &QueryMetrics| m.phase_traffic.explore_bytes;
        assert_eq!(explore(&first), explore(&live), "{mode:?}");
        assert!(first.network_bytes < live.network_bytes, "{mode:?}");
        // ... and nothing beyond a machine's R_k tables is ever resident.
        let serial = config.clone().with_num_threads(Some(1));
        let mut rows = 0u64;
        let mut sink = |_row: &[VertexId]| rows += 1;
        let one = match_query(
            &cloud,
            query,
            &serial,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(live.peak_table_bytes, one.peak_table_bytes, "{mode:?}");
        // (b) Rows delivered before a deadline stay delivered: the consumer
        // sits on its first row until the deadline has passed.
        let deadline = Duration::from_millis(250);
        let mut rows = 0u64;
        let mut sink = |_row: &[VertexId]| {
            rows += 1;
            std::thread::sleep(if rows == 1 { deadline } else { Duration::ZERO });
        };
        let options = QueryOptions::none().with_deadline(deadline);
        let cut = match_query(
            &cloud,
            query,
            &config,
            Run {
                options: options.clone(),
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(cut.outcome, QueryOutcome::DeadlineExceeded, "{mode:?}");
        assert_eq!(cut.rows_streamed, rows, "{mode:?}");
        assert!((1..live.rows_streamed).contains(&rows), "{mode:?}");
    }
}

#[test]
fn first_k_is_consistent_across_threads_and_cache() {
    // The k delivered rows may legitimately differ between configurations
    // (first-k is not a canonical prefix), but every configuration must
    // deliver exactly k valid rows.
    let cloud = test_cloud(4);
    let query = &workload(&cloud)[0];
    let full = match_query(&cloud, query, &MatchConfig::default(), Run::default()).unwrap();
    let full_rows: HashSet<Vec<VertexId>> =
        canonical_rows(query, &full.table).into_iter().collect();
    let k = 4usize.min(full_rows.len());
    assert!(k > 0, "workload query must have matches");
    for threads in [1usize, 4] {
        for cache_on in [false, true] {
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_cache(cache_on.then(CacheConfig::default))
                    .with_match_config(MatchConfig::default().with_num_threads(Some(threads))),
            );
            // Twice, so the cache-on pass exercises a warm cache.
            for pass in 0..2 {
                let request =
                    QueryRequest::new(query.clone()).with_result_mode(ResultMode::FirstK(k));
                let handle = engine.submit(request).expect_accepted();
                engine.drain();
                let table = handle.wait().unwrap().table.unwrap();
                let ctx = format!("threads = {threads}, cache = {cache_on}, pass = {pass}");
                assert_eq!(table.num_rows(), k, "{ctx}");
                for row in canonical_rows(query, &table) {
                    assert!(full_rows.contains(&row), "{ctx}");
                }
            }
        }
    }
}

/// One `a` hub fanning out to `fan` b's and `fan` c's; the only b–c edge
/// joins the last of each, so the triangle a–b–c has exactly one embedding
/// and it is the last row of the hub's `fan`² -row star.
fn hub_cloud(fan: u64) -> MemoryCloud {
    let mut gb = GraphBuilder::new_undirected();
    gb.add_vertex(VertexId(0), "a");
    for i in 0..fan {
        gb.add_vertex(VertexId(1_000 + i), "b");
        gb.add_vertex(VertexId(10_000 + i), "c");
        gb.add_edge(VertexId(0), VertexId(1_000 + i));
        gb.add_edge(VertexId(0), VertexId(10_000 + i));
    }
    gb.add_edge(VertexId(1_000 + fan - 1), VertexId(10_000 + fan - 1));
    gb.build(2, CostModel::default())
}

/// A query over `labels` (one vertex each, in that order) with `edges`
/// between their positions.
fn labelled_query(cloud: &MemoryCloud, labels: &[&str], edges: &[(usize, usize)]) -> QueryGraph {
    let mut qb = QueryGraph::builder();
    let vs: Vec<QVid> = labels
        .iter()
        .map(|name| qb.vertex_by_name(cloud, name).unwrap())
        .collect();
    for &(x, y) in edges {
        qb.edge(vs[x], vs[y]);
    }
    qb.build().unwrap()
}

/// The cap on a `ChannelSink` batch (`stream.rs`, private `BATCH_ROWS`).
const BATCH_CAP: usize = 256;

/// The executor's three outputs — the table it hands back, a same-thread
/// `CollectSink`, a `RowStream` across a channel — carry the same rows in the
/// same order with the same counters, in every result mode, under both
/// transports, with serial and with parallel exploration.
#[test]
fn row_stream_yields_exactly_what_collect_sink_collects() {
    let hub = hub_cloud(300);
    let small_hub = hub_cloud(20);
    let small_star = labelled_query(&small_hub, &["a", "b", "c"], &[(0, 1), (0, 2)]);
    let star = labelled_query(&hub, &["a", "b", "c"], &[(0, 1), (0, 2)]);
    let triangle = labelled_query(&hub, &["a", "b", "c"], &[(0, 1), (0, 2), (1, 2)]);
    let lone_b = labelled_query(&hub, &["b"], &[]);
    let no_match = labelled_query(&hub, &["b", "b"], &[(0, 1)]);
    let mixed = test_cloud(4);
    let all = MatchConfig::default();
    let first = |k| MatchConfig::default().with_result_mode(ResultMode::FirstK(k));
    let exists = MatchConfig::default().with_result_mode(ResultMode::Exists);
    // (what, cloud, query, config, rows expected — when known by design)
    let mut cases: Vec<(String, &MemoryCloud, QueryGraph, MatchConfig, Option<u64>)> = vec![
        (
            "star/All".into(),
            &hub,
            star.clone(),
            all.clone(),
            Some(90_000),
        ),
        (
            "star/FirstK(1024)".into(),
            &hub,
            star.clone(),
            first(1024),
            Some(1024),
        ),
        ("star/Exists".into(), &hub, star, exists.clone(), Some(1)),
        // k is the exact answer size: the limit is met on the last row.
        (
            "small star/FirstK(400)".into(),
            &small_hub,
            small_star,
            first(400),
            Some(400),
        ),
        // The first slab (256 rows a machine) misses the one triangle.
        (
            "triangle/FirstK(1), growing slab".into(),
            &hub,
            triangle,
            first(1),
            Some(1),
        ),
        (
            "single vertex/All".into(),
            &hub,
            lone_b.clone(),
            all.clone(),
            Some(300),
        ),
        (
            "single vertex/FirstK(2)".into(),
            &hub,
            lone_b.clone(),
            first(2),
            Some(2),
        ),
        (
            "single vertex/FirstK(300)".into(),
            &hub,
            lone_b,
            first(300),
            Some(300),
        ),
        (
            "no match/All".into(),
            &hub,
            no_match.clone(),
            all.clone(),
            Some(0),
        ),
        (
            "no match/Exists".into(),
            &hub,
            no_match,
            exists.clone(),
            Some(0),
        ),
    ];
    for (qi, query) in workload(&mixed).into_iter().enumerate() {
        for (name, config) in [("All", &all), ("FirstK(4)", &first(4)), ("Exists", &exists)] {
            cases.push((
                format!("workload {qi}/{name}"),
                &mixed,
                query.clone(),
                config.clone(),
                None,
            ));
        }
    }
    let sweep = MODES
        .into_iter()
        .flat_map(|mode| [1usize, 4].map(|threads| (mode, threads)));
    let cases = cases
        .iter()
        .flat_map(|case| sweep.clone().map(move |s| (case, s)));
    for ((what, cloud, query, config, expected), (mode, threads)) in cases {
        let what = format!("{what}/{mode:?}/{threads} threads");
        let (query, expected) = (query.clone(), *expected);
        let config = config
            .clone()
            .with_transport_mode(mode)
            .with_num_threads(Some(threads));
        let out = match_query(cloud, &query, &config, Run::default()).unwrap();
        let mut collect = CollectSink::new();
        let collected = match_query(
            cloud,
            &query,
            &config,
            Run {
                sink: Some(&mut collect),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        let table = collect.into_table().unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let mut sink = ChannelSink::new(tx);
        let streamed = match_query(
            cloud,
            &query,
            &config,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        drop(sink);
        let batches: Vec<RowBatch> = RowStream::new(rx).batches().collect();

        if let Some(rows) = expected {
            assert_eq!(table.num_rows() as u64, rows, "{what}");
        }
        assert_eq!(out.table, table, "table output vs CollectSink ({what})");
        let (t, c) = (&out.metrics, &collected);
        assert_eq!(
            (t.matches_found, t.truncated, t.explore_rounds),
            (c.matches_found, c.truncated, c.explore_rounds),
            "{what}"
        );
        assert_eq!((&t.explore, &t.join), (&c.explore, &c.join), "{what}");
        assert_eq!(streamed.outcome, QueryOutcome::Complete, "{what}");
        assert_eq!(streamed.rows_streamed, collected.rows_streamed, "{what}");
        assert_eq!(streamed.explore_rounds, collected.explore_rounds, "{what}");
        assert_eq!(
            streamed.time_to_first_result_us.is_some(),
            table.num_rows() > 0,
            "{what}"
        );
        for batch in &batches {
            assert_eq!(batch.width(), query.num_vertices(), "{what}");
            assert!((1..=BATCH_CAP).contains(&batch.num_rows()), "{what}");
        }
        assert!(
            batches.iter().flat_map(RowBatch::rows).eq(table.rows()),
            "the stream must carry the collected rows in the collected order ({what})"
        );
        // Bounded by batches: full ones, plus one flush per round and query.
        let full = table.num_rows() / BATCH_CAP;
        assert!(
            batches.len() <= full + 2 + 2 * streamed.join.pipeline_rounds as usize,
            "{what}"
        );
    }
}

#[test]
fn dropped_row_stream_cancels_its_query_and_frees_the_worker() {
    // 490 000 rows from one hub: far more than a worker gets through in the
    // time the client needs to read one row and let go.
    let cloud = hub_cloud(700);
    let star = labelled_query(&cloud, &["a", "b", "c"], &[(0, 1), (0, 2)]);
    let full = 700 * 700;
    let engine = QueryEngine::new(&cloud, EngineConfig::default().with_workers(Some(1)));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let worker = s.spawn(|| engine.serve(&stop));
        let handle = engine
            .submit_streaming(QueryRequest::new(star.clone()))
            .expect_accepted();
        let rows = handle.rows().expect("a streaming handle has a row stream");
        assert!(handle.rows().is_none(), "the stream is taken once");
        let first = rows.recv().expect("the first row arrives on its own");
        assert_eq!(first.len(), 3);
        drop(rows);
        let response = handle.wait().unwrap();
        assert_eq!(response.metrics.outcome, QueryOutcome::Cancelled);
        assert!(
            (1..full / 2).contains(&response.metrics.rows_streamed),
            "the worker must stop soon after the stream is dropped, not enumerate \
             {full} rows for nobody (streamed {})",
            response.metrics.rows_streamed
        );
        // The worker is free again, and an intact stream still completes.
        let handle = engine
            .submit_streaming(
                QueryRequest::new(star)
                    .with_options(QueryOptions::none().with_result_mode(ResultMode::FirstK(500))),
            )
            .expect_accepted();
        let rows = handle.rows().unwrap();
        assert_eq!(rows.iter().count(), 500);
        let response = handle.wait().unwrap();
        assert_eq!(response.metrics.outcome, QueryOutcome::Complete);
        assert_eq!(response.metrics.rows_streamed, 500);
        stop.store(true, Ordering::Release);
        worker.join().unwrap();
    });
}
