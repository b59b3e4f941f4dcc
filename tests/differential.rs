//! Differential oracle for the concurrent multi-query engine: on seeded
//! Erdős–Rényi and R-MAT graphs, `match_query_distributed` (through the
//! `QueryEngine`, cache on and off) must return exactly the VF2 baseline's
//! embedding set for generated DFS-family and random-family queries, across
//! machines {1, 4} × worker threads {1, 4} × transport mode
//! {DirectRead, Messages}.
//!
//! VF2 is a completely independent implementation (state-space search, no
//! decomposition, no joins, no cache), so agreement here certifies the whole
//! STwig pipeline — including the cache's canonicalization and derivation —
//! rather than comparing the engine with itself.

use stwig_match::prelude::*;

const MACHINES: [usize; 2] = [1, 4];
const THREADS: [usize; 2] = [1, 4];

struct GraphCase {
    name: &'static str,
    graph: SyntheticGraph,
}

/// Two graph families ≤ 2k vertices with small label alphabets (3–8 labels),
/// per the workload the engine targets.
fn graph_cases() -> Vec<GraphCase> {
    let er = {
        // G(n, m): 500 vertices, ~1250 edges, 5 labels.
        let g = gnm(500, 1_250, 0xE12);
        let labels = LabelModel::Uniform { num_labels: 5 }.assign(500, 0xE13);
        g.with_labels(labels, 5)
    };
    let rmat = {
        // Skewed R-MAT: 800 vertices, average degree 5, 8 labels.
        let g = rmat(&RmatConfig::with_avg_degree(800, 5.0, 0xA51));
        let labels = LabelModel::Uniform { num_labels: 8 }.assign(800, 0xA52);
        g.with_labels(labels, 8)
    };
    vec![
        GraphCase {
            name: "erdos-renyi",
            graph: er,
        },
        GraphCase {
            name: "rmat",
            graph: rmat,
        },
    ]
}

/// ~25 queries per graph: a DFS family (induced subgraphs, ≥ 1 match each)
/// and a random family (labels drawn from the alphabet, often 0 matches).
fn workload(cloud: &trinity_sim::MemoryCloud) -> Vec<QueryGraph> {
    let mut queries = query_batch(cloud, 13, 4, None, 0xD1F5);
    queries.extend(query_batch(cloud, 12, 4, Some(5), 0x7A2D));
    assert!(queries.len() >= 20, "workload generation degenerated");
    queries
}

#[test]
fn engine_matches_vf2_across_machines_threads_and_cache() {
    let mut total_queries = 0usize;
    for case in graph_cases() {
        // VF2 ground truth on the single-machine cloud; queries are reused
        // across machine counts (label interning is deterministic).
        let reference_cloud = case
            .graph
            .clone()
            .build_cloud(1, trinity_sim::network::CostModel::default());
        let queries = workload(&reference_cloud);
        total_queries += queries.len();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| canonical_rows(q, &vf2(&reference_cloud, q, None)))
            .collect();

        for machines in MACHINES {
            let cloud = case
                .graph
                .clone()
                .build_cloud(machines, trinity_sim::network::CostModel::default());
            for threads in THREADS {
                for cache_on in [false, true] {
                    for mode in [TransportMode::DirectRead, TransportMode::Messages] {
                        let config = EngineConfig::default()
                            .with_workers(Some(threads))
                            .with_cache(cache_on.then(CacheConfig::default))
                            .with_match_config(
                                MatchConfig::exhaustive()
                                    .with_num_threads(Some(1))
                                    .with_transport_mode(mode),
                            );
                        let engine = QueryEngine::new(&cloud, config);
                        // Run the batch twice: the first pass populates the
                        // cache, the second is all hits — both must agree
                        // with VF2.
                        for pass in 0..2 {
                            let outputs = engine.run_batch(&queries);
                            for ((q, out), want) in queries.iter().zip(&outputs).zip(&expected) {
                                let out = out.as_ref().expect("query succeeds");
                                let ctx = format!(
                                    "graph = {}, machines = {machines}, threads = {threads}, \
                                     cache = {cache_on}, mode = {mode:?}, pass = {pass}",
                                    case.name
                                );
                                assert_eq!(
                                    &canonical_rows(q, &out.table),
                                    want,
                                    "embedding set diverged from VF2: {ctx}"
                                );
                                assert_eq!(
                                    out.metrics.matches_found,
                                    out.table.num_rows() as u64,
                                    "metrics out of sync: {ctx}"
                                );
                                verify_all(&cloud, q, &out.table)
                                    .unwrap_or_else(|r| panic!("invalid row {r}: {ctx}"));
                            }
                        }
                        if cache_on {
                            let stats = engine.cache_stats().expect("cache enabled");
                            assert!(
                                stats.hits > 0,
                                "second pass must hit the cache (graph = {}, \
                                 machines = {machines}, mode = {mode:?})",
                                case.name
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(total_queries >= 40, "differential suite lost its workload");
}

#[test]
fn cached_engine_is_bit_identical_to_uncached_serial_run() {
    // Stronger than set equality: with a result limit in play, the exact
    // table (row order included) must be independent of the cache — and of
    // the transport mode — or truncation would silently select different
    // witnesses. The uncached serial DirectRead run is the single reference
    // for both modes.
    for case in graph_cases() {
        let cloud = case
            .graph
            .clone()
            .build_cloud(4, trinity_sim::network::CostModel::default());
        let queries = workload(&cloud);
        let reference_config = MatchConfig::paper_default()
            .with_num_threads(Some(1))
            .with_transport_mode(TransportMode::DirectRead);
        let plain: Vec<_> = queries
            .iter()
            .map(|q| stwig::match_query_distributed(&cloud, q, &reference_config).unwrap())
            .collect();
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_workers(Some(1))
                    .with_match_config(reference_config.clone().with_transport_mode(mode)),
            );
            for pass in 0..2 {
                let outputs = engine.run_batch(&queries);
                for (i, (out, want)) in outputs.iter().zip(&plain).enumerate() {
                    assert_eq!(
                        out.as_ref().unwrap().table,
                        want.table,
                        "graph = {}, query = {i}, mode = {mode:?}, pass = {pass}",
                        case.name
                    );
                }
            }
            // Third pass: the same queries submitted and awaited by hand
            // must stay bit-identical to the cache-free reference, cache
            // now warm.
            let handles: Vec<QueryHandle> = queries
                .iter()
                .map(|q| {
                    engine
                        .submit(QueryRequest::new(q.clone()))
                        .expect_accepted()
                })
                .collect();
            engine.drain();
            for (i, (handle, want)) in handles.into_iter().zip(&plain).enumerate() {
                let response = handle.wait().unwrap();
                assert_eq!(
                    response.table.as_ref(),
                    Some(&want.table),
                    "submit() diverged from the cache-free reference \
                     (graph = {}, query = {i}, mode = {mode:?})",
                    case.name
                );
            }
            if mode == TransportMode::Messages {
                assert_eq!(
                    cloud.direct_remote_reads(),
                    0,
                    "Messages-mode engine batch dereferenced a remote partition \
                     (graph = {})",
                    case.name
                );
            }
        }
    }
}
