//! Differential oracle for the concurrent multi-query engine: on seeded
//! Erdős–Rényi and R-MAT graphs, `match_query_distributed` (through the
//! `QueryEngine`, cache on and off) must return exactly the VF2 baseline's
//! embedding set for generated DFS-family and random-family queries, across
//! machines {1, 4} × worker threads {1, 4} × transport mode
//! {DirectRead, Messages} × label-pair planner (`MatchConfig::pruning`)
//! {off, on}; every exploration prunes roots on their signatures.
//!
//! VF2 is a completely independent implementation (state-space search, no
//! decomposition, no joins, no cache), so agreement here certifies the whole
//! STwig pipeline — including the cache's canonicalization and derivation —
//! rather than comparing the engine with itself.

use stwig::metrics::MachineMetrics;
use stwig_match::prelude::*;

const MACHINES: [usize; 2] = [1, 4];
const THREADS: [usize; 2] = [1, 4];

/// Every (worker threads, cache, transport, pruning) combination the oracle
/// runs on each cloud.
fn engine_axes() -> impl Iterator<Item = (usize, bool, TransportMode, bool)> {
    THREADS.into_iter().flat_map(|threads| {
        [false, true].into_iter().flat_map(move |cache_on| {
            [TransportMode::DirectRead, TransportMode::Messages]
                .into_iter()
                .flat_map(move |mode| {
                    [false, true]
                        .into_iter()
                        .map(move |pruning| (threads, cache_on, mode, pruning))
                })
        })
    })
}

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
            for (threads, cache_on, mode, pruning) in engine_axes() {
                let config = EngineConfig::default()
                    .with_workers(Some(threads))
                    .with_cache(cache_on.then(CacheConfig::default))
                    .with_match_config(
                        MatchConfig::exhaustive()
                            .with_num_threads(Some(1))
                            .with_transport_mode(mode)
                            .with_pruning(pruning),
                    );
                let engine = QueryEngine::new(&cloud, config);
                // Run the batch twice: the first pass populates the cache,
                // the second is all hits — both must agree with VF2.
                for pass in 0..2 {
                    let outputs = engine.run_batch(&queries);
                    for ((q, out), want) in queries.iter().zip(&outputs).zip(&expected) {
                        let out = out.as_ref().expect("query succeeds");
                        let ctx = format!(
                            "graph = {}, machines = {machines}, threads = {threads}, \
                             cache = {cache_on}, mode = {mode:?}, pruning = {pruning}, \
                             pass = {pass}",
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
                         machines = {machines}, mode = {mode:?}, pruning = {pruning})",
                        case.name
                    );
                    // The plan memo filled while `threads` workers raced; the
                    // second pass planned nothing.
                    let planned = queries.iter().filter(|q| q.num_edges() > 0).count();
                    assert!(
                        stats.plan_hits >= planned as u64 && stats.plan_misses <= planned as u64,
                        "second pass must take every plan from the memo \
                         (graph = {}, machines = {machines}, threads = {threads}, \
                         mode = {mode:?}, pruning = {pruning}): {stats:?}",
                        case.name
                    );
                }
            }
        }
    }
    assert!(total_queries >= 40, "differential suite lost its workload");
}

#[test]
fn cached_engine_is_bit_identical_to_uncached_serial_run() {
    // Stronger than set equality with VF2: with a result limit in play, the
    // engine must return the cache-free executor's answer — the same rows
    // wherever the limit does not choose among them, `k` distinct valid
    // embeddings where it does (a cache serves complete STwig tables, so
    // which witnesses survive the cut is not the cache-free run's choice) —
    // and the exact table (row order included) must not depend on whether a
    // pass populated the cache or hit it, on `run_batch` vs `submit()`, or
    // on the transport mode, or truncation would silently select different
    // witnesses from one request to the next. The uncached serial DirectRead
    // run is the single reference for both modes.
    for case in graph_cases() {
        let cloud = case
            .graph
            .clone()
            .build_cloud(4, trinity_sim::network::CostModel::default());
        let queries = workload(&cloud);
        let reference_config = MatchConfig::paper_default()
            .with_num_threads(Some(1))
            .with_transport_mode(TransportMode::DirectRead);
        let limit = reference_config.result_limit();
        let plain: Vec<_> = queries
            .iter()
            .map(|q| stwig::match_query_distributed(&cloud, q, &reference_config).unwrap())
            .collect();
        // The populating pass's tables, which every later pass must repeat.
        let mut populated: Option<Vec<ResultTable>> = None;
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_workers(Some(1))
                    .with_match_config(reference_config.clone().with_transport_mode(mode)),
            );
            // Every query retires its ledger into the cloud's aggregate.
            let direct_before = cloud.direct_remote_reads();
            for pass in 0..2 {
                let outputs = engine.run_batch(&queries);
                let tables: Vec<ResultTable> = (outputs.into_iter())
                    .map(|out| out.unwrap().table)
                    .collect();
                for (i, (table, want)) in tables.iter().zip(&plain).enumerate() {
                    let ctx = format!(
                        "graph = {}, query = {i}, mode = {mode:?}, pass = {pass}",
                        case.name
                    );
                    same_answer(&cloud, &queries[i], table, &want.table, limit)
                        .unwrap_or_else(|e| panic!("{e}: {ctx}"));
                }
                let populated = populated.get_or_insert_with(|| tables.clone());
                assert_eq!(
                    &tables, populated,
                    "graph = {}, mode = {mode:?}, pass = {pass}",
                    case.name
                );
            }
            // Third pass: the same queries submitted and awaited by hand
            // must repeat the populating pass bit for bit, cache now warm.
            let handles: Vec<QueryHandle> = queries
                .iter()
                .map(|q| {
                    engine
                        .submit(QueryRequest::new(q.clone()))
                        .expect_accepted()
                })
                .collect();
            engine.drain();
            let populated = populated.as_ref().expect("two passes ran");
            for (i, (handle, want)) in handles.into_iter().zip(populated).enumerate() {
                let response = handle.wait().unwrap();
                assert_eq!(
                    response.table.as_ref(),
                    Some(want),
                    "submit() diverged from the populating pass \
                     (graph = {}, query = {i}, mode = {mode:?})",
                    case.name
                );
            }
            if mode == TransportMode::Messages {
                assert_eq!(
                    cloud.direct_remote_reads(),
                    direct_before,
                    "Messages-mode engine batches dereferenced a remote partition \
                     (graph = {})",
                    case.name
                );
            }
        }
    }
}

/// A mixed query: when the cache serves every STwig but one (here the one
/// with the largest table, tombstoned by a populate row cap just under its
/// size), that one is explored under the bindings the served tables before
/// it fold in when it comes to it — the very tables the cache-free run
/// explores, for the very synchronization traffic — and the answer is still
/// VF2's.
#[test]
fn an_explored_stwig_among_served_ones_is_pruned_as_without_a_cache() {
    let mut mixed = 0usize;
    let mut filtered_folds = 0usize;
    for case in graph_cases() {
        let cloud = case
            .graph
            .clone()
            .build_cloud(4, trinity_sim::network::CostModel::default());
        // Six-vertex queries too: three STwigs and more, so that a served
        // table is folded under bindings an earlier one left.
        let mut queries = workload(&cloud);
        queries.extend(query_batch(&cloud, 12, 6, None, 0x6F01D));
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let config = MatchConfig::exhaustive()
                .with_num_threads(Some(1))
                .with_transport_mode(mode);
            for (i, q) in queries.iter().enumerate() {
                let plan = plan_query_with_config(&cloud, q, &config).unwrap();
                // The largest per-machine table of every STwig's shape.
                let probe = StwigCache::new(&cloud, CacheConfig::default());
                stwig::match_query_distributed_with_cache(&cloud, q, &config, Some(&probe))
                    .unwrap();
                let largest: Vec<usize> = (plan.stwigs.iter())
                    .filter_map(|s| {
                        match probe.lookup(&StwigShape::of(q, s, config.pruning), &cloud) {
                            CacheLookup::Hit(e) => e.iter().map(|t| t.num_rows()).max(),
                            _ => None,
                        }
                    })
                    .collect();
                if largest.len() < plan.stwigs.len() {
                    continue; // some STwig matched nowhere
                }
                // The one STwig to tombstone: strictly the largest, and not
                // the first (which nothing binds).
                let t = (0..largest.len()).max_by_key(|&t| largest[t]).unwrap();
                let cap = (largest.iter().enumerate())
                    .filter(|&(j, _)| j != t)
                    .map(|(_, rows)| rows + 1)
                    .max();
                let Some(cap) = cap.filter(|&cap| t > 0 && largest[t] >= cap) else {
                    continue;
                };
                let ctx = format!("graph = {}, mode = {mode:?}, query = {i}", case.name);
                let cache = StwigCache::new(
                    &cloud,
                    CacheConfig {
                        populate_row_cap: Some(cap),
                        ..CacheConfig::default()
                    },
                );
                // Populates the other shapes, tombstones the largest.
                let out =
                    stwig::match_query_distributed_with_cache(&cloud, q, &config, Some(&cache))
                        .unwrap();
                assert_eq!(
                    canonical_rows(q, &out.table),
                    canonical_rows(q, &vf2(&cloud, q, None)),
                    "{ctx}"
                );
                let explore = |cache: Option<&StwigCache>| {
                    let mut metrics = QueryMetrics::default();
                    let mut machines = vec![MachineMetrics::default(); 4];
                    cloud.reset_traffic();
                    let tables = produce_stwig_tables(
                        &cloud,
                        q,
                        &plan,
                        &config,
                        cache,
                        None,
                        &mut metrics,
                        &mut machines,
                    )
                    .unwrap()
                    .expect("the probe run found every STwig somewhere");
                    (tables, metrics)
                };
                let before = cache.stats();
                let (warm, warm_metrics) = explore(Some(&cache));
                let (plain, plain_metrics) = explore(None);
                let served = cache.stats();
                assert_eq!(served.hits - before.hits, largest.len() as u64 - 1);
                assert_eq!(served.bypasses - before.bypasses, 1, "{ctx}");
                for k in 0..4 {
                    assert_eq!(warm.table(k, t), plain.table(k, t), "machine {k}, {ctx}");
                }
                let (w, p) = (&warm_metrics, &plain_metrics);
                assert!(w.explore.roots_scanned < p.explore.roots_scanned, "{ctx}");
                // Tables after the explored one are served and fold nothing.
                if t + 1 == largest.len() {
                    assert_eq!(
                        w.phase_traffic.binding_sync_bytes, p.phase_traffic.binding_sync_bytes,
                        "{ctx}"
                    );
                }
                mixed += 1;
                // Did a served table need the binding filter, or did every
                // row of it take part?
                let rows = |m: &QueryMetrics| m.stwig_rows[..t].iter().sum::<u64>();
                filtered_folds += usize::from(rows(w) > rows(p));
            }
        }
    }
    assert!(mixed >= 4, "only {mixed} mixed queries");
    assert!(filtered_folds > 0, "no fold had rows to filter");
}
