//! `parallel_matches_serial`: the multi-threaded distributed executor must
//! return canonical rows identical to the serial executor — and identical
//! `matches_found` — across machine counts, generated query families
//! (DFS-induced and random, from `graph_gen::query_gen`), result-limit
//! configurations, both network cost models **and both transport modes**:
//! the serial `DirectRead` run is the reference, and `DirectRead` × 4
//! threads, `Messages` × 1 thread and `Messages` × 4 threads must all agree
//! with it. `Messages` runs must additionally perform zero direct
//! cross-partition reads. Every run returns the same table, columns in
//! canonical order (query vertices ascending).

use graph_gen::prelude::*;
use stwig::prelude::*;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

const MACHINES: [usize; 4] = [1, 2, 4, 7];
const PARALLEL_THREADS: usize = 4;

fn test_cloud(machines: usize, cost: CostModel) -> MemoryCloud {
    synthetic_experiment_graph(1_500, 6.0, 5e-2, 0xBEEF).build_cloud(machines, cost)
}

/// DFS-induced queries (guaranteed ≥ 1 match) plus random queries.
fn workload(cloud: &MemoryCloud) -> Vec<QueryGraph> {
    let mut queries = query_batch(cloud, 3, 5, None, 0xA0);
    queries.extend(query_batch(cloud, 3, 5, Some(7), 0xB0));
    assert!(queries.len() >= 4, "workload generation degenerated");
    queries
}

fn assert_parallel_matches_serial(cost_name: &str, cost: CostModel) {
    for machines in MACHINES {
        let cloud = test_cloud(machines, cost);
        for (qi, query) in workload(&cloud).iter().enumerate() {
            for (cfg_name, base) in [
                ("exhaustive", MatchConfig::default()),
                ("paper", MatchConfig::paper_default()),
            ] {
                let serial = match_query(
                    &cloud,
                    query,
                    &base
                        .clone()
                        .with_num_threads(Some(1))
                        .with_transport_mode(TransportMode::DirectRead),
                    Run::default(),
                )
                .unwrap();
                for mode in [TransportMode::DirectRead, TransportMode::Messages] {
                    for threads in [1usize, PARALLEL_THREADS] {
                        if mode == TransportMode::DirectRead && threads == 1 {
                            continue; // that's the reference itself
                        }
                        let ctx = format!(
                            "cost = {cost_name}, machines = {machines}, query = {qi}, \
                             config = {cfg_name}, mode = {mode:?}, threads = {threads}"
                        );
                        // The cloud's aggregate adds every retired query.
                        let direct_before = cloud.direct_remote_reads();
                        let run = match_query(
                            &cloud,
                            query,
                            &base
                                .clone()
                                .with_num_threads(Some(threads))
                                .with_transport_mode(mode),
                            Run::default(),
                        )
                        .unwrap();
                        if mode == TransportMode::Messages {
                            assert_eq!(
                                cloud.direct_remote_reads(),
                                direct_before,
                                "Messages mode touched a remote partition: {ctx}"
                            );
                        }
                        // Bit-identical, not just set-equal: same rows in the
                        // same order, so truncating configs pick the same
                        // witnesses in every mode and thread count.
                        assert_eq!(serial.table, run.table, "tables diverged: {ctx}");
                        let canonical: Vec<QVid> = query.vertices().collect();
                        assert_eq!(run.table.columns(), canonical, "columns: {ctx}");
                        assert_eq!(
                            serial.metrics.matches_found, run.metrics.matches_found,
                            "matches_found diverged: {ctx}"
                        );
                        assert_eq!(
                            serial.metrics.stwig_rows, run.metrics.stwig_rows,
                            "stwig_rows diverged: {ctx}"
                        );
                        verify_all(&cloud, query, &run.table).unwrap_or_else(|e| {
                            panic!("result failed verification ({ctx}): {e:?}")
                        });
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_matches_serial_gigabit() {
    assert_parallel_matches_serial("gigabit", CostModel::default());
}

/// The workload submitted through `submit()` across tenants and served by
/// concurrent `serve()` workers returns tables bit-identical to the serial
/// reference executor, in both transport modes. Scheduling order and worker
/// interleaving must never leak into results.
#[test]
fn submitted_queries_served_concurrently_match_serial() {
    use std::sync::atomic::{AtomicBool, Ordering};
    for machines in [2usize, 4] {
        let cloud = test_cloud(machines, CostModel::default());
        let queries = workload(&cloud);
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let config = MatchConfig::paper_default()
                .with_num_threads(Some(1))
                .with_transport_mode(mode);
            let expected: Vec<_> = queries
                .iter()
                .map(|q| match_query(&cloud, q, &config, Run::default()).unwrap())
                .collect();
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default().with_match_config(config.clone()),
            );
            let stop = AtomicBool::new(false);
            let handles: Vec<QueryHandle> = std::thread::scope(|s| {
                for _ in 0..PARALLEL_THREADS {
                    s.spawn(|| engine.serve(&stop));
                }
                let handles: Vec<QueryHandle> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        engine
                            .submit(QueryRequest::new(q.clone()).with_tenant(if i % 2 == 0 {
                                "even"
                            } else {
                                "odd"
                            }))
                            .expect_accepted()
                    })
                    .collect();
                while handles.iter().any(|h| !h.is_finished()) {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
                handles
            });
            for (i, (handle, want)) in handles.into_iter().zip(&expected).enumerate() {
                let response = handle.wait().unwrap();
                let ctx = format!("machines = {machines}, mode = {mode:?}, query = {i}");
                assert_eq!(
                    response.table.as_ref(),
                    Some(&want.table),
                    "submit()-served table diverged from serial reference: {ctx}"
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_infiniband() {
    assert_parallel_matches_serial("infiniband", CostModel::infiniband());
}
