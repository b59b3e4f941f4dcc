//! Cross-crate integration tests: the STwig matcher against the baseline
//! matchers, single-machine versus distributed execution, and the dataset
//! profiles end to end — each under both transports.

use stwig_match::prelude::*;

const MODES: [TransportMode; 2] = [TransportMode::DirectRead, TransportMode::Messages];

/// [`MatchConfig::exhaustive`] under `mode`.
fn exhaustive(mode: TransportMode) -> MatchConfig {
    MatchConfig::exhaustive().with_transport_mode(mode)
}

/// [`MatchConfig::paper_default`] under `mode`.
fn paper_default(mode: TransportMode) -> MatchConfig {
    MatchConfig::paper_default().with_transport_mode(mode)
}

/// Builds a moderately-sized labeled R-MAT cloud for cross-checking.
fn rmat_cloud(n: u64, degree: f64, labels: usize, machines: usize, seed: u64) -> MemoryCloud {
    let graph = rmat(&RmatConfig::with_avg_degree(n, degree, seed));
    let l = LabelModel::Uniform { num_labels: labels }.assign(n, seed ^ 0x11);
    graph
        .with_labels(l, labels)
        .build_cloud(machines, CostModel::default())
}

#[test]
fn stwig_matches_vf2_on_dfs_queries() {
    let cloud = rmat_cloud(800, 6.0, 6, 3, 1);
    let queries = query_batch(&cloud, 12, 5, None, 100);
    assert!(!queries.is_empty());
    for q in &queries {
        let reference = canonical_rows(q, &vf2(&cloud, q, None));
        for mode in MODES {
            let ours = stwig::match_query_distributed(&cloud, q, &exhaustive(mode)).unwrap();
            assert_eq!(
                canonical_rows(q, &ours.table),
                reference,
                "mismatch on query with {} vertices / {} edges ({mode:?})",
                q.num_vertices(),
                q.num_edges()
            );
            verify_all(&cloud, q, &ours.table).unwrap();
        }
    }
}

#[test]
fn stwig_matches_ullmann_on_random_queries() {
    let cloud = rmat_cloud(600, 5.0, 5, 2, 2);
    let queries = query_batch(&cloud, 10, 4, Some(5), 200);
    for q in &queries {
        let reference = canonical_rows(q, &ullmann(&cloud, q, None));
        for mode in MODES {
            let ours = stwig::match_query_distributed(&cloud, q, &exhaustive(mode)).unwrap();
            assert_eq!(canonical_rows(q, &ours.table), reference, "{mode:?}");
        }
    }
}

#[test]
fn stwig_matches_edge_join_baseline() {
    let cloud = rmat_cloud(500, 5.0, 4, 2, 3);
    let queries = query_batch(&cloud, 8, 4, Some(4), 300);
    for q in &queries {
        let (reference, _stats) = edge_join(&cloud, q, None);
        let reference = canonical_rows(q, &reference);
        for mode in MODES {
            let ours = stwig::match_query_distributed(&cloud, q, &exhaustive(mode)).unwrap();
            assert_eq!(canonical_rows(q, &ours.table), reference, "{mode:?}");
        }
    }
}

#[test]
fn distributed_equals_single_machine_across_cluster_sizes() {
    let graph = rmat(&RmatConfig::with_avg_degree(700, 6.0, 4));
    let labels = LabelModel::Uniform { num_labels: 5 }.assign(700, 9);
    let graph = graph.with_labels(labels, 5);
    // Queries are generated against the 1-machine cloud and reused.
    let reference_cloud = graph.build_cloud(1, CostModel::default());
    let queries = query_batch(&reference_cloud, 6, 5, None, 400);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            let config = exhaustive(TransportMode::DirectRead);
            let out = stwig::match_query_distributed(&reference_cloud, q, &config).unwrap();
            canonical_rows(q, &out.table)
        })
        .collect();
    for machines in [2usize, 3, 5, 8] {
        let cloud = graph.build_cloud(machines, CostModel::default());
        for mode in MODES {
            for (q, want) in queries.iter().zip(&expected) {
                let got = stwig::match_query_distributed(&cloud, q, &exhaustive(mode)).unwrap();
                let ctx = format!("machines={machines}, {mode:?}");
                assert_eq!(&canonical_rows(q, &got.table), want, "{ctx}");
                verify_all(&cloud, q, &got.table).unwrap();
            }
        }
    }
}

#[test]
fn bindings_and_join_order_do_not_change_answers() {
    let cloud = rmat_cloud(600, 6.0, 5, 4, 5);
    let queries = query_batch(&cloud, 6, 5, Some(7), 500);
    for mode in MODES {
        for q in &queries {
            let run = |config: MatchConfig| {
                let out = stwig::match_query_distributed(&cloud, q, &config).unwrap();
                canonical_rows(q, &out.table)
            };
            let want = run(exhaustive(mode));
            assert_eq!(run(exhaustive(mode).with_bindings(false)), want, "{mode:?}");
            assert_eq!(
                run(exhaustive(mode).with_join_order_optimization(false)),
                want,
                "{mode:?}"
            );
        }
    }
}

#[test]
fn paper_default_truncates_but_returns_valid_matches() {
    let cloud = rmat_cloud(2_000, 10.0, 2, 4, 6);
    // A single-edge query on a 2-label graph has far more than 1024 matches.
    let mut qb = QueryGraph::builder();
    let a = qb.vertex_by_name(&cloud, "L0").unwrap();
    let b = qb.vertex_by_name(&cloud, "L1").unwrap();
    qb.edge(a, b);
    let q = qb.build().unwrap();
    for mode in MODES {
        let out = stwig::match_query_distributed(&cloud, &q, &paper_default(mode)).unwrap();
        assert_eq!(out.num_matches(), 1024, "{mode:?}");
        assert!(out.metrics.truncated);
        verify_all(&cloud, &q, &out.table).unwrap();
    }
}

#[test]
fn dataset_profiles_answer_queries() {
    for (name, graph) in [
        ("patents", patents_like(3_000, 7)),
        ("wordnet", wordnet_like(3_000, 8)),
        ("facebook", facebook_like(2_000, 12.0, 9)),
    ] {
        let cloud = graph.build_cloud(4, CostModel::default());
        let queries = query_batch(&cloud, 5, 4, None, 600);
        assert!(!queries.is_empty(), "{name}: no queries generated");
        for mode in MODES {
            for q in &queries {
                let out = stwig::match_query_distributed(&cloud, q, &paper_default(mode)).unwrap();
                // DFS queries are induced subgraphs, so at least one match
                // exists.
                assert!(
                    out.num_matches() >= 1,
                    "{name}: query lost its own witness ({mode:?})"
                );
                verify_all(&cloud, q, &out.table).unwrap();
            }
        }
    }
}

#[test]
fn per_machine_answers_are_disjoint_and_complete() {
    let cloud = rmat_cloud(900, 6.0, 4, 6, 11);
    let queries = query_batch(&cloud, 5, 5, None, 700);
    for mode in MODES {
        for q in &queries {
            let out = stwig::match_query_distributed(&cloud, q, &exhaustive(mode)).unwrap();
            let rows = canonical_rows(q, &out.table);
            // canonical_rows dedups: if per-machine answers overlapped, the
            // deduplicated count would be smaller than the reported matches.
            assert_eq!(
                rows.len(),
                out.num_matches(),
                "duplicate answers across machines ({mode:?})"
            );
        }
    }
}

#[test]
fn query_metrics_are_consistent() {
    let cloud = rmat_cloud(800, 8.0, 4, 4, 13);
    let q = dfs_query(&cloud, 6, 42).unwrap();
    for mode in MODES {
        let out = stwig::match_query_distributed(&cloud, &q, &paper_default(mode)).unwrap();
        let m = &out.metrics;
        assert_eq!(m.stwig_rows.len(), m.num_stwigs);
        assert_eq!(m.machines.len(), 4);
        assert_eq!(
            m.machines.iter().map(|x| x.matches_found).sum::<u64>(),
            m.matches_found
        );
        assert!(m.simulated_us > 0.0);
        assert!(m.explore.cells_loaded > 0, "{mode:?}");
    }
}
