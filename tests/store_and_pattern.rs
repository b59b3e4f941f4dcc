//! Integration tests for the storage substrate (cost models, traffic
//! accounting, persistence) and the textual pattern front-end, exercised
//! through the public umbrella API.

use stwig_match::prelude::*;
use trinity_sim::edge_list;
use trinity_sim::ids::VertexId;

fn sample_graph(n: u64, seed: u64) -> SyntheticGraph {
    let g = rmat(&RmatConfig::with_avg_degree(n, 8.0, seed));
    let labels = LabelModel::Uniform { num_labels: 6 }.assign(n, seed ^ 0x77);
    g.with_labels(labels, 6)
}

#[test]
fn pattern_text_equals_builder_query() {
    let cloud = sample_graph(500, 1).build_cloud(2, CostModel::default());
    let parsed = stwig::parse_pattern(&cloud, "(x:L0)-(y:L1), (y)-(z:L2)").unwrap();
    let mut qb = QueryGraph::builder();
    let x = qb.vertex_by_name(&cloud, "L0").unwrap();
    let y = qb.vertex_by_name(&cloud, "L1").unwrap();
    let z = qb.vertex_by_name(&cloud, "L2").unwrap();
    qb.edge(x, y).edge(y, z);
    let built = qb.build().unwrap();

    let a = stwig::match_query(
        &cloud,
        &parsed,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    let b = stwig::match_query(
        &cloud,
        &built,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    assert_eq!(
        canonical_rows(&parsed, &a.table),
        canonical_rows(&built, &b.table)
    );
}

#[test]
fn pattern_query_matches_vf2() {
    let cloud = sample_graph(400, 2).build_cloud(3, CostModel::default());
    let query = stwig::parse_pattern(&cloud, "(a:L0)-(b:L1), (b)-(c:L0), (a)-(c)").unwrap();
    let ours = stwig::match_query(
        &cloud,
        &query,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    let reference = vf2(&cloud, &query, None);
    assert_eq!(
        canonical_rows(&query, &ours.table),
        canonical_rows(&query, &reference)
    );
}

#[test]
fn signature_baseline_agrees_with_stwig() {
    let cloud = sample_graph(600, 3).build_cloud(2, CostModel::default());
    let index = SignatureIndex::build(&cloud);
    assert_eq!(index.len() as u64, cloud.num_vertices());
    let queries = query_batch(&cloud, 6, 4, None, 30);
    for q in &queries {
        let ours = stwig::match_query(&cloud, q, &MatchConfig::exhaustive(), stwig::Run::default())
            .unwrap();
        let sig = signature_match(&cloud, &index, q, None);
        assert_eq!(canonical_rows(q, &ours.table), canonical_rows(q, &sig));
    }
}

#[test]
fn slower_networks_increase_simulated_time() {
    let graph = sample_graph(2_000, 4);
    let query_source = graph.build_cloud(4, CostModel::free());
    let query = dfs_query(&query_source, 6, 99).unwrap();

    let mut times = Vec::new();
    for cost in [
        CostModel::free(),
        CostModel::infiniband(),
        CostModel::default(),
    ] {
        let cloud = graph.build_cloud(4, cost);
        let out = stwig::match_query(
            &cloud,
            &query,
            &MatchConfig::paper_default(),
            stwig::Run::default(),
        )
        .unwrap();
        // Communication volume is identical across cost models...
        let comm_us: f64 = out.metrics.machines.iter().map(|m| m.comm_us).sum();
        times.push((out.metrics.network_bytes, comm_us));
    }
    assert_eq!(times[0].0, times[1].0);
    assert_eq!(times[1].0, times[2].0);
    // ...but the *communication* time charged by the cost model must rise as
    // the interconnect slows down (free -> InfiniBand -> Gigabit Ethernet).
    // (Total simulated time also includes measured compute, which is noisy on
    // a shared host, so the comparison is on the deterministic component.)
    let comm_free = times[0].1;
    let comm_ib = times[1].1;
    let comm_gbe = times[2].1;
    assert_eq!(comm_free, 0.0);
    assert!(comm_ib > 0.0);
    assert!(comm_gbe > comm_ib);
}

#[test]
fn traffic_accounting_scales_with_partition_count() {
    let graph = sample_graph(2_000, 5);
    let query_source = graph.build_cloud(1, CostModel::default());
    let query = dfs_query(&query_source, 5, 7).unwrap();
    let mut messages = Vec::new();
    for machines in [1usize, 2, 8] {
        let cloud = graph.build_cloud(machines, CostModel::default());
        let out = stwig::match_query(
            &cloud,
            &query,
            &MatchConfig::paper_default(),
            stwig::Run::default(),
        )
        .unwrap();
        messages.push(out.metrics.network_messages);
    }
    assert_eq!(messages[0], 0, "a single machine never communicates");
    assert!(
        messages[2] >= messages[1],
        "more machines, at least as much traffic"
    );
}

#[test]
fn edge_list_roundtrip_preserves_query_answers() {
    let graph = sample_graph(300, 6);
    let dir = std::env::temp_dir().join("stwig_match_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    let label_path = dir.join("labels.txt");
    let edge_path = dir.join("edges.txt");

    // Persist the generated graph as text files.
    let vertices: Vec<(VertexId, String)> = (0..graph.num_vertices)
        .map(|v| {
            (
                VertexId(v),
                SyntheticGraph::label_name(graph.labels[v as usize]),
            )
        })
        .collect();
    let edges: Vec<(VertexId, VertexId)> = graph
        .edges
        .iter()
        .map(|&(u, v)| (VertexId(u), VertexId(v)))
        .collect();
    edge_list::save_graph_files(&vertices, &edges, &label_path, &edge_path).unwrap();

    // Reload and compare query answers against the in-memory build.
    let original = graph.build_cloud(2, CostModel::default());
    let reloaded = edge_list::load_graph_files(&label_path, &edge_path)
        .unwrap()
        .build(2, CostModel::default());
    assert_eq!(original.num_vertices(), reloaded.num_vertices());
    assert_eq!(original.num_edges(), reloaded.num_edges());

    let query = dfs_query(&original, 4, 3).unwrap();
    let a = stwig::match_query(
        &original,
        &query,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    // Label ids may be interned in a different order in the reloaded cloud, so
    // rebuild the query by label names.
    let text: Vec<String> = query
        .vertices()
        .map(|v| original.labels().name(query.label(v)).unwrap().to_string())
        .collect();
    let mut qb = QueryGraph::builder();
    let qvids: Vec<_> = text
        .iter()
        .map(|l| qb.vertex_by_name(&reloaded, l).unwrap())
        .collect();
    for (u, v) in query.edges() {
        qb.edge(qvids[u.index()], qvids[v.index()]);
    }
    let reloaded_query = qb.build().unwrap();
    let b = stwig::match_query(
        &reloaded,
        &reloaded_query,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    assert_eq!(a.num_matches(), b.num_matches());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graph_stats_reflect_generated_parameters() {
    let graph = synthetic_experiment_graph(5_000, 12.0, 1e-2, 77);
    let cloud = graph.build_cloud(4, CostModel::default());
    let stats = graph_stats(&cloud);
    assert_eq!(stats.num_vertices, 5_000);
    assert_eq!(stats.num_labels, 50);
    // R-MAT duplicates a few edges, so the realised degree is slightly below
    // the requested average.
    assert!(stats.avg_degree > 8.0 && stats.avg_degree < 13.0);
    assert_eq!(stats.num_machines, 4);
    assert_eq!(stats.vertices_per_machine.iter().sum::<usize>(), 5_000);
}
