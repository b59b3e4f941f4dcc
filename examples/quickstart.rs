//! Quickstart: build a small labeled graph, pose a pattern query, print the
//! embeddings.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use stwig_match::prelude::*;

fn main() {
    // --- 1. Build a toy social graph and load it into the memory cloud. ---
    // People know each other and live in cities; companies employ people.
    let mut gb = GraphBuilder::default();
    let people = ["ada", "bob", "cyd", "dan", "eve"];
    for (i, _) in people.iter().enumerate() {
        gb.add_vertex(VertexId(i as u64), "person");
    }
    gb.add_vertex(VertexId(100), "city"); // metropolis
    gb.add_vertex(VertexId(101), "city"); // smallville
    gb.add_vertex(VertexId(200), "company");

    // friendships
    for &(a, b) in &[(0u64, 1u64), (1, 2), (2, 0), (2, 3), (3, 4)] {
        gb.add_edge(VertexId(a), VertexId(b));
    }
    // residence
    for &(p, c) in &[(0u64, 100u64), (1, 100), (2, 100), (3, 101), (4, 101)] {
        gb.add_edge(VertexId(p), VertexId(c));
    }
    // employment
    for p in [0u64, 1, 3] {
        gb.add_edge(VertexId(p), VertexId(200));
    }

    // Partition over 4 simulated machines with a Gigabit-like cost model.
    let cloud = gb.build(4, CostModel::default());
    println!(
        "loaded graph: {} vertices, {} edges, {} labels, {} machines",
        cloud.num_vertices(),
        cloud.num_edges(),
        cloud.labels().len(),
        cloud.num_machines()
    );

    // --- 2. Query: two friends who live in the same city. ---
    let mut qb = QueryGraph::builder();
    let p1 = qb.vertex_by_name(&cloud, "person").unwrap();
    let p2 = qb.vertex_by_name(&cloud, "person").unwrap();
    let city = qb.vertex_by_name(&cloud, "city").unwrap();
    qb.edge(p1, p2).edge(p1, city).edge(p2, city);
    let query = qb.build().unwrap();

    // --- 3. Run the STwig matcher. ---
    let out = stwig::match_query(
        &cloud,
        &query,
        &MatchConfig::default(),
        stwig::Run::default(),
    )
    .unwrap();
    println!(
        "query: 2 friends in the same city -> {} embeddings",
        out.num_matches()
    );
    for (i, row) in out.table.rows().enumerate() {
        let named: Vec<String> = out
            .table
            .columns()
            .iter()
            .zip(row)
            .map(|(q, v)| format!("{}={}", query.name(*q), v))
            .collect();
        println!("  match {i}: {}", named.join(", "));
    }

    // --- 4. Inspect what the engine did. ---
    let m = &out.metrics;
    println!(
        "decomposed into {} STwigs, rows per STwig: {:?}",
        m.num_stwigs, m.stwig_rows
    );
    println!(
        "exploration: {} cells loaded, {} label probes; join: {} joins, {} intermediate rows",
        m.explore.cells_loaded,
        m.explore.label_probes,
        m.join.joins_performed,
        m.join.intermediate_rows
    );
    println!(
        "cross-machine traffic: {} messages / {} bytes; wall {:.2} ms",
        m.network_messages,
        m.network_bytes,
        m.wall_ms()
    );
}
