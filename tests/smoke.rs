//! First-line canary: a tiny triangle query on a 2-machine cloud, cross-
//! checked against VF2. Runs in well under a second, so a broken pipeline is
//! reported before the heavier end-to-end and property suites spin up.

use stwig_match::prelude::*;
use trinity_sim::ids::VertexId;

/// Six vertices over two machines: a labeled triangle a-b-c plus a pendant
/// vertex per label so the label index has non-trivial candidate lists.
fn tiny_cloud() -> MemoryCloud {
    let mut gb = GraphBuilder::default();
    for (v, l) in [(0, "a"), (1, "b"), (2, "c"), (3, "a"), (4, "b"), (5, "c")] {
        gb.add_vertex(VertexId(v), l);
    }
    // The triangle.
    gb.add_edge(VertexId(0), VertexId(1));
    gb.add_edge(VertexId(1), VertexId(2));
    gb.add_edge(VertexId(2), VertexId(0));
    // Pendants that must not appear in any embedding.
    gb.add_edge(VertexId(3), VertexId(4));
    gb.add_edge(VertexId(4), VertexId(5));
    gb.build(2, CostModel::default())
}

fn triangle_query(cloud: &MemoryCloud) -> QueryGraph {
    let mut qb = QueryGraph::builder();
    let a = qb.vertex_by_name(cloud, "a").unwrap();
    let b = qb.vertex_by_name(cloud, "b").unwrap();
    let c = qb.vertex_by_name(cloud, "c").unwrap();
    qb.edge(a, b).edge(b, c).edge(c, a);
    qb.build().unwrap()
}

#[test]
fn triangle_on_two_machines_matches_vf2() {
    let cloud = tiny_cloud();
    let query = triangle_query(&cloud);

    let ours = stwig::match_query(
        &cloud,
        &query,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    assert_eq!(ours.num_matches(), 1, "exactly one labeled triangle");
    verify_all(&cloud, &query, &ours.table).unwrap();

    let reference = vf2(&cloud, &query, None);
    assert_eq!(
        canonical_rows(&query, &ours.table),
        canonical_rows(&query, &reference)
    );

    // The distributed path must agree on the same cloud.
    let dist = stwig::match_query(
        &cloud,
        &query,
        &MatchConfig::exhaustive(),
        stwig::Run::default(),
    )
    .unwrap();
    assert_eq!(
        canonical_rows(&query, &dist.table),
        canonical_rows(&query, &reference)
    );
}
