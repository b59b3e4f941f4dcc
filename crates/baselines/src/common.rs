//! Shared utilities for the baseline matchers: candidate generation and
//! result assembly compatible with the `stwig` result tables.

use stwig::query::{QVid, QueryGraph};
use stwig::table::ResultTable;
use trinity_sim::ids::VertexId;
use trinity_sim::MemoryCloud;

/// Per-query-vertex candidate lists: all data vertices with the right label
/// and at least the query vertex's degree.
pub(crate) fn label_degree_candidates(
    cloud: &MemoryCloud,
    query: &QueryGraph,
) -> Vec<Vec<VertexId>> {
    query
        .vertices()
        .map(|q| {
            let needed_degree = query.degree(q);
            cloud
                .all_ids_with_label(query.label(q))
                .into_iter()
                .filter(|&v| cloud.degree_global(v) >= needed_degree)
                .collect()
        })
        .collect()
}

/// Builds a result table (columns = query vertices in index order) from a
/// list of complete assignments.
pub(crate) fn table_from_assignments(
    query: &QueryGraph,
    assignments: &[Vec<VertexId>],
) -> ResultTable {
    let columns: Vec<QVid> = query.vertices().collect();
    let mut table = ResultTable::with_capacity(columns.clone(), assignments.len());
    for a in assignments {
        debug_assert_eq!(a.len(), columns.len());
        table.push_row(a);
    }
    table
}

/// A search order over query vertices such that every vertex (after the
/// first) is adjacent to an earlier one — keeps backtracking matchers
/// connected so candidates can be drawn from neighbors of mapped vertices.
pub(crate) fn connected_search_order(query: &QueryGraph) -> Vec<QVid> {
    let n = query.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Start from the highest-degree vertex.
    let start = query
        .vertices()
        .max_by_key(|&v| query.degree(v))
        .expect("non-empty query");
    order.push(start);
    placed[start.index()] = true;
    while order.len() < n {
        // Pick the unplaced vertex with the most placed neighbors (ties by
        // degree) — the classic "most constrained next" heuristic.
        let next = query
            .vertices()
            .filter(|v| !placed[v.index()])
            .max_by_key(|&v| {
                let placed_neighbors = query.neighbors(v).filter(|u| placed[u.index()]).count();
                (placed_neighbors, query.degree(v))
            })
            .expect("unplaced vertex exists");
        placed[next.index()] = true;
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn small_cloud() -> MemoryCloud {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_vertex(v(2), "a");
        b.add_vertex(v(3), "b");
        b.add_edge(v(1), v(3));
        b.build(1, CostModel::free())
    }

    #[test]
    fn candidates_respect_label_and_degree() {
        let cloud = small_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        let c = label_degree_candidates(&cloud, &q);
        // vertex 2 has label a but degree 0 < 1 → filtered out.
        assert_eq!(c[0], vec![v(1)]);
        assert_eq!(c[1], vec![v(3)]);
    }

    #[test]
    fn search_order_is_connected() {
        let cloud = small_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let c = qb.vertex_by_name(&cloud, "a").unwrap();
        qb.edge(a, b).edge(b, c);
        let q = qb.build().unwrap();
        let order = connected_search_order(&q);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], b, "highest degree first");
        for (i, &x) in order.iter().enumerate().skip(1) {
            assert!(
                order[..i].iter().any(|&y| q.has_edge(x, y)),
                "vertex {x} not adjacent to any earlier vertex"
            );
        }
    }

    #[test]
    fn table_assembly() {
        let cloud = small_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        let t = table_from_assignments(&q, &[vec![v(1), v(3)]]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.width(), 2);
    }
}
