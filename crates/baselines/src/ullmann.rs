//! Ullmann's subgraph-isomorphism algorithm (J. ACM 1976), the classic
//! no-index baseline of Table 1 row 1.
//!
//! Backtracking over query vertices with a candidate matrix that is refined
//! before the search (a candidate for query vertex `u` must have, for every
//! neighbor of `u`, at least one adjacent candidate).

use crate::common::{connected_search_order, label_degree_candidates, table_from_assignments};
use stwig::query::QueryGraph;
use stwig::table::ResultTable;
use trinity_sim::ids::VertexId;
use trinity_sim::MemoryCloud;

/// Runs Ullmann's algorithm, returning up to `max_results` embeddings
/// (`None` = all).
pub fn ullmann(cloud: &MemoryCloud, query: &QueryGraph, max_results: Option<usize>) -> ResultTable {
    let mut candidates = label_degree_candidates(cloud, query);
    refine(cloud, query, &mut candidates);

    let order = connected_search_order(query);
    let mut assignment: Vec<Option<VertexId>> = vec![None; query.num_vertices()];
    let mut results: Vec<Vec<VertexId>> = Vec::new();
    search(
        cloud,
        query,
        &order,
        0,
        &candidates,
        &mut assignment,
        &mut results,
        max_results,
    );
    table_from_assignments(query, &results)
}

/// Ullmann's refinement: repeatedly remove a candidate `c` of query vertex
/// `u` if some neighbor `w` of `u` has no candidate adjacent to `c`.
fn refine(cloud: &MemoryCloud, query: &QueryGraph, candidates: &mut [Vec<VertexId>]) {
    let mut changed = true;
    while changed {
        changed = false;
        for u in query.vertices() {
            let neighbors: Vec<_> = query.neighbors(u).collect();
            let before = candidates[u.index()].len();
            let retained: Vec<VertexId> = candidates[u.index()]
                .iter()
                .copied()
                .filter(|&c| {
                    neighbors.iter().all(|&w| {
                        candidates[w.index()]
                            .iter()
                            .any(|&d| cloud.has_edge_global(c, d))
                    })
                })
                .collect();
            if retained.len() != before {
                candidates[u.index()] = retained;
                changed = true;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn search(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    order: &[stwig::query::QVid],
    depth: usize,
    candidates: &[Vec<VertexId>],
    assignment: &mut Vec<Option<VertexId>>,
    results: &mut Vec<Vec<VertexId>>,
    max_results: Option<usize>,
) {
    if let Some(limit) = max_results {
        if results.len() >= limit {
            return;
        }
    }
    if depth == order.len() {
        results.push(
            assignment
                .iter()
                .map(|a| a.expect("complete assignment"))
                .collect(),
        );
        return;
    }
    let u = order[depth];
    'cand: for &c in &candidates[u.index()] {
        // Injectivity.
        if assignment.iter().flatten().any(|&used| used == c) {
            continue;
        }
        // Consistency with already-mapped neighbors.
        for w in query.neighbors(u) {
            if let Some(mapped) = assignment[w.index()] {
                if !cloud.has_edge_global(c, mapped) {
                    continue 'cand;
                }
            }
        }
        assignment[u.index()] = Some(c);
        search(
            cloud,
            query,
            order,
            depth + 1,
            candidates,
            assignment,
            results,
            max_results,
        );
        assignment[u.index()] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stwig::verify::verify_all;
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn triangle_cloud() -> MemoryCloud {
        let mut b = GraphBuilder::default();
        for i in 0..3 {
            b.add_vertex(v(i), "x");
        }
        b.add_vertex(v(10), "y");
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(0));
        b.add_edge(v(0), v(10));
        b.build(1, CostModel::free())
    }

    #[test]
    fn finds_all_triangle_automorphisms() {
        let cloud = triangle_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "x").unwrap();
        let b = qb.vertex_by_name(&cloud, "x").unwrap();
        let c = qb.vertex_by_name(&cloud, "x").unwrap();
        qb.edge(a, b).edge(b, c).edge(c, a);
        let q = qb.build().unwrap();
        let out = ullmann(&cloud, &q, None);
        // One data triangle, 3 query vertices with identical labels → 3! = 6
        // embeddings.
        assert_eq!(out.num_rows(), 6);
        verify_all(&cloud, &q, &out).unwrap();
    }

    #[test]
    fn respects_result_limit() {
        let cloud = triangle_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "x").unwrap();
        let b = qb.vertex_by_name(&cloud, "x").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        let out = ullmann(&cloud, &q, Some(2));
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn refinement_removes_impossible_candidates() {
        let cloud = triangle_cloud();
        let mut qb = QueryGraph::builder();
        let x = qb.vertex_by_name(&cloud, "x").unwrap();
        let y = qb.vertex_by_name(&cloud, "y").unwrap();
        qb.edge(x, y);
        let q = qb.build().unwrap();
        let mut cands = label_degree_candidates(&cloud, &q);
        refine(&cloud, &q, &mut cands);
        // only x-vertex 0 is adjacent to the y vertex.
        assert_eq!(cands[x.index()], vec![v(0)]);
        assert_eq!(cands[y.index()], vec![v(10)]);
    }

    #[test]
    fn no_match_returns_empty() {
        let cloud = triangle_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "y").unwrap();
        let b = qb.vertex_by_name(&cloud, "y").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        assert_eq!(ullmann(&cloud, &q, None).num_rows(), 0);
    }
}
