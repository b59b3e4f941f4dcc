//! A VF2-style state-space subgraph-isomorphism matcher (Cordella, Foggia,
//! Sansone, Vento — TPAMI 2004), the second no-index baseline of Table 1.
//!
//! The matcher grows a partial mapping one query vertex at a time along a
//! connected search order; candidates for the next query vertex are drawn
//! from the data neighbors of already-mapped vertices, and the standard
//! look-ahead rule (enough unmapped neighbors remaining) prunes dead states.

use crate::common::{connected_search_order, table_from_assignments};
use stwig::query::{QVid, QueryGraph};
use stwig::table::ResultTable;
use trinity_sim::ids::VertexId;
use trinity_sim::MemoryCloud;

/// Runs the VF2-style matcher, returning up to `max_results` embeddings
/// (`None` = all).
pub fn vf2(cloud: &MemoryCloud, query: &QueryGraph, max_results: Option<usize>) -> ResultTable {
    let order = connected_search_order(query);
    let mut state = State {
        cloud,
        query,
        order: &order,
        assignment: vec![None; query.num_vertices()],
        used: Vec::new(),
        results: Vec::new(),
        max_results,
    };
    state.expand(0);
    table_from_assignments(query, &state.results)
}

struct State<'a> {
    cloud: &'a MemoryCloud,
    query: &'a QueryGraph,
    order: &'a [QVid],
    assignment: Vec<Option<VertexId>>,
    used: Vec<VertexId>,
    results: Vec<Vec<VertexId>>,
    max_results: Option<usize>,
}

impl<'a> State<'a> {
    fn expand(&mut self, depth: usize) {
        if let Some(limit) = self.max_results {
            if self.results.len() >= limit {
                return;
            }
        }
        if depth == self.order.len() {
            self.results.push(
                self.assignment
                    .iter()
                    .map(|a| a.expect("complete assignment"))
                    .collect(),
            );
            return;
        }
        let u = self.order[depth];
        let candidates = self.candidates_for(u, depth);
        for c in candidates {
            if self.feasible(u, c) {
                self.assignment[u.index()] = Some(c);
                self.used.push(c);
                self.expand(depth + 1);
                self.used.pop();
                self.assignment[u.index()] = None;
            }
        }
    }

    /// Candidate data vertices for query vertex `u` at search depth `depth`:
    /// neighbors of a mapped query-neighbor's image when one exists (the VF2
    /// "connected" candidate set), otherwise all vertices with the label.
    fn candidates_for(&self, u: QVid, depth: usize) -> Vec<VertexId> {
        let label = self.query.label(u);
        if depth > 0 {
            if let Some(mapped_neighbor) = self
                .query
                .neighbors(u)
                .find_map(|w| self.assignment[w.index()])
            {
                return self
                    .cloud
                    .neighbors_global(mapped_neighbor)
                    .iter()
                    .filter(|&d| self.cloud.label_of_global(d) == Some(label))
                    .collect();
            }
        }
        self.cloud.all_ids_with_label(label)
    }

    /// VF2 feasibility: `c` is unused, has the right label, is adjacent to
    /// every mapped neighbor of `u`, and has enough unmapped neighbors left
    /// to host `u`'s still-unmapped neighbors (1-look-ahead).
    fn feasible(&self, u: QVid, c: VertexId) -> bool {
        if self.used.contains(&c) {
            return false;
        }
        if self.cloud.label_of_global(c) != Some(self.query.label(u)) {
            return false;
        }
        let mut unmapped_query_neighbors = 0usize;
        for w in self.query.neighbors(u) {
            match self.assignment[w.index()] {
                Some(mapped) => {
                    if !self.cloud.has_edge_global(c, mapped) {
                        return false;
                    }
                }
                None => unmapped_query_neighbors += 1,
            }
        }
        // Look-ahead: c must have at least as many unused neighbors as u has
        // unmapped neighbors.
        if unmapped_query_neighbors > 0 {
            let free_neighbors = self
                .cloud
                .neighbors_global(c)
                .iter()
                .filter(|d| !self.used.contains(d))
                .count();
            if free_neighbors < unmapped_query_neighbors {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ullmann::ullmann;
    use stwig::verify::{canonical_rows, verify_all};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn sample_cloud() -> MemoryCloud {
        let mut b = GraphBuilder::default();
        for i in 0..4 {
            b.add_vertex(v(i), "x");
        }
        b.add_vertex(v(10), "y");
        b.add_vertex(v(11), "y");
        // 4-cycle of x plus two y pendants
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(3));
        b.add_edge(v(3), v(0));
        b.add_edge(v(0), v(10));
        b.add_edge(v(2), v(11));
        b.build(1, CostModel::free())
    }

    #[test]
    fn agrees_with_ullmann() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "x").unwrap();
        let b = qb.vertex_by_name(&cloud, "x").unwrap();
        let c = qb.vertex_by_name(&cloud, "y").unwrap();
        qb.edge(a, b).edge(a, c);
        let q = qb.build().unwrap();
        let r1 = vf2(&cloud, &q, None);
        let r2 = ullmann(&cloud, &q, None);
        assert_eq!(canonical_rows(&q, &r1), canonical_rows(&q, &r2));
        verify_all(&cloud, &q, &r1).unwrap();
        assert!(r1.num_rows() > 0);
    }

    #[test]
    fn cycle_query_on_cycle_graph() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let vs: Vec<QVid> = (0..4)
            .map(|_| qb.vertex_by_name(&cloud, "x").unwrap())
            .collect();
        qb.edge(vs[0], vs[1])
            .edge(vs[1], vs[2])
            .edge(vs[2], vs[3])
            .edge(vs[3], vs[0]);
        let q = qb.build().unwrap();
        let out = vf2(&cloud, &q, None);
        // A labeled 4-cycle has 8 automorphisms.
        assert_eq!(out.num_rows(), 8);
        verify_all(&cloud, &q, &out).unwrap();
    }

    #[test]
    fn result_limit() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "x").unwrap();
        let b = qb.vertex_by_name(&cloud, "x").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        assert_eq!(vf2(&cloud, &q, Some(3)).num_rows(), 3);
    }

    #[test]
    fn no_match_is_empty() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "y").unwrap();
        let b = qb.vertex_by_name(&cloud, "y").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        assert_eq!(vf2(&cloud, &q, None).num_rows(), 0);
    }
}
