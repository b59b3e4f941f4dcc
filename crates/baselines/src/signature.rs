//! Neighborhood-signature index baseline (Table 1, group 4).
//!
//! GraphQL [He & Singh 2008] and Zhao & Han \[2010\] index, for every data
//! vertex, a summary of the labels found within radius `r`; query vertices
//! are pruned against these signatures before a backtracking search. The
//! index is effective but its size is `O(n · d^r)` and it must be rebuilt
//! around every updated vertex — exactly the super-linear cost the paper
//! argues makes such approaches infeasible on billion-node graphs.
//!
//! We implement the radius-1 variant: the signature of a vertex is the count
//! of each label among its direct neighbors. This is enough to reproduce the
//! Table-1 trade-off (index cost vs. query speed-up) at laptop scale.

use crate::common::{connected_search_order, table_from_assignments};
use std::collections::HashMap;
use stwig::query::{QVid, QueryGraph};
use stwig::table::ResultTable;
use trinity_sim::ids::{LabelId, VertexId};
use trinity_sim::MemoryCloud;

/// A per-vertex neighborhood signature: label → number of neighbors carrying
/// that label.
pub type Signature = HashMap<LabelId, u32>;

/// The radius-1 neighborhood-signature index.
#[derive(Debug, Clone, Default)]
pub struct SignatureIndex {
    signatures: HashMap<VertexId, Signature>,
}

impl SignatureIndex {
    /// Builds the index with one pass over every vertex's adjacency list
    /// (`O(n + m)` time, `O(n · distinct-neighbor-labels)` space — already
    /// noticeably heavier than the paper's label index, and growing with
    /// `d^r` for larger radii).
    pub fn build(cloud: &MemoryCloud) -> Self {
        let mut signatures = HashMap::new();
        for m in cloud.machines() {
            for cell in cloud.partition(m).iter_cells() {
                let mut sig: Signature = HashMap::new();
                for n in cell.neighbors {
                    if let Some(l) = cloud.label_of_global(n) {
                        *sig.entry(l).or_insert(0) += 1;
                    }
                }
                signatures.insert(cell.id, sig);
            }
        }
        SignatureIndex { signatures }
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let entries: usize = self.signatures.values().map(|s| s.len()).sum();
        self.signatures.len() * (std::mem::size_of::<VertexId>() + 48)
            + entries * (std::mem::size_of::<LabelId>() + std::mem::size_of::<u32>())
    }

    /// Whether data vertex `v` can host query vertex `u`: `v`'s neighborhood
    /// must contain at least as many vertices of each label as `u`'s query
    /// neighborhood requires.
    pub(crate) fn admits(&self, v: VertexId, query_signature: &Signature) -> bool {
        let Some(sig) = self.signatures.get(&v) else {
            return false;
        };
        query_signature
            .iter()
            .all(|(label, need)| sig.get(label).copied().unwrap_or(0) >= *need)
    }
}

/// The query-side signature of a query vertex: required label counts among
/// its query neighbors.
pub(crate) fn query_signature(query: &QueryGraph, u: QVid) -> Signature {
    let mut sig = Signature::new();
    for w in query.neighbors(u) {
        *sig.entry(query.label(w)).or_insert(0) += 1;
    }
    sig
}

/// Subgraph matching with signature-based pruning: candidates are label
/// matches whose neighborhood signature dominates the query vertex's
/// signature, followed by the same backtracking search as the other
/// baselines.
pub fn signature_match(
    cloud: &MemoryCloud,
    index: &SignatureIndex,
    query: &QueryGraph,
    max_results: Option<usize>,
) -> ResultTable {
    // Candidate lists with signature pruning.
    let candidates: Vec<Vec<VertexId>> = query
        .vertices()
        .map(|u| {
            let qsig = query_signature(query, u);
            cloud
                .all_ids_with_label(query.label(u))
                .into_iter()
                .filter(|&v| index.admits(v, &qsig))
                .collect()
        })
        .collect();

    let order = connected_search_order(query);
    let mut assignment: Vec<Option<VertexId>> = vec![None; query.num_vertices()];
    let mut results = Vec::new();
    backtrack(
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

#[allow(clippy::too_many_arguments)]
fn backtrack(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    order: &[QVid],
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
        results.push(assignment.iter().map(|a| a.unwrap()).collect());
        return;
    }
    let u = order[depth];
    'cand: for &c in &candidates[u.index()] {
        if assignment.iter().flatten().any(|&used| used == c) {
            continue;
        }
        for w in query.neighbors(u) {
            if let Some(mapped) = assignment[w.index()] {
                if !cloud.has_edge_global(c, mapped) {
                    continue 'cand;
                }
            }
        }
        assignment[u.index()] = Some(c);
        backtrack(
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
    use crate::ullmann::ullmann;
    use stwig::verify::{canonical_rows, verify_all};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn sample_cloud() -> MemoryCloud {
        let mut b = GraphBuilder::default();
        for i in 0..6 {
            b.add_vertex(v(i), "a");
        }
        for i in 10..16 {
            b.add_vertex(v(i), "b");
        }
        b.add_vertex(v(20), "c");
        for i in 0..6u64 {
            b.add_edge(v(i), v(10 + i));
        }
        b.add_edge(v(0), v(11));
        b.add_edge(v(0), v(20));
        b.add_edge(v(10), v(20));
        b.build(3, CostModel::free())
    }

    #[test]
    fn index_builds_for_every_vertex() {
        let cloud = sample_cloud();
        let idx = SignatureIndex::build(&cloud);
        assert_eq!(idx.len() as u64, cloud.num_vertices());
        assert!(!idx.is_empty());
        assert!(idx.memory_bytes() > 0);
        // vertex 0 has neighbors b,b,c
        let lb = cloud.labels().get("b").unwrap();
        let lc = cloud.labels().get("c").unwrap();
        let sig = &idx.signatures[&v(0)];
        assert_eq!(sig.get(&lb), Some(&2));
        assert_eq!(sig.get(&lc), Some(&1));
    }

    #[test]
    fn signature_pruning_is_sound_and_agrees_with_ullmann() {
        let cloud = sample_cloud();
        let idx = SignatureIndex::build(&cloud);
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b1 = qb.vertex_by_name(&cloud, "b").unwrap();
        let b2 = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b1).edge(a, b2);
        let q = qb.build().unwrap();
        let ours = signature_match(&cloud, &idx, &q, None);
        let reference = ullmann(&cloud, &q, None);
        assert_eq!(canonical_rows(&q, &ours), canonical_rows(&q, &reference));
        verify_all(&cloud, &q, &ours).unwrap();
        // Only vertex a0 has two b-neighbors, so there are exactly 2 ordered matches.
        assert_eq!(ours.num_rows(), 2);
    }

    #[test]
    fn signature_prunes_candidates() {
        let cloud = sample_cloud();
        let idx = SignatureIndex::build(&cloud);
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b1 = qb.vertex_by_name(&cloud, "b").unwrap();
        let b2 = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b1).edge(a, b2);
        let q = qb.build().unwrap();
        let qsig = query_signature(&q, a);
        // Only a0 has two b-neighbors; the other a-vertices are pruned.
        let admitted: Vec<_> = cloud
            .all_ids_with_label(q.label(a))
            .into_iter()
            .filter(|&x| idx.admits(x, &qsig))
            .collect();
        assert_eq!(admitted, vec![v(0)]);
    }

    #[test]
    fn index_is_heavier_than_the_string_index() {
        // The point of Table 1: the neighborhood index costs strictly more
        // memory than the graph's own label index because it stores per-vertex
        // label multisets.
        let cloud = sample_cloud();
        let idx = SignatureIndex::build(&cloud);
        let string_index_bytes: usize = cloud
            .machines()
            .map(|m| cloud.partition(m).num_vertices() * std::mem::size_of::<VertexId>())
            .sum();
        assert!(idx.memory_bytes() > string_index_bytes);
    }

    #[test]
    fn result_limit_respected() {
        let cloud = sample_cloud();
        let idx = SignatureIndex::build(&cloud);
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        let out = signature_match(&cloud, &idx, &q, Some(3));
        assert_eq!(out.num_rows(), 3);
    }
}
