//! Edge-index join baseline (the RDF-3X / BitMat strategy of Table 1 row 2):
//! decompose the query into its individual edges, materialize a candidate
//! table per query edge from an edge index, and answer the query by joining
//! them level by level: each binary join materializes its whole output
//! before the next one reads it.
//!
//! This is the strategy §3 argues against for general subgraph matching: the
//! per-edge tables are large and the join does all the work. It serves both
//! as a correctness cross-check and as the comparison point for the
//! exploration-vs-join experiments. Each binary step is a two-table
//! [`pipelined_join`], so the baseline joins with the matcher's own probe;
//! what it keeps of its own is the materialized table between the steps.

use std::mem;
use stwig::config::{MatchConfig, ResultMode};
use stwig::join::select_join_order;
use stwig::metrics::JoinCounters;
use stwig::pipeline::pipelined_join;
use stwig::query::QueryGraph;
use stwig::table::ResultTable;
use trinity_sim::ids::LabelId;
use trinity_sim::MemoryCloud;

/// Statistics of an edge-join execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeJoinStats {
    /// Total rows materialized across all per-edge candidate tables.
    pub candidate_rows: u64,
    /// Binary joins performed: one per step of the level-by-level join, up
    /// to the step whose output was empty.
    pub joins_performed: u64,
    /// Rows produced by the binary joins, the last one's included.
    pub intermediate_rows: u64,
}

/// Runs the edge-join baseline, returning up to `max_results` embeddings and
/// the collected statistics.
pub fn edge_join(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    max_results: Option<usize>,
) -> (ResultTable, EdgeJoinStats) {
    let mut stats = EdgeJoinStats::default();

    // One candidate table per query edge.
    let mut tables: Vec<ResultTable> = Vec::with_capacity(query.num_edges());
    for (u, v) in query.edges() {
        let table = edge_candidates(cloud, query.label(u), query.label(v), u, v);
        stats.candidate_rows += table.num_rows() as u64;
        if table.is_empty() {
            // A query edge with no candidate means no match at all.
            let empty = ResultTable::new(query.vertices().collect());
            return (empty, stats);
        }
        tables.push(table);
    }

    let order = select_join_order(&tables, 64);
    let (&first, rest) = order.split_first().expect("a query with an edge");
    let limited = |limit: Option<usize>| MatchConfig {
        result_mode: limit.map_or(ResultMode::All, ResultMode::FirstK),
        ..MatchConfig::default()
    };
    let mut counters = JoinCounters::default();
    let mut acc = mem::take(&mut tables[first]);
    if rest.is_empty() {
        acc = pipelined_join(&[acc], &limited(max_results), &[0], &mut counters);
    }
    for (step, &ti) in rest.iter().enumerate() {
        // No limit on intermediate joins: a limit is only safe on the final
        // output (earlier truncation could drop rows that would survive).
        let limit = max_results.filter(|_| step + 1 == rest.len());
        let pair = [acc, mem::take(&mut tables[ti])];
        acc = pipelined_join(&pair, &limited(limit), &[0, 1], &mut counters);
        stats.joins_performed += 1;
        if acc.is_empty() {
            break;
        }
    }
    stats.intermediate_rows = counters.intermediate_rows;
    (acc, stats)
}

/// Materializes the candidate table of one query edge: every data edge whose
/// endpoint labels match `(label_u, label_v)` (in that orientation; the
/// reverse orientation is produced as a separate row since the query edge's
/// endpoints are distinct query vertices).
fn edge_candidates(
    cloud: &MemoryCloud,
    label_u: LabelId,
    label_v: LabelId,
    u: stwig::query::QVid,
    v: stwig::query::QVid,
) -> ResultTable {
    let mut table = ResultTable::new(vec![u, v]);
    // Scan from the rarer endpoint label.
    let (scan_label, other_label, swap) =
        if cloud.label_frequency(label_u) <= cloud.label_frequency(label_v) {
            (label_u, label_v, false)
        } else {
            (label_v, label_u, true)
        };
    for x in cloud.all_ids_with_label(scan_label) {
        for y in cloud.neighbors_global(x) {
            if x == y {
                continue;
            }
            if cloud.label_of_global(y) != Some(other_label) {
                continue;
            }
            if swap {
                table.push_row(&[y, x]);
            } else {
                table.push_row(&[x, y]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ullmann::ullmann;
    use stwig::verify::{canonical_rows, verify_all};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::ids::VertexId;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn sample_cloud() -> MemoryCloud {
        let mut b = GraphBuilder::default();
        for i in 0..5 {
            b.add_vertex(v(i), "a");
        }
        for i in 10..15 {
            b.add_vertex(v(i), "b");
        }
        for i in 20..23 {
            b.add_vertex(v(i), "c");
        }
        // bipartite-ish a-b edges plus b-c edges
        for i in 0..5u64 {
            b.add_edge(v(i), v(10 + i));
            b.add_edge(v(i), v(10 + (i + 1) % 5));
        }
        for i in 0..3u64 {
            b.add_edge(v(10 + i), v(20 + i));
        }
        b.build(2, CostModel::free())
    }

    #[test]
    fn agrees_with_ullmann_on_path_query() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let c = qb.vertex_by_name(&cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c);
        let q = qb.build().unwrap();
        let (ej, stats) = edge_join(&cloud, &q, None);
        let ull = ullmann(&cloud, &q, None);
        assert_eq!(canonical_rows(&q, &ej), canonical_rows(&q, &ull));
        verify_all(&cloud, &q, &ej).unwrap();
        assert!(stats.candidate_rows > 0);
        assert!(stats.joins_performed >= 1);
    }

    #[test]
    fn candidate_tables_are_larger_than_results() {
        // The motivating observation of §3: per-edge candidates are produced
        // "in vain" when they do not survive the join.
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let c = qb.vertex_by_name(&cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c);
        let q = qb.build().unwrap();
        let (result, stats) = edge_join(&cloud, &q, None);
        assert!(stats.candidate_rows as usize > result.num_rows());
    }

    #[test]
    fn missing_edge_label_short_circuits() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let c = qb.vertex_by_name(&cloud, "c").unwrap();
        qb.edge(a, c); // no a-c edges exist
        let q = qb.build().unwrap();
        let (result, stats) = edge_join(&cloud, &q, None);
        assert!(result.is_empty());
        assert_eq!(stats.joins_performed, 0);
    }

    #[test]
    fn an_empty_intermediate_join_ends_the_steps() {
        // Every b has one c neighbor, so b–c ⨝ b–c' keeps no injective row
        // and the a–b table is never joined.
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let c = qb.vertex_by_name(&cloud, "c").unwrap();
        let c2 = qb.vertex_by_name(&cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c).edge(b, c2);
        let q = qb.build().unwrap();
        let (result, stats) = edge_join(&cloud, &q, None);
        assert!(result.is_empty());
        assert_eq!(stats.joins_performed, 1);
        assert!(ullmann(&cloud, &q, None).is_empty());
    }

    #[test]
    fn result_limit_respected() {
        let cloud = sample_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        let (result, stats) = edge_join(&cloud, &q, Some(3));
        assert_eq!(result.num_rows(), 3);
        assert_eq!(stats.joins_performed, 0, "one edge, nothing to join");
    }
}
