//! Embedding verification: independent checking that returned matches really
//! are subgraph isomorphisms (Definition 2). Used by tests and by callers who
//! want a safety net around the matcher.

use crate::query::QueryGraph;
use crate::table::ResultTable;
use trinity_sim::ids::VertexId;
use trinity_sim::MemoryCloud;

/// Checks that a single row of a result table is a valid embedding of the
/// query: labels match, every query edge maps to a data edge, and the mapping
/// is injective. `columns` gives the query vertex of each row position.
pub(crate) fn is_valid_embedding(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    columns: &[crate::query::QVid],
    row: &[VertexId],
) -> bool {
    if columns.len() != row.len() || columns.len() != query.num_vertices() {
        return false;
    }
    // Injectivity.
    if ResultTable::row_has_duplicates(row) {
        return false;
    }
    // Build query-vertex → data-vertex map indexed by query vertex.
    let mut map = vec![None; query.num_vertices()];
    for (c, &val) in columns.iter().zip(row.iter()) {
        if map[c.index()].is_some() {
            return false; // duplicate column
        }
        map[c.index()] = Some(val);
    }
    if map.iter().any(|m| m.is_none()) {
        return false; // some query vertex unmapped
    }
    // Label constraints.
    for v in query.vertices() {
        let data = map[v.index()].unwrap();
        if cloud.label_of_global(data) != Some(query.label(v)) {
            return false;
        }
    }
    // Edge constraints.
    for (u, v) in query.edges() {
        let du = map[u.index()].unwrap();
        let dv = map[v.index()].unwrap();
        if !cloud.has_edge_global(du, dv) {
            return false;
        }
    }
    true
}

/// Verifies every row of a result table, returning the index of the first
/// invalid row if any.
pub fn verify_all(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    table: &ResultTable,
) -> Result<(), usize> {
    for (i, row) in table.rows().enumerate() {
        if !is_valid_embedding(cloud, query, table.columns(), row) {
            return Err(i);
        }
    }
    Ok(())
}

/// Canonicalizes a result table into a sorted list of embeddings keyed by
/// query-vertex index, so result sets from different matchers (whose column
/// orders differ) can be compared for equality.
pub fn canonical_rows(query: &QueryGraph, table: &ResultTable) -> Vec<Vec<VertexId>> {
    let mut out: Vec<Vec<VertexId>> = Vec::with_capacity(table.num_rows());
    for row in table.rows() {
        let mut canon = vec![VertexId(0); query.num_vertices()];
        for (c, &val) in table.columns().iter().zip(row.iter()) {
            canon[c.index()] = val;
        }
        out.push(canon);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Checks `got` against `want`, a reference answer to the same query under
/// the same result limit, as an *answer* rather than a table: the row counts
/// must agree; when the limit did not cut the answer short (fewer than
/// `limit` rows) the two hold the same embeddings, in whatever order; when
/// it did, which `limit` witnesses an executor returns is its own choice
/// (see [`crate::cache`], "What a served STwig contributes"), so every row
/// of `got` must be a valid embedding and none may repeat.
pub fn same_answer(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    got: &ResultTable,
    want: &ResultTable,
    limit: Option<usize>,
) -> Result<(), String> {
    if got.num_rows() != want.num_rows() {
        return Err(format!(
            "{} rows, reference has {}",
            got.num_rows(),
            want.num_rows()
        ));
    }
    let rows = canonical_rows(query, got);
    if limit.is_none_or(|l| got.num_rows() < l) {
        return if rows == canonical_rows(query, want) {
            Ok(())
        } else {
            Err("complete answers hold different embeddings".into())
        };
    }
    verify_all(cloud, query, got).map_err(|row| format!("row {row} is not an embedding"))?;
    if rows.len() != got.num_rows() {
        return Err("an embedding was returned twice".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QVid;
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn triangle_cloud() -> MemoryCloud {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_vertex(v(2), "b");
        b.add_vertex(v(3), "c");
        b.add_vertex(v(4), "b");
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(3));
        b.add_edge(v(3), v(1));
        b.add_edge(v(1), v(4));
        b.build(2, CostModel::free())
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
    fn valid_embedding_accepted() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        let cols = [QVid(0), QVid(1), QVid(2)];
        assert!(is_valid_embedding(&cloud, &q, &cols, &[v(1), v(2), v(3)]));
    }

    #[test]
    fn wrong_label_rejected() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        let cols = [QVid(0), QVid(1), QVid(2)];
        // v4 is labeled b, not c.
        assert!(!is_valid_embedding(&cloud, &q, &cols, &[v(1), v(2), v(4)]));
    }

    #[test]
    fn missing_edge_rejected() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        let cols = [QVid(0), QVid(1), QVid(2)];
        // v4 (label b) has no edge to v3 (label c).
        assert!(!is_valid_embedding(&cloud, &q, &cols, &[v(1), v(4), v(3)]));
    }

    #[test]
    fn non_injective_rejected() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        let cols = [QVid(0), QVid(1), QVid(2)];
        assert!(!is_valid_embedding(&cloud, &q, &cols, &[v(1), v(2), v(2)]));
    }

    #[test]
    fn wrong_arity_rejected() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        assert!(!is_valid_embedding(
            &cloud,
            &q,
            &[QVid(0), QVid(1)],
            &[v(1), v(2)]
        ));
    }

    #[test]
    fn verify_all_reports_first_bad_row() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        let mut t = ResultTable::new(vec![QVid(0), QVid(1), QVid(2)]);
        t.push_row(&[v(1), v(2), v(3)]);
        t.push_row(&[v(1), v(4), v(3)]);
        assert_eq!(verify_all(&cloud, &q, &t), Err(1));
        t.retain_rows(|row| row[1] == v(2));
        assert_eq!(verify_all(&cloud, &q, &t), Ok(()));
    }

    #[test]
    fn canonical_rows_reorders_columns() {
        let cloud = triangle_cloud();
        let q = triangle_query(&cloud);
        let mut t1 = ResultTable::new(vec![QVid(0), QVid(1), QVid(2)]);
        t1.push_row(&[v(1), v(2), v(3)]);
        let mut t2 = ResultTable::new(vec![QVid(2), QVid(0), QVid(1)]);
        t2.push_row(&[v(3), v(1), v(2)]);
        assert_eq!(canonical_rows(&q, &t1), canonical_rows(&q, &t2));
    }

    #[test]
    fn same_answer_compares_sets_until_the_limit_cuts() {
        let cloud = triangle_cloud();
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let q = qb.build().unwrap();
        let table = |rows: &[[u64; 2]]| {
            let mut t = ResultTable::new(vec![QVid(0), QVid(1)]);
            rows.iter().for_each(|r| t.push_row(&[v(r[0]), v(r[1])]));
            t
        };
        let want = table(&[[1, 2], [1, 4]]);
        // Complete answers: the same embeddings in any order.
        assert!(same_answer(&cloud, &q, &table(&[[1, 4], [1, 2]]), &want, None).is_ok());
        assert!(same_answer(&cloud, &q, &table(&[[1, 4], [1, 2]]), &want, Some(3)).is_ok());
        assert!(same_answer(&cloud, &q, &table(&[[1, 2], [1, 2]]), &want, None).is_err());
        assert!(same_answer(&cloud, &q, &table(&[[1, 2]]), &want, None).is_err());
        // Cut by the limit: any distinct valid witnesses.
        let first = table(&[[1, 2]]);
        assert!(same_answer(&cloud, &q, &table(&[[1, 4]]), &first, Some(1)).is_ok());
        assert!(same_answer(&cloud, &q, &table(&[[1, 3]]), &first, Some(1)).is_err());
        assert!(same_answer(&cloud, &q, &table(&[[1, 2], [1, 2]]), &want, Some(2)).is_err());
    }
}
