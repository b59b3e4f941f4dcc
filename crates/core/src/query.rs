//! Subgraph query representation (Definition 1 of the paper).
//!
//! A query is a small connected labeled graph; each query vertex carries a
//! label constraint. Query vertices are dense indices `0..n` wrapped in
//! [`QVid`]; labels are the data graph's interned [`LabelId`]s.

use crate::error::StwigError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use trinity_sim::ids::LabelId;
use trinity_sim::MemoryCloud;

/// Maximum number of vertices in a query graph. Queries in the paper have at
/// most 15 nodes; 64 leaves ample headroom while keeping the all-pairs
/// shortest-path work (O(n³)) negligible.
pub(crate) const MAX_QUERY_VERTICES: usize = 64;

/// A query-vertex identifier (dense index into the query graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QVid(pub u16);

impl QVid {
    /// The vertex index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for QVid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A connected, labeled query graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryGraph {
    labels: Vec<LabelId>,
    /// Human-readable names of the query vertices (defaults to the label
    /// name); used in diagnostics and result tables.
    names: Vec<String>,
    /// Sorted adjacency lists over query-vertex indices.
    adjacency: Vec<Vec<u16>>,
    /// Unordered edge list, each `(u, v)` with `u < v`.
    edges: Vec<(u16, u16)>,
}

impl QueryGraph {
    /// Starts building a query graph.
    pub fn builder() -> QueryGraphBuilder {
        QueryGraphBuilder::default()
    }

    /// Number of query vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of query edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Label constraint of query vertex `v`.
    #[inline]
    pub fn label(&self, v: QVid) -> LabelId {
        self.labels[v.index()]
    }

    /// Diagnostic name of query vertex `v`.
    pub fn name(&self, v: QVid) -> &str {
        &self.names[v.index()]
    }

    /// Neighbors of query vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: QVid) -> impl Iterator<Item = QVid> + '_ {
        self.adjacency[v.index()].iter().map(|&i| QVid(i))
    }

    /// Degree of query vertex `v`.
    #[inline]
    pub fn degree(&self, v: QVid) -> usize {
        self.adjacency[v.index()].len()
    }

    /// Whether query vertices `u` and `v` are adjacent.
    pub fn has_edge(&self, u: QVid, v: QVid) -> bool {
        self.adjacency[u.index()].binary_search(&v.0).is_ok()
    }

    /// Iterates over all query vertices.
    pub fn vertices(&self) -> impl Iterator<Item = QVid> {
        (0..self.labels.len() as u16).map(QVid)
    }

    /// Iterates over all query edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (QVid, QVid)> + '_ {
        self.edges.iter().map(|&(u, v)| (QVid(u), QVid(v)))
    }

    /// The label pairs realised by the query's edges (used to build the
    /// query-specific cluster graph of §5.3).
    pub fn label_edges(&self) -> Vec<(LabelId, LabelId)> {
        self.edges()
            .map(|(u, v)| (self.label(u), self.label(v)))
            .collect()
    }

    /// Whether the query graph is connected (considering all vertices).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(0u16);
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &w in &self.adjacency[u as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        count == n
    }

    /// All-pairs shortest-path distances between query vertices
    /// (Floyd–Warshall, as in §5.3). `u32::MAX` denotes unreachable; the
    /// diagonal is zero.
    pub fn all_pairs_distances(&self) -> Vec<Vec<u32>> {
        let n = self.num_vertices();
        let inf = u32::MAX;
        let mut d = vec![vec![inf; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0;
        }
        for &(u, v) in &self.edges {
            d[u as usize][v as usize] = 1;
            d[v as usize][u as usize] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                if d[i][k] == inf {
                    continue;
                }
                for j in 0..n {
                    if d[k][j] == inf {
                        continue;
                    }
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        d
    }
}

/// Incremental builder for [`QueryGraph`].
#[derive(Debug, Clone, Default)]
pub struct QueryGraphBuilder {
    labels: Vec<LabelId>,
    names: Vec<String>,
    edges: Vec<(u16, u16)>,
}

impl QueryGraphBuilder {
    /// Adds a query vertex with the given label id and returns its [`QVid`].
    pub fn vertex(&mut self, label: LabelId) -> QVid {
        let id = QVid(self.labels.len() as u16);
        self.labels.push(label);
        self.names.push(format!("{label}"));
        id
    }

    /// Adds a query vertex with a label id and an explicit diagnostic name.
    pub(crate) fn named_vertex(&mut self, label: LabelId, name: &str) -> QVid {
        let id = self.vertex(label);
        self.names[id.index()] = name.to_string();
        id
    }

    /// Adds a query vertex by label *name*, resolving it against a data
    /// graph's label interner.
    pub fn vertex_by_name(&mut self, cloud: &MemoryCloud, label: &str) -> Result<QVid, StwigError> {
        let id = cloud
            .labels()
            .get(label)
            .ok_or_else(|| StwigError::LabelNotFound(label.to_string()))?;
        Ok(self.named_vertex(id, label))
    }

    /// Adds an undirected query edge between two previously-added vertices.
    pub fn edge(&mut self, u: QVid, v: QVid) -> &mut Self {
        if u != v {
            let (a, b) = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
            self.edges.push((a, b));
        }
        self
    }

    /// Finalizes the query, validating connectivity and size limits.
    pub fn build(self) -> Result<QueryGraph, StwigError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(StwigError::EmptyQuery);
        }
        if n > MAX_QUERY_VERTICES {
            return Err(StwigError::TooManyVertices {
                got: n,
                max: MAX_QUERY_VERTICES,
            });
        }
        let mut edges = self.edges;
        for &(u, v) in &edges {
            if u as usize >= n || v as usize >= n {
                return Err(StwigError::InvalidQueryVertex(u.max(v) as usize));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut adjacency: Vec<Vec<u16>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        for a in &mut adjacency {
            a.sort_unstable();
        }
        let q = QueryGraph {
            labels: self.labels,
            names: self.names,
            adjacency,
            edges,
        };
        if n > 1 {
            // Single-vertex queries are allowed (they degenerate to a label
            // scan); larger queries must be connected and have no isolated
            // vertices so that every vertex is covered by some STwig.
            if let Some(v) = q.vertices().find(|&v| q.degree(v) == 0) {
                return Err(StwigError::IsolatedQueryVertex(v.index()));
            }
            if !q.is_connected() {
                return Err(StwigError::DisconnectedQuery);
            }
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    /// Builds the paper's Figure 4(a) query: a—b, a—c, b—c? No: the query is
    /// a—b, a—c, b—d, c—d, b—e, d—e, d—f, e—f (6 vertices). For unit tests we
    /// use a smaller 4-cycle with a chord.
    fn diamond() -> QueryGraph {
        let mut b = QueryGraph::builder();
        let a = b.vertex(l(0));
        let bb = b.vertex(l(1));
        let c = b.vertex(l(2));
        let d = b.vertex(l(3));
        b.edge(a, bb).edge(a, c).edge(bb, d).edge(c, d).edge(bb, c);
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let q = diamond();
        assert_eq!(q.num_vertices(), 4);
        assert_eq!(q.num_edges(), 5);
        assert_eq!(q.label(QVid(2)), l(2));
        assert_eq!(q.degree(QVid(1)), 3);
        assert!(q.has_edge(QVid(0), QVid(1)));
        assert!(!q.has_edge(QVid(0), QVid(3)));
        assert_eq!(q.vertices().count(), 4);
        assert_eq!(q.edges().count(), 5);
        assert_eq!(q.neighbors(QVid(0)).count(), 2);
    }

    #[test]
    fn label_edges_lists_pairs() {
        let q = diamond();
        let le = q.label_edges();
        assert_eq!(le.len(), 5);
        assert!(le.contains(&(l(0), l(1))));
    }

    #[test]
    fn connectivity_detection() {
        let q = diamond();
        assert!(q.is_connected());

        let mut b = QueryGraph::builder();
        let v0 = b.vertex(l(0));
        let v1 = b.vertex(l(1));
        let v2 = b.vertex(l(2));
        let v3 = b.vertex(l(3));
        b.edge(v0, v1).edge(v2, v3);
        assert_eq!(b.build().unwrap_err(), StwigError::DisconnectedQuery);
    }

    #[test]
    fn isolated_vertex_rejected() {
        let mut b = QueryGraph::builder();
        let v0 = b.vertex(l(0));
        let v1 = b.vertex(l(1));
        b.vertex(l(2)); // isolated
        b.edge(v0, v1);
        assert!(matches!(
            b.build().unwrap_err(),
            StwigError::IsolatedQueryVertex(2) | StwigError::DisconnectedQuery
        ));
    }

    #[test]
    fn single_vertex_query_is_allowed() {
        let mut b = QueryGraph::builder();
        b.vertex(l(0));
        let q = b.build().unwrap();
        assert_eq!(q.num_vertices(), 1);
        assert_eq!(q.num_edges(), 0);
    }

    #[test]
    fn empty_query_rejected() {
        assert_eq!(
            QueryGraph::builder().build().unwrap_err(),
            StwigError::EmptyQuery
        );
    }

    #[test]
    fn self_loops_and_duplicate_edges_ignored() {
        let mut b = QueryGraph::builder();
        let v0 = b.vertex(l(0));
        let v1 = b.vertex(l(1));
        b.edge(v0, v1).edge(v1, v0).edge(v0, v0);
        let q = b.build().unwrap();
        assert_eq!(q.num_edges(), 1);
    }

    #[test]
    fn invalid_edge_vertex_rejected() {
        let mut b = QueryGraph::builder();
        let v0 = b.vertex(l(0));
        b.vertex(l(1));
        b.edge(v0, QVid(9));
        assert_eq!(b.build().unwrap_err(), StwigError::InvalidQueryVertex(9));
    }

    #[test]
    fn too_many_vertices_rejected() {
        let mut b = QueryGraph::builder();
        let vs: Vec<QVid> = (0..(MAX_QUERY_VERTICES + 1))
            .map(|i| b.vertex(l(i as u32)))
            .collect();
        for w in vs.windows(2) {
            b.edge(w[0], w[1]);
        }
        assert!(matches!(
            b.build().unwrap_err(),
            StwigError::TooManyVertices { .. }
        ));
    }

    #[test]
    fn all_pairs_distances_on_path() {
        let mut b = QueryGraph::builder();
        let v: Vec<QVid> = (0..4).map(|i| b.vertex(l(i))).collect();
        b.edge(v[0], v[1]).edge(v[1], v[2]).edge(v[2], v[3]);
        let q = b.build().unwrap();
        let d = q.all_pairs_distances();
        assert_eq!(d[0][3], 3);
        assert_eq!(d[1][3], 2);
        assert_eq!(d[2][2], 0);
        assert_eq!(d[3][0], 3);
    }

    #[test]
    fn distances_on_diamond_use_shortcuts() {
        let q = diamond();
        let d = q.all_pairs_distances();
        // a(0) to d(3): via b or c, distance 2
        assert_eq!(d[0][3], 2);
        assert_eq!(d[1][2], 1); // chord
    }
}
