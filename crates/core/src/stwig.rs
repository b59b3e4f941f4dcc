//! STwig: the basic unit of graph access (§4.1).
//!
//! An STwig is a two-level tree `q = (r, L)`: a root query vertex and the set
//! of its children in the decomposition. A set of STwigs is an *STwig cover*
//! of the query when every query edge belongs to exactly one STwig
//! (Problem 1).

use crate::error::StwigError;
use crate::query::{QVid, QueryGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use trinity_sim::ids::LabelId;

/// A two-level tree query unit: a root query vertex and its children.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct STwig {
    /// The root query vertex.
    pub root: QVid,
    /// The child query vertices (each connected to the root by a query edge
    /// that this STwig covers). Non-empty.
    pub children: Vec<QVid>,
}

impl STwig {
    /// Creates an STwig with its children deduplicated and sorted by
    /// query-vertex id. That is *not* the canonical child order — the
    /// canonical one needs the query's labels and is the planner's:
    /// `STwig::sort_children_canonically`, applied by
    /// [`crate::decompose`] to every STwig it returns.
    pub fn new(root: QVid, mut children: Vec<QVid>) -> Self {
        children.sort_unstable();
        children.dedup();
        STwig { root, children }
    }

    /// Puts the children into canonical order: ascending
    /// `(label, query-vertex id)`. Exploration emits one column per child in
    /// `children` order, so an STwig in this order explores straight into
    /// the column and row order the cross-query cache stores
    /// ([`crate::cache`], "Key canonicalization") and a cached table can be
    /// served to it by copy.
    pub(crate) fn sort_children_canonically(&mut self, query: &QueryGraph) {
        self.children.sort_unstable_by_key(|&c| (query.label(c), c));
    }

    /// Whether the children are in canonical order (see
    /// `STwig::sort_children_canonically`). Every planner-produced STwig
    /// is; a hand-built one that is not is never offered to the cache.
    pub fn has_canonical_children(&self, query: &QueryGraph) -> bool {
        self.children
            .windows(2)
            .all(|w| (query.label(w[0]), w[0]) < (query.label(w[1]), w[1]))
    }

    /// All query vertices touched by this STwig (root first, then children).
    pub fn vertices(&self) -> impl Iterator<Item = QVid> + '_ {
        std::iter::once(self.root).chain(self.children.iter().copied())
    }

    /// The edges (root, child) covered by this STwig.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (QVid, QVid)> + '_ {
        self.children.iter().map(move |&c| (self.root, c))
    }

    /// The root label and child labels of this STwig against a query.
    pub(crate) fn labels(&self, query: &QueryGraph) -> (LabelId, Vec<LabelId>) {
        (
            query.label(self.root),
            self.children.iter().map(|&c| query.label(c)).collect(),
        )
    }
}

impl std::fmt::Display for STwig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "STwig({} -> [", self.root)?;
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "])")
    }
}

/// Validates that `stwigs` is an STwig cover of `query`: every query edge is
/// covered by exactly one STwig, and every STwig edge is a query edge.
pub fn validate_cover(query: &QueryGraph, stwigs: &[STwig]) -> Result<(), StwigError> {
    let mut covered: HashSet<(u16, u16)> = HashSet::new();
    for t in stwigs {
        if t.children.is_empty() {
            return Err(StwigError::Internal(format!(
                "STwig rooted at {} has no children",
                t.root
            )));
        }
        for (u, v) in t.edges() {
            if !query.has_edge(u, v) {
                return Err(StwigError::Internal(format!(
                    "STwig edge ({u}, {v}) is not a query edge"
                )));
            }
            let key = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
            if !covered.insert(key) {
                return Err(StwigError::Internal(format!(
                    "query edge ({u}, {v}) covered more than once"
                )));
            }
        }
    }
    if covered.len() != query.num_edges() {
        return Err(StwigError::Internal(format!(
            "cover misses {} query edges",
            query.num_edges() - covered.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_sim::ids::LabelId;

    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    fn square() -> QueryGraph {
        // 0-1, 1-2, 2-3, 3-0
        let mut b = QueryGraph::builder();
        let v: Vec<QVid> = (0..4).map(|i| b.vertex(l(i))).collect();
        b.edge(v[0], v[1])
            .edge(v[1], v[2])
            .edge(v[2], v[3])
            .edge(v[3], v[0]);
        b.build().unwrap()
    }

    #[test]
    fn stwig_canonical_form() {
        let t = STwig::new(QVid(0), vec![QVid(3), QVid(1), QVid(3)]);
        assert_eq!(t.children, vec![QVid(1), QVid(3)]);
        assert_eq!(t.vertices().count(), 3);
        assert_eq!(t.to_string(), "STwig(q0 -> [q1, q3])");
    }

    #[test]
    fn labels_against_query() {
        let q = square();
        let t = STwig::new(QVid(1), vec![QVid(0), QVid(2)]);
        let (root, children) = t.labels(&q);
        assert_eq!(root, l(1));
        assert_eq!(children, vec![l(0), l(2)]);
    }

    #[test]
    fn valid_cover_accepted() {
        let q = square();
        let cover = vec![
            STwig::new(QVid(0), vec![QVid(1), QVid(3)]),
            STwig::new(QVid(2), vec![QVid(1), QVid(3)]),
        ];
        assert!(validate_cover(&q, &cover).is_ok());
    }

    #[test]
    fn missing_edge_rejected() {
        let q = square();
        let cover = vec![STwig::new(QVid(0), vec![QVid(1), QVid(3)])];
        assert!(validate_cover(&q, &cover).is_err());
    }

    #[test]
    fn double_covered_edge_rejected() {
        let q = square();
        let cover = vec![
            STwig::new(QVid(0), vec![QVid(1), QVid(3)]),
            STwig::new(QVid(1), vec![QVid(0), QVid(2)]),
            STwig::new(QVid(3), vec![QVid(2)]),
        ];
        assert!(validate_cover(&q, &cover).is_err());
    }

    #[test]
    fn non_query_edge_rejected() {
        let q = square();
        let cover = vec![
            STwig::new(QVid(0), vec![QVid(2)]), // diagonal, not an edge
        ];
        assert!(validate_cover(&q, &cover).is_err());
    }

    #[test]
    fn empty_children_rejected() {
        let q = square();
        let cover = vec![STwig::new(QVid(0), vec![])];
        assert!(validate_cover(&q, &cover).is_err());
    }
}
