//! Binding information (§4.2, step 2).
//!
//! After an STwig is processed, each of its query vertices becomes *bound*:
//! the set `H_v` of data vertices that matched it so far. Later STwigs use
//! these sets to restrict root candidates and filter children, which is the
//! exploration-side pruning that replaces most of the join work.

use crate::query::QVid;
use crate::table::ResultTable;
use trinity_sim::hash::FxHashSet;
use trinity_sim::ids::VertexId;

/// A set of data vertices, as stored in binding sets and used to filter
/// candidates on the exploration hot path.
pub(crate) type VertexSet = FxHashSet<VertexId>;

/// Per-query-vertex binding sets. `None` means the vertex is still unbound
/// (any data vertex with the right label is eligible).
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    sets: Vec<Option<VertexSet>>,
}

impl Bindings {
    /// Creates unbound bindings for a query with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Bindings {
            sets: vec![None; num_vertices],
        }
    }

    /// Whether query vertex `q` is bound.
    pub fn is_bound(&self, q: QVid) -> bool {
        self.sets[q.index()].is_some()
    }

    /// The binding set of `q`, if bound.
    pub fn get(&self, q: QVid) -> Option<&VertexSet> {
        self.sets[q.index()].as_ref()
    }

    /// Whether data vertex `v` is admissible for query vertex `q`
    /// (always true when `q` is unbound).
    #[inline]
    pub fn admits(&self, q: QVid, v: VertexId) -> bool {
        match &self.sets[q.index()] {
            None => true,
            Some(s) => s.contains(&v),
        }
    }

    /// Binds `q` to exactly `values` if unbound, or intersects the existing
    /// binding with `values` if already bound.
    pub(crate) fn bind(&mut self, q: QVid, values: VertexSet) {
        let slot = &mut self.sets[q.index()];
        match slot {
            None => *slot = Some(values),
            Some(existing) => existing.retain(|v| values.contains(v)),
        }
    }

    /// Updates bindings from the result table of one processed STwig: every
    /// column of the table binds (or narrows) its query vertex to the set of
    /// values appearing in that column.
    pub fn update_from_table(&mut self, table: &ResultTable) {
        for &col in table.columns() {
            let values = table.distinct_values(col);
            self.bind(col, values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }
    fn q(x: u16) -> QVid {
        QVid(x)
    }

    #[test]
    fn unbound_admits_everything() {
        let b = Bindings::new(3);
        assert!(!b.is_bound(q(0)));
        assert!(b.admits(q(0), v(42)));
    }

    #[test]
    fn bind_then_admit() {
        let mut b = Bindings::new(2);
        b.bind(q(0), [v(1), v(2)].into_iter().collect());
        assert!(b.is_bound(q(0)));
        assert!(b.admits(q(0), v(1)));
        assert!(!b.admits(q(0), v(3)));
        assert_eq!(b.get(q(0)).unwrap().len(), 2);
    }

    #[test]
    fn rebinding_intersects() {
        let mut b = Bindings::new(1);
        b.bind(q(0), [v(1), v(2), v(3)].into_iter().collect());
        b.bind(q(0), [v(2), v(3), v(4)].into_iter().collect());
        let s = b.get(q(0)).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&v(2)) && s.contains(&v(3)));
    }

    #[test]
    fn update_from_table_binds_columns() {
        let mut t = ResultTable::new(vec![q(0), q(1)]);
        t.push_row(&[v(10), v(20)]);
        t.push_row(&[v(11), v(20)]);
        let mut b = Bindings::new(3);
        b.update_from_table(&t);
        assert_eq!(b.get(q(0)).unwrap().len(), 2);
        assert_eq!(b.get(q(1)).unwrap().len(), 1);
        assert!(!b.is_bound(q(2)));
    }
}
