//! Intermediate result tables.
//!
//! The results of matching one STwig form a table whose columns are query
//! vertices and whose rows are data vertices. The join step (§4.2 step 3)
//! combines these tables into full embeddings.

use crate::bindings::VertexSet;
use crate::query::QVid;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use trinity_sim::ids::VertexId;

/// A table of partial matches: `columns[i]` names the query vertex whose data
/// vertex occupies position `i` of every row. Rows are stored flat.
///
/// `ResultTable::default()` has no columns yet: as a
/// [`crate::stream::ResultSink`] it takes the columns its stream announces.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultTable {
    columns: Vec<QVid>,
    /// Flattened rows, `columns.len()` entries per row.
    data: Vec<VertexId>,
}

impl ResultTable {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<QVid>) -> Self {
        debug_assert!(
            !columns.is_empty(),
            "a result table needs at least one column"
        );
        ResultTable {
            columns,
            data: Vec::new(),
        }
    }

    /// Creates an empty table with the given columns and a row-capacity hint.
    pub fn with_capacity(columns: Vec<QVid>, rows: usize) -> Self {
        let width = columns.len();
        ResultTable {
            columns,
            data: Vec::with_capacity(rows * width),
        }
    }

    /// The columns (query vertices) of this table.
    #[inline]
    pub fn columns(&self) -> &[QVid] {
        &self.columns
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        if self.columns.is_empty() {
            0
        } else {
            self.data.len() / self.columns.len()
        }
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Index of a query vertex among the columns, if present.
    pub(crate) fn column_index(&self, q: QVid) -> Option<usize> {
        self.columns.iter().position(|&c| c == q)
    }

    /// Appends a row; panics (debug) if the width does not match.
    #[inline]
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.data.extend_from_slice(row);
    }

    /// Returns row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[VertexId] {
        let w = self.width();
        &self.data[i * w..(i + 1) * w]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[VertexId]> {
        self.data.chunks_exact(self.width().max(1))
    }

    /// Distinct values appearing in the column for query vertex `q`.
    pub(crate) fn distinct_values(&self, q: QVid) -> VertexSet {
        match self.column_index(q) {
            None => VertexSet::default(),
            Some(c) => self.rows().map(|r| r[c]).collect(),
        }
    }

    /// Keeps only rows for which `keep` returns true.
    pub fn retain_rows<F: FnMut(&[VertexId]) -> bool>(&mut self, mut keep: F) {
        let w = self.width();
        let mut out = Vec::with_capacity(self.data.len());
        for r in self.data.chunks_exact(w) {
            if keep(r) {
                out.extend_from_slice(r);
            }
        }
        self.data = out;
    }

    /// Appends all rows of `other`, which must have identical columns.
    pub fn append(&mut self, other: &ResultTable) {
        assert_eq!(self.columns, other.columns, "column mismatch in append");
        self.data.extend_from_slice(&other.data);
    }

    /// Appends one row given in another column order: entry `i` of the new
    /// row is `row[projection[i]]`. One write per value, no intermediate
    /// buffer — how the executor lands a machine's join output (whose column
    /// order follows its join order) in a canonical-order table.
    #[inline]
    pub(crate) fn push_projected(&mut self, row: &[VertexId], projection: &[usize]) {
        debug_assert_eq!(projection.len(), self.columns.len());
        self.data.extend(projection.iter().map(|&p| row[p]));
    }

    /// Whether the rows are in ascending lexicographic order (duplicates
    /// allowed). Exploration emits rows in this order (sorted postings ×
    /// sorted adjacency); the STwig-result cache relies on it.
    pub(crate) fn rows_are_sorted(&self) -> bool {
        let mut prev: Option<&[VertexId]> = None;
        for row in self.rows() {
            if let Some(p) = prev {
                if p > row {
                    return false;
                }
            }
            prev = Some(row);
        }
        true
    }

    /// The same rows under other column names (same width), without a copy.
    /// The STwig-result cache files an explored table under positional
    /// placeholder names this way.
    pub(crate) fn with_columns(mut self, columns: Vec<QVid>) -> ResultTable {
        debug_assert_eq!(columns.len(), self.width());
        self.columns = columns;
        self
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<VertexId>()
            + self.columns.len() * std::mem::size_of::<QVid>()
    }

    /// Whether a row maps two different query vertices to the same data
    /// vertex (which a valid isomorphism forbids).
    pub fn row_has_duplicates(row: &[VertexId]) -> bool {
        // Rows are tiny (< 64 entries); quadratic scan beats hashing.
        for i in 1..row.len() {
            for j in 0..i {
                if row[i] == row[j] {
                    return true;
                }
            }
        }
        false
    }
}

/// A table the join reads in place: column names over an ordered list of
/// row runs, each a whole number of rows. Row `i` is the `i`-th row of the
/// runs laid end to end — the numbering their concatenation would have, so
/// an index built or a join order selected over one holds for the other.
///
/// Machine `k`'s R_k(q_t) (§4.3, Theorem 4) is one: its own table of STwig
/// `t` and then each of its load set's, every one lent from where it lies
/// (explored, or served by the cache under the cache's column names), and
/// under `Messages` the rows of a `JoinRows` envelope, moved in. A
/// [`ResultTable`] is a one-run table (`RowRuns::from`), so the join has one
/// build-side representation and one probe path.
pub(crate) struct RowRuns<'a> {
    columns: Cow<'a, [QVid]>,
    width: usize,
    /// The first run that has rows — all of them, for a one-run table — so
    /// a row there costs one compare to find.
    first: Cow<'a, [VertexId]>,
    first_rows: usize,
    /// Every later run, beside the number of the row after its last.
    rest: Vec<(usize, Cow<'a, [VertexId]>)>,
}

impl<'a> RowRuns<'a> {
    /// No rows yet, under `columns`.
    pub(crate) fn new(columns: Vec<QVid>) -> Self {
        debug_assert!(!columns.is_empty(), "a table needs at least one column");
        RowRuns {
            width: columns.len(),
            columns: Cow::Owned(columns),
            first: Cow::Borrowed(&[]),
            first_rows: 0,
            rest: Vec::new(),
        }
    }

    /// Lends `table`'s rows as the next run, whatever its columns are
    /// called; only the widths must agree (a cache-served table keeps the
    /// cache's placeholder names).
    pub(crate) fn lend(&mut self, table: &'a ResultTable) {
        assert_eq!(self.width, table.width(), "width mismatch in a row run");
        self.push(Cow::Borrowed(&table.data));
    }

    /// Takes `rows`, flat and `width` values a row, as the next run.
    pub(crate) fn take(&mut self, rows: Vec<VertexId>) {
        assert_eq!(rows.len() % self.width, 0, "a run of whole rows");
        self.push(Cow::Owned(rows));
    }

    fn push(&mut self, run: Cow<'a, [VertexId]>) {
        let rows = run.len() / self.width;
        if rows == 0 {
            return;
        }
        if self.first_rows == 0 {
            (self.first, self.first_rows) = (run, rows);
        } else {
            self.rest.push((self.num_rows() + rows, run));
        }
    }

    /// The same rows, every run borrowed from this one.
    pub(crate) fn view(&self) -> RowRuns<'_> {
        RowRuns {
            columns: Cow::Borrowed(&self.columns),
            width: self.width,
            first: Cow::Borrowed(&self.first),
            first_rows: self.first_rows,
            rest: (self.rest.iter())
                .map(|(end, run)| (*end, Cow::Borrowed(&**run)))
                .collect(),
        }
    }

    /// The columns (query vertices).
    pub(crate) fn columns(&self) -> &[QVid] {
        &self.columns
    }

    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.rest.last().map_or(self.first_rows, |&(end, _)| end)
    }

    /// Whether the table has no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.first_rows == 0
    }

    /// Index of a query vertex among the columns, if present.
    pub(crate) fn column_index(&self, q: QVid) -> Option<usize> {
        self.columns.iter().position(|&c| c == q)
    }

    /// Row `i`: one compare in the first run, and one more per run end
    /// passed after it. Always inlined: it is the probe's one look-up per
    /// matching row.
    #[inline(always)]
    pub(crate) fn row(&self, i: usize) -> &[VertexId] {
        let (run, at) = if i < self.first_rows {
            (&*self.first, i)
        } else {
            self.later(i)
        };
        &run[at * self.width..(at + 1) * self.width]
    }

    /// The later run holding row `i` and the row's place in it; past the
    /// last row, an empty run (the caller's slice then panics).
    #[inline(always)]
    fn later(&self, i: usize) -> (&[VertexId], usize) {
        let mut start = self.first_rows;
        for (end, run) in &self.rest {
            if i < *end {
                return (run, i - start);
            }
            start = *end;
        }
        (&[], i)
    }

    /// The runs, in row order (none empty).
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[VertexId]> {
        let first = (self.first_rows > 0).then_some(&*self.first);
        first
            .into_iter()
            .chain(self.rest.iter().map(|(_, run)| &**run))
    }

    /// Iterates over all rows.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[VertexId]> {
        let w = self.width;
        self.runs().flat_map(move |run| run.chunks_exact(w))
    }

    /// Bytes of the rows and the column names: what the table would hold
    /// were its runs one buffer.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.num_rows() * self.width * std::mem::size_of::<VertexId>()
            + self.width * std::mem::size_of::<QVid>()
    }
}

/// A table is a one-run table under its own names: nothing is copied.
impl<'a> From<&'a ResultTable> for RowRuns<'a> {
    fn from(table: &'a ResultTable) -> Self {
        RowRuns {
            columns: Cow::Borrowed(&table.columns),
            width: table.width(),
            first: Cow::Borrowed(&table.data),
            first_rows: table.num_rows(),
            rest: Vec::new(),
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

    fn sample() -> ResultTable {
        let mut t = ResultTable::new(vec![q(0), q(1)]);
        t.push_row(&[v(1), v(2)]);
        t.push_row(&[v(3), v(4)]);
        t.push_row(&[v(1), v(2)]);
        t
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.width(), 2);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(1), &[v(3), v(4)]);
        assert_eq!(t.column_index(q(1)), Some(1));
        assert_eq!(t.column_index(q(9)), None);
        assert!(!t.is_empty());
    }

    #[test]
    fn distinct_values_per_column() {
        let t = sample();
        let d0 = t.distinct_values(q(0));
        assert_eq!(d0.len(), 2);
        assert!(d0.contains(&v(1)));
        assert!(t.distinct_values(q(7)).is_empty());
    }

    #[test]
    fn retain_keeps_the_rows_asked_for() {
        let mut t = sample();
        t.retain_rows(|r| r[0] == v(1));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn append_and_rename() {
        let mut t = sample();
        let t2 = sample();
        t.append(&t2);
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t.row(5), t2.row(2));
        // Renamed in place: same rows.
        let renamed = sample().with_columns(vec![q(7), q(8)]);
        assert_eq!(renamed.columns(), &[q(7), q(8)]);
        assert!(renamed.rows().eq(t2.rows()));
    }

    #[test]
    fn row_runs_number_rows_like_their_concatenation() {
        let (a, b) = (sample(), sample().with_columns(vec![q(7), q(8)]));
        let empty = ResultTable::new(vec![q(0), q(1)]);
        let mut runs = RowRuns::new(vec![q(0), q(1)]);
        assert!(runs.is_empty());
        // Empty runs anywhere, one taken, one lent across names.
        runs.lend(&empty);
        runs.lend(&a);
        runs.lend(&empty);
        runs.take(vec![v(5), v(6)]);
        runs.lend(&b);
        let mut concatenated = a.clone();
        concatenated.push_row(&[v(5), v(6)]);
        b.rows().for_each(|row| concatenated.push_row(row));
        assert_eq!((runs.num_rows(), runs.runs().count()), (7, 3));
        assert!(runs.rows().eq(concatenated.rows()));
        assert!((0..7).all(|i| runs.row(i) == concatenated.row(i)));
        assert_eq!(runs.memory_bytes(), concatenated.memory_bytes());
        // Lent runs point at the rows they were lent: no copy.
        assert!(std::ptr::eq(runs.runs().next().unwrap(), &a.data[..]));
        let view = runs.view();
        assert!(view.rows().eq(runs.rows()) && view.columns() == runs.columns());
        // A table is one run under its own names.
        let one = RowRuns::from(&a);
        assert_eq!((one.columns(), one.num_rows()), (a.columns(), 3));
        assert!(one.rows().eq(a.rows()));
        assert!(RowRuns::from(&empty).runs().next().is_none());
    }

    #[test]
    fn row_duplicate_detection() {
        assert!(ResultTable::row_has_duplicates(&[v(1), v(2), v(1)]));
        assert!(!ResultTable::row_has_duplicates(&[v(1), v(2), v(3)]));
        assert!(!ResultTable::row_has_duplicates(&[v(1)]));
    }

    #[test]
    fn memory_grows_with_rows() {
        let empty = ResultTable::new(vec![q(0)]);
        let full = sample();
        assert!(full.memory_bytes() > empty.memory_bytes());
    }

    #[test]
    #[should_panic]
    fn append_with_mismatched_columns_panics() {
        let mut t = ResultTable::new(vec![q(0)]);
        let t2 = ResultTable::new(vec![q(1)]);
        t.append(&t2);
    }

    #[test]
    fn push_projected_reorders_columns() {
        let mut t = ResultTable::new(vec![q(0), q(1), q(2)]);
        t.push_row(&[v(1), v(2), v(3)]);
        // Source rows are in (q2, q0, q1) order.
        t.push_projected(&[v(30), v(10), v(20)], &[1, 2, 0]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1), &[v(10), v(20), v(30)]);
    }

    #[test]
    fn rows_are_sorted_is_lexicographic_and_allows_duplicates() {
        let mut t = ResultTable::new(vec![q(0), q(1)]);
        t.push_row(&[v(1), v(2)]);
        t.push_row(&[v(1), v(2)]);
        t.push_row(&[v(1), v(9)]);
        t.push_row(&[v(3), v(4)]);
        assert!(t.rows_are_sorted());
        t.push_row(&[v(3), v(1)]);
        assert!(!t.rows_are_sorted());
    }
}
