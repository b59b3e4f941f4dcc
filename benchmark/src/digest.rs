//! Row count and order-independent hash of a result.

use crate::rng::row_hash;
use stwig::table::ResultTable;
use trinity_sim::ids::VertexId;

/// What is kept of an answer to compare later answers with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Rows delivered.
    pub rows: u64,
    /// Wrapping sum of the per-row hashes (rows in canonical column order).
    pub hash: u64,
}

impl Digest {
    fn add(&mut self, canonical_row: impl Iterator<Item = VertexId>) {
        self.rows += 1;
        self.hash = self
            .hash
            .wrapping_add(row_hash(canonical_row.map(VertexId::raw)));
    }

    /// Folds one row, given in canonical column order, in.
    pub fn add_row(&mut self, row: &[VertexId]) {
        self.add(row.iter().copied());
    }

    /// Digest of a materialized table, whatever its column order.
    pub fn of_table(table: &ResultTable) -> Digest {
        // `order[k]` is where query vertex `k` sits in a row.
        let mut order: Vec<usize> = (0..table.width()).collect();
        order.sort_by_key(|&c| table.columns()[c].index());
        let mut digest = Digest::default();
        for row in table.rows() {
            digest.add(order.iter().map(|&c| row[c]));
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stwig::query::QVid;

    #[test]
    fn digest_ignores_row_order_and_column_layout() {
        let v = VertexId;
        let mut a = ResultTable::new(vec![QVid(0), QVid(1)]);
        a.push_row(&[v(1), v(2)]);
        a.push_row(&[v(3), v(4)]);
        // Same embeddings, columns swapped and rows reversed.
        let mut b = ResultTable::new(vec![QVid(1), QVid(0)]);
        b.push_row(&[v(4), v(3)]);
        b.push_row(&[v(2), v(1)]);
        assert_eq!(Digest::of_table(&a), Digest::of_table(&b));
        let mut streamed = Digest::default();
        streamed.add_row(&[v(3), v(4)]);
        streamed.add_row(&[v(1), v(2)]);
        assert_eq!(streamed, Digest::of_table(&a));
        // A different embedding changes the hash at equal row count.
        let mut c = ResultTable::new(vec![QVid(0), QVid(1)]);
        c.push_row(&[v(1), v(2)]);
        c.push_row(&[v(4), v(3)]);
        assert_ne!(Digest::of_table(&a), Digest::of_table(&c));
    }
}
