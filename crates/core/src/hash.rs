//! Fast non-cryptographic hashing for the join hot path.
//!
//! The join step (§4.2 step 3) probes a hash index once per intermediate row,
//! so hasher throughput directly bounds join throughput. SipHash — the
//! DoS-resistant default of `std::collections::HashMap` — costs tens of
//! cycles per key; the keys here are vertex ids produced by graph
//! exploration, not attacker-controlled input, so we use an Fx-style
//! multiplicative hash (the scheme used by rustc's `FxHasher`): one rotate,
//! one xor and one multiply per 8-byte word. The hasher itself lives in
//! [`trinity_sim::hash`] — the overlay reads and update folds below this
//! crate use the same one — and is re-exported here under the names the join
//! code has always used.
//!
//! The module also provides `InlineKey`, a fixed-width stack-allocated join
//! key for the 2–4 shared-column case, so neither side of a hash join has to
//! heap-allocate a `Vec` per row (see [`crate::join`]).

pub use trinity_sim::hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
use trinity_sim::ids::VertexId;

/// A set of data vertices, as stored in binding sets and used to filter
/// candidates on the exploration hot path.
pub(crate) type VertexSet = FxHashSet<VertexId>;

/// Maximum number of shared columns an [`InlineKey`] can hold before the join
/// falls back to a heap-allocated key.
pub(crate) const INLINE_KEY_COLUMNS: usize = 4;

/// A fixed-width, stack-allocated join key for up to [`INLINE_KEY_COLUMNS`]
/// shared columns.
///
/// Unused slots are padded with a fixed filler value; within one join every
/// key has the same number of live slots, so padded positions always compare
/// equal and never affect the join result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct InlineKey([u64; INLINE_KEY_COLUMNS]);

impl InlineKey {
    /// Padding for unused slots. The value is irrelevant for correctness (all
    /// keys of one join pad the same positions); an improbable vertex id
    /// keeps padded and live slots visually distinct when debugging.
    const FILLER: u64 = u64::MAX;

    /// Builds a key from the values of `row` at `columns.len()` (≤ 4) column
    /// positions.
    #[inline]
    pub(crate) fn from_row(row: &[VertexId], columns: &[usize]) -> Self {
        debug_assert!(columns.len() <= INLINE_KEY_COLUMNS);
        let mut slots = [Self::FILLER; INLINE_KEY_COLUMNS];
        for (slot, &c) in slots.iter_mut().zip(columns.iter()) {
            *slot = row[c].0;
        }
        InlineKey(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_map_and_set_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let s: VertexSet = [VertexId(1), VertexId(2)].into_iter().collect();
        assert!(s.contains(&VertexId(1)));
        assert!(!s.contains(&VertexId(3)));
    }

    #[test]
    fn inline_key_compares_on_selected_columns() {
        let v = |x: u64| VertexId(x);
        let row_a = [v(1), v(2), v(3)];
        let row_b = [v(9), v(2), v(3)];
        // Keyed on columns 1 and 2 the rows agree; keyed on 0 they differ.
        assert_eq!(
            InlineKey::from_row(&row_a, &[1, 2]),
            InlineKey::from_row(&row_b, &[1, 2])
        );
        assert_ne!(
            InlineKey::from_row(&row_a, &[0]),
            InlineKey::from_row(&row_b, &[0])
        );
    }
}
