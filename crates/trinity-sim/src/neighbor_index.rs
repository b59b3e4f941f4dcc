//! The candidate-pruning index built next to the string index: per-vertex
//! neighborhood-label signatures.
//!
//! The paper's exploration phase visits every vertex carrying the STwig root
//! label and collects all of its neighbors before discovering that most roots
//! cannot satisfy the STwig's child labels. Following the neighboring-label
//! index of l2Match and the compact neighborhood signatures of CNI (see
//! PAPERS.md), [`NeighborLabelIndex`] stores a fixed-width bitset signature
//! of each local vertex's neighbor labels. A signature **over-approximates**
//! the neighbor-label set (hash collisions only set extra bits), so a
//! negative containment test is a proof that no match is rooted there —
//! pruning on it can never drop a true match.

use crate::ids::LabelId;
use serde::{Deserialize, Serialize};

/// Width of a neighborhood signature in bits. With at most 64 labels the
/// signature is exact; beyond that, labels share bits and the signature
/// degrades gracefully into a one-hash bloom filter (still sound: collisions
/// only *add* bits, never remove them).
pub const SIGNATURE_BITS: usize = 64;

/// Bytes each vertex pays for its signature.
pub const SIGNATURE_BYTES_PER_VERTEX: usize = SIGNATURE_BITS / 8;

/// The all-ones signature: claims every label is present among the
/// neighbors, so nothing is ever pruned on it. Used when a neighbor's label
/// is unknown at build time (the over-approximation must stay sound).
pub const FULL_SIGNATURE: u64 = u64::MAX;

/// The signature bit a label maps to.
#[inline]
pub fn label_bit(label: LabelId) -> u64 {
    1u64 << (label.index() % SIGNATURE_BITS)
}

/// The required-bits mask for a multiset of labels: a root whose signature
/// does not contain every bit cannot have all of these labels among its
/// neighbors.
pub fn required_mask(labels: impl IntoIterator<Item = LabelId>) -> u64 {
    labels.into_iter().fold(0u64, |m, l| m | label_bit(l))
}

/// Per-vertex neighborhood-label signatures for one partition, indexed by
/// local vertex position (the same dense position space as the partition's
/// CSR). Built in one pass next to [`crate::compact::CompactLabelIndex`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NeighborLabelIndex {
    sigs: Vec<u64>,
}

impl NeighborLabelIndex {
    /// Wraps precomputed signatures (one per local vertex, in local position
    /// order).
    pub fn from_signatures(sigs: Vec<u64>) -> Self {
        NeighborLabelIndex { sigs }
    }

    /// The signature of the vertex at local position `pos`, or `None` when
    /// the position is out of range.
    #[inline]
    pub fn signature(&self, pos: usize) -> Option<u64> {
        self.sigs.get(pos).copied()
    }

    /// Whether `signature` can cover `required` (every required bit set). A
    /// `false` answer proves some required label is absent from the
    /// neighborhood.
    #[inline]
    pub fn covers(signature: u64, required: u64) -> bool {
        signature & required == required
    }

    /// Number of signatures (local vertices).
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the index holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.sigs.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    #[test]
    fn label_bits_are_exact_below_width() {
        // With ≤ 64 labels every label owns a distinct bit.
        let bits: std::collections::HashSet<u64> = (0..SIGNATURE_BITS as u32)
            .map(|i| label_bit(l(i)))
            .collect();
        assert_eq!(bits.len(), SIGNATURE_BITS);
        // Beyond the width, labels wrap onto existing bits (collisions only
        // add bits — the over-approximation stays sound).
        assert_eq!(label_bit(l(64)), label_bit(l(0)));
    }

    #[test]
    fn covers_is_bitset_containment() {
        let sig = label_bit(l(1)) | label_bit(l(3));
        assert!(NeighborLabelIndex::covers(sig, label_bit(l(1))));
        assert!(NeighborLabelIndex::covers(sig, sig));
        assert!(!NeighborLabelIndex::covers(sig, label_bit(l(2))));
        // Everything covers the empty requirement; FULL covers everything.
        assert!(NeighborLabelIndex::covers(0, 0));
        assert!(NeighborLabelIndex::covers(FULL_SIGNATURE, u64::MAX));
    }

    #[test]
    fn required_mask_folds_child_labels() {
        let m = required_mask([l(0), l(2), l(0)]);
        assert_eq!(m, label_bit(l(0)) | label_bit(l(2)));
        assert_eq!(required_mask([]), 0);
    }

    #[test]
    fn signature_lookup_by_local_position() {
        let idx = NeighborLabelIndex::from_signatures(vec![0b1, 0b10, FULL_SIGNATURE]);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert_eq!(idx.signature(1), Some(0b10));
        assert_eq!(idx.signature(3), None);
        assert_eq!(idx.memory_bytes(), 3 * SIGNATURE_BYTES_PER_VERTEX);
    }
}
