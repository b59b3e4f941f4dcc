//! The workspace's one fast non-cryptographic hasher.
//!
//! SipHash — the DoS-resistant default of `std::collections::HashMap` — costs
//! tens of cycles per key. Every map keyed through this module holds vertex
//! ids, label ids or label pairs produced by graph construction and
//! exploration, not attacker-controlled input, so an Fx-style multiplicative
//! hash (the scheme used by rustc's `FxHasher`) is enough: one rotate, one
//! xor and one multiply per 8-byte word. The overlay reads of
//! [`crate::partition`], the fold maps of [`crate::epoch`] and the join hot
//! path of the `stwig` crate all use it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash: the 64-bit golden-ratio constant, which spreads
/// consecutive integers (the common shape of vertex ids) across buckets.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style multiplicative hasher: fast, deterministic and *not*
/// DoS-resistant. Use only for keys that are not attacker-controlled.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx_hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(fx_hash_of(&42u64), fx_hash_of(&42u64));
        assert_eq!(fx_hash_of(&"stwig"), fx_hash_of(&"stwig"));
    }

    #[test]
    fn nearby_keys_spread() {
        // Consecutive ids (the common case for generated graphs) must not
        // collapse into the same bucket pattern.
        let hashes: FxHashSet<u64> = (0u64..1000).map(|i| fx_hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        // Streams differing only in a sub-word tail must hash differently.
        assert_ne!(fx_hash_of(&[1u8, 2, 3]), fx_hash_of(&[1u8, 2, 4]));
        assert_ne!(fx_hash_of(&[0u8; 9]), fx_hash_of(&[0u8; 10]));
    }
}
