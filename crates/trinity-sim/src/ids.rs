//! Strongly-typed identifiers used throughout the memory cloud.
//!
//! The paper works with three kinds of identifiers:
//!
//! * graph vertex IDs (64-bit, global across the whole cloud),
//! * text labels, which the "string index" maps to vertex IDs — we intern
//!   labels to dense 32-bit [`LabelId`]s once at load time,
//! * machine IDs, identifying a logical machine (partition) of the cloud.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A global vertex identifier, unique across the entire memory cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u64);

impl VertexId {
    /// Returns the raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VertexId {
    fn from(v: u64) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u64 {
    fn from(id: VertexId) -> Self {
        id.0
    }
}

/// An interned label identifier. Dense, starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Returns the raw 32-bit value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Returns the label id as a usize index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for LabelId {
    fn from(v: u32) -> Self {
        LabelId(v)
    }
}

/// Identifier of a logical machine (one partition of the memory cloud).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineId(pub u16);

impl MachineId {
    /// Returns the machine id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl From<u16> for MachineId {
    fn from(v: u16) -> Self {
        MachineId(v)
    }
}

/// Bidirectional mapping between label strings and dense [`LabelId`]s.
///
/// This is the only "index" the paper allows itself besides the per-machine
/// label → vertex-ID lists: its size is linear in the number of distinct
/// labels and it is built in a single pass over the input.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelInterner {
    by_name: HashMap<String, LabelId>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Interns `name`, returning its id. Idempotent.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.by_name.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Looks up a label id by name without interning.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of a label id, if it exists.
    pub fn name(&self, id: LabelId) -> Option<&str> {
        self.names.get(id.index()).map(|s| s.as_str())
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(LabelId, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from(42u64);
        assert_eq!(v.raw(), 42);
        assert_eq!(v.to_string(), "v42");
    }

    #[test]
    fn label_id_display_and_index() {
        let l = LabelId::from(7u32);
        assert_eq!(l.index(), 7);
        assert_eq!(l.to_string(), "l7");
    }

    #[test]
    fn machine_id_display() {
        let m = MachineId::from(3u16);
        assert_eq!(m.index(), 3);
        assert_eq!(m.to_string(), "M3");
    }

    #[test]
    fn interner_is_idempotent() {
        let mut i = LabelInterner::default();
        let a = i.intern("person");
        let b = i.intern("movie");
        let a2 = i.intern("person");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(a), Some("person"));
        assert_eq!(i.get("movie"), Some(b));
        assert_eq!(i.get("absent"), None);
    }

    #[test]
    fn interner_iteration_order_is_id_order() {
        let mut i = LabelInterner::default();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let collected: Vec<_> = i.iter().map(|(id, n)| (id.raw(), n.to_string())).collect();
        assert_eq!(
            collected,
            vec![
                (0, "a".to_string()),
                (1, "b".to_string()),
                (2, "c".to_string())
            ]
        );
    }

    #[test]
    fn empty_interner() {
        let i = LabelInterner::default();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.name(LabelId(0)), None);
    }
}
