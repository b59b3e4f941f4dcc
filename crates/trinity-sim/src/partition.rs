//! One logical machine of the memory cloud: the vertices assigned to it,
//! their labels, their adjacency, and the local label index, stored in the
//! [`crate::compact`] representation.
//!
//! A partition is an immutable base (`PartitionBase`, behind an `Arc` so
//! epoch snapshots share untouched machines) plus an optional
//! `PartitionOverlay`: a materialized delta the epoch manager lays over the
//! base when the graph mutates. Every read method dispatches overlay-first,
//! so static partitions (no overlay) read the base alone.

use crate::compact::{
    CompactCsr, CompactCsrBuilder, CompactLabelIndex, IdIndex, Ids, LabelArray, Neighbors, Postings,
};
use crate::hash::FxHashMap;
use crate::ids::{LabelId, VertexId};
use crate::neighbor_index::NeighborLabelIndex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A vertex record as returned by `Cloud.Load`: the vertex's label and the
/// IDs of its neighbors (which may live on any machine). The neighbor run is
/// a zero-copy [`Neighbors`] view into the owning partition: the encoded
/// bytes of a base vertex, decoded on iteration, or an overlay's merged
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell<'a> {
    /// The vertex this cell describes.
    pub id: VertexId,
    /// The vertex's label.
    pub label: LabelId,
    /// Global IDs of all neighbors, sorted ascending.
    pub neighbors: Neighbors<'a>,
}

impl Cell<'_> {
    /// Copies this cell into an owned [`CellBuf`], detaching it from the
    /// partition it borrows. This is what crosses machine boundaries in a
    /// [`crate::transport::Transport`] reply: the requester receives a copy
    /// of the cell, never a borrow of the remote partition.
    pub(crate) fn to_buf(self) -> CellBuf {
        CellBuf {
            id: self.id,
            label: self.label,
            neighbors: self.neighbors.to_vec(),
        }
    }
}

/// An owned vertex record: the payload of a `Cloud.Load` reply shipped over
/// the transport. Unlike [`Cell`], it borrows nothing from the owning
/// partition, so a machine can keep it across supersteps and the sender's
/// partition stays private.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellBuf {
    /// The vertex this cell describes.
    pub id: VertexId,
    /// The vertex's label.
    pub label: LabelId,
    /// Global IDs of all neighbors, sorted ascending.
    pub neighbors: Vec<VertexId>,
}

impl CellBuf {
    /// Payload size of this cell on the wire, in bytes: the vertex id, the
    /// label, and one id per neighbor.
    pub(crate) fn wire_bytes(&self) -> u64 {
        8 + 4 + self.neighbors.len() as u64 * 8
    }
}

/// Per-partition resident bytes, broken down by storage component. Summed
/// over the cloud this is the "index size + graph size" the paper's Table 1
/// reports; the breakdown is what the `storage` experiment CSV emits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageBytes {
    /// Adjacency structure (byte offsets + encoded neighbor runs).
    pub adjacency: usize,
    /// Per-vertex label array (`LabelArray`): 1, 2 or 4 B a vertex as the
    /// interned label count is at most 256, at most 65,536, or more.
    pub labels: usize,
    /// Id mapping both ways, all of [`IdIndex::memory_bytes`]: nothing when
    /// the ids fill their strided range, a rank bitmap's words and ranks
    /// when the range has holes, else the local-index → global-id array
    /// plus the open-addressed slots.
    pub id_map: usize,
    /// The label → vertex-id string index.
    pub postings: usize,
    /// Per-vertex neighborhood-label signatures.
    pub signatures: usize,
}

impl StorageBytes {
    /// Total resident bytes across all components.
    pub fn total(&self) -> usize {
        self.adjacency + self.labels + self.id_map + self.postings + self.signatures
    }
}

impl std::ops::AddAssign for StorageBytes {
    fn add_assign(&mut self, rhs: StorageBytes) {
        self.adjacency += rhs.adjacency;
        self.labels += rhs.labels;
        self.id_map += rhs.id_map;
        self.postings += rhs.postings;
        self.signatures += rhs.signatures;
    }
}

/// The immutable storage of one logical machine: vertex ids, labels,
/// adjacency and indexes. Shared via `Arc` between the partitions of
/// successive epoch snapshots; never mutated after construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PartitionBase {
    /// Global ids of local vertices both ways; local-index order is
    /// ascending id.
    ids: IdIndex,
    /// Label of each local vertex, in local-index order, at the width the
    /// label count picked.
    labels: LabelArray,
    /// Adjacency of local vertices.
    adjacency: CompactCsr,
    /// Label → slots of `ids`.
    postings: CompactLabelIndex,
    /// Per-vertex neighborhood-label signatures, in local-index order.
    neighbor_index: NeighborLabelIndex,
}

impl PartitionBase {
    #[inline]
    fn local_of(&self, id: VertexId) -> Option<usize> {
        self.ids.local_of(id)
    }

    fn load(&self, id: VertexId) -> Option<Cell<'_>> {
        let local = self.local_of(id)?;
        Some(Cell {
            id,
            label: self.labels.get(local),
            neighbors: self.adjacency.neighbors(local),
        })
    }

    fn neighbors_of(&self, id: VertexId) -> Option<Neighbors<'_>> {
        self.local_of(id).map(|l| self.adjacency.neighbors(l))
    }

    fn label_of(&self, id: VertexId) -> Option<LabelId> {
        self.local_of(id).map(|l| self.labels.get(l))
    }

    fn degree_of(&self, id: VertexId) -> Option<usize> {
        self.local_of(id).map(|l| self.adjacency.degree(l))
    }

    fn owns(&self, id: VertexId) -> bool {
        self.local_of(id).is_some()
    }

    fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        match self.local_of(from) {
            Some(local) => self.adjacency.has_neighbor(local, to),
            None => false,
        }
    }

    fn signature_of(&self, id: VertexId) -> Option<u64> {
        self.neighbor_index.signature(self.local_of(id)?)
    }

    /// The cell of a merged-view vertex: overlay facets first, base position
    /// for the rest (an added vertex carries both facets in the overlay).
    fn merged_cell<'a>(&'a self, m: &Merged<'a>) -> Cell<'a> {
        let local = || m.local.expect("a vertex outside the base has every facet");
        Cell {
            id: m.id,
            label: match m.live.and_then(|live| live.label) {
                Some(label) => label,
                None => self.labels.get(local()),
            },
            neighbors: match m.live.and_then(|live| live.adj.as_deref()) {
                Some(list) => Neighbors::Slice(list),
                None => self.adjacency.neighbors(local()),
            },
        }
    }
}

/// What the overlay holds for one touched vertex that is alive: the facets
/// the updates changed. A `None` facet reads through to the base.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct LiveVertex {
    /// Label of an added or relabeled vertex.
    pub(crate) label: Option<LabelId>,
    /// Complete merged adjacency of an adjacency-touched vertex, sorted.
    pub(crate) adj: Option<Arc<[VertexId]>>,
    /// Exact signature of a signature-touched vertex.
    pub(crate) signature: Option<u64>,
}

/// The overlay's record of one touched vertex.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Touched {
    /// A base vertex removed since the base was sealed.
    Deleted,
    /// A vertex this machine owns in the merged view.
    Live(LiveVertex),
}

/// A materialized delta laid over an immutable [`PartitionBase`] by the
/// epoch manager (`crate::epoch`). Rather than merge lazily at read time,
/// the overlay stores the **fully merged** view of every touched vertex and
/// label, so a read is one probe of one map, then base fall-through; lists
/// sit behind `Arc`s, so a successor overlay copies pointers. The invariants
/// the epoch manager maintains are in DESIGN.md, "Overlay reads".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct PartitionOverlay {
    /// Every vertex an update touched since the base was sealed.
    pub(crate) vertices: FxHashMap<VertexId, Touched>,
    /// Vertices added since the base was sealed, sorted ascending.
    pub(crate) added: Vec<VertexId>,
    /// Complete merged posting list of every touched label.
    pub(crate) postings: FxHashMap<LabelId, Arc<[VertexId]>>,
    /// Merged vertex count for this machine.
    pub(crate) num_vertices: usize,
    /// Merged adjacency-entry count for this machine.
    pub(crate) num_edge_entries: usize,
    /// One bit per key of `vertices`, at `filter_bit`: a clear bit proves an
    /// id untouched without probing the map. Built by `publish`.
    filter: Vec<u64>,
    /// `64 - log2(filter bits)`.
    filter_shift: u32,
    /// `measure()` as of `publish`.
    bytes: StorageBytes,
}

impl PartitionOverlay {
    /// The live record of `id`, created empty if the overlay had none.
    pub(crate) fn live_mut(&mut self, id: VertexId) -> &mut LiveVertex {
        match self
            .vertices
            .entry(id)
            .or_insert_with(|| Touched::Live(LiveVertex::default()))
        {
            Touched::Live(live) => live,
            Touched::Deleted => unreachable!("update to deleted vertex {id}"),
        }
    }

    #[inline]
    fn filter_bit(&self, id: VertexId) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.filter_shift) as usize
    }

    /// What the overlay holds for `id`; `None` for an untouched vertex.
    #[inline]
    fn touched(&self, id: VertexId) -> Option<&Touched> {
        let bit = self.filter_bit(id);
        if self.filter.get(bit / 64)? >> (bit % 64) & 1 == 0 {
            return None;
        }
        self.vertices.get(&id)
    }

    /// Seals the overlay for reading: sorts the added run, rebuilds the
    /// filter (16 bits per touched vertex, a power of two) and sizes the maps.
    fn publish(mut self) -> Arc<Self> {
        self.added.sort_unstable();
        self.added.dedup();
        let bits = (self.vertices.len() * 16).next_power_of_two().max(64);
        self.filter_shift = 64 - bits.trailing_zeros();
        self.filter.clear();
        self.filter.resize(bits / 64, 0);
        for &id in self.vertices.keys() {
            let bit = self.filter_bit(id);
            self.filter[bit / 64] |= 1 << (bit % 64);
        }
        self.bytes = self.measure();
        Arc::new(self)
    }

    /// Rough resident bytes of the overlay's maps (hash overhead estimated
    /// at 16 bytes/entry), charged to the components they shadow.
    fn measure(&self) -> StorageBytes {
        let list = |len: usize| 16 + len * std::mem::size_of::<VertexId>();
        let mut bytes = StorageBytes {
            id_map: self.added.len() * 16 + self.filter.len() * 8,
            postings: self.postings.values().map(|l| list(l.len())).sum(),
            ..StorageBytes::default()
        };
        for touched in self.vertices.values() {
            match touched {
                Touched::Deleted => bytes.id_map += 16,
                Touched::Live(live) => {
                    bytes.labels += live.label.map_or(0, |_| 24);
                    bytes.adjacency += live.adj.as_ref().map_or(0, |l| list(l.len()));
                    bytes.signatures += live.signature.map_or(0, |_| 24);
                }
            }
        }
        bytes
    }
}

/// The data owned by a single logical machine: an `Arc`-shared immutable
/// base, plus the epoch manager's delta overlay when the graph has mutated
/// since the base was sealed. Cloning a partition clones two `Arc`s, so
/// epoch snapshots share all untouched storage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    base: Arc<PartitionBase>,
    overlay: Option<Arc<PartitionOverlay>>,
}

/// One vertex of the merged view: its base position when the base holds it,
/// and the overlay's record when an update touched it.
struct Merged<'a> {
    id: VertexId,
    local: Option<usize>,
    live: Option<&'a LiveVertex>,
}

/// Merge-iterates base vertex ids (minus deleted) with overlay-added ids;
/// both runs are sorted ascending and disjoint, so the merged run is too.
struct MergedIter<'a> {
    /// Base `(local, id)` pairs, ascending.
    base: std::iter::Peekable<std::iter::Enumerate<Ids<'a>>>,
    added: std::iter::Peekable<std::slice::Iter<'a, VertexId>>,
    overlay: Option<&'a PartitionOverlay>,
}

impl<'a> Iterator for MergedIter<'a> {
    type Item = Merged<'a>;

    fn next(&mut self) -> Option<Merged<'a>> {
        loop {
            let take_base = match (self.base.peek(), self.added.peek()) {
                (Some((_, b)), Some(a)) => b < *a,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            let (id, local) = if take_base {
                let (local, id) = self.base.next().expect("peeked");
                (id, Some(local))
            } else {
                (*self.added.next().expect("peeked"), None)
            };
            let live = match self.overlay.and_then(|o| o.touched(id)) {
                Some(Touched::Deleted) => continue,
                Some(Touched::Live(live)) => Some(live),
                None => None,
            };
            return Some(Merged { id, local, live });
        }
    }
}

impl Partition {
    /// Assembles a partition from components the streaming bulk loader (or
    /// a seal) has built in final form — id index built, labels,
    /// adjacency and signatures in its local order — and builds its string
    /// index. The only way a partition is built. Crate-internal: invariants
    /// are the caller's.
    pub(crate) fn from_encoded_parts(
        ids: IdIndex,
        labels: LabelArray,
        adjacency: CompactCsr,
        num_labels: usize,
        neighbor_index: NeighborLabelIndex,
    ) -> Self {
        debug_assert_eq!(ids.len(), labels.len());
        debug_assert_eq!(ids.len(), neighbor_index.len());
        Partition {
            base: Arc::new(PartitionBase {
                postings: CompactLabelIndex::build(&labels, num_labels, &ids),
                ids,
                labels,
                adjacency,
                neighbor_index,
            }),
            overlay: None,
        }
    }

    /// A partition sharing this one's base with `overlay` laid over it
    /// (`None` drops any existing overlay). Crate-internal: overlay
    /// invariants are the epoch manager's job.
    pub(crate) fn with_overlay(&self, overlay: Option<PartitionOverlay>) -> Partition {
        Partition {
            base: Arc::clone(&self.base),
            overlay: overlay.map(PartitionOverlay::publish),
        }
    }

    /// This partition with its overlay merged into a fresh base (itself
    /// when it has none), in one pass over the merged view: adjacency runs
    /// go into one buffer (a base run byte for byte), labels into an array
    /// as wide as `num_labels` — the interned count now, which an update may
    /// have grown past the old width — and signatures are carried over —
    /// the overlay keeps them exact (DESIGN.md, "Seal"), so nothing is
    /// recounted.
    pub(crate) fn sealed(&self, num_labels: usize) -> Partition {
        let Some(overlay) = self.overlay.as_deref() else {
            return self.clone();
        };
        let (base, n) = (&*self.base, overlay.num_vertices);
        let mut ids = Vec::with_capacity(n);
        let mut labels = LabelArray::with_capacity(num_labels, n);
        let mut signatures = Vec::with_capacity(n);
        let mut adjacency = CompactCsrBuilder::with_capacity(n);
        for m in self.merged() {
            let cell = base.merged_cell(&m);
            ids.push(cell.id);
            labels.push(cell.label);
            let carried = m.live.and_then(|live| live.signature);
            signatures.push(
                carried
                    .or_else(|| base.neighbor_index.signature(m.local?))
                    .expect("a vertex has a signature in the overlay or the base"),
            );
            adjacency.push_neighbors(cell.neighbors);
        }
        Partition::from_encoded_parts(
            IdIndex::build(ids),
            labels,
            adjacency.finish(),
            num_labels,
            NeighborLabelIndex::from_signatures(signatures),
        )
    }

    /// The overlay the next update batch builds on: a copy of this
    /// partition's — lists sit behind `Arc`s, so the copy is of pointers —
    /// or an empty one over the base.
    pub(crate) fn next_overlay(&self) -> PartitionOverlay {
        match self.overlay.as_deref() {
            Some(o) => o.clone(),
            None => PartitionOverlay {
                num_vertices: self.num_vertices(),
                num_edge_entries: self.num_edge_entries(),
                ..PartitionOverlay::default()
            },
        }
    }

    /// Whether this partition carries an unmerged delta overlay.
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// Number of vertices owned by this machine.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        match self.overlay.as_deref() {
            Some(o) => o.num_vertices,
            None => self.base.labels.len(),
        }
    }

    /// Number of adjacency entries stored locally.
    #[inline]
    pub fn num_edge_entries(&self) -> usize {
        match self.overlay.as_deref() {
            Some(o) => o.num_edge_entries,
            None => self.base.adjacency.num_entries(),
        }
    }

    /// What the overlay, if any, holds for `id`. `None` — always, on a
    /// static partition — sends the read to the base.
    #[inline]
    fn touched(&self, id: VertexId) -> Option<&Touched> {
        self.overlay.as_deref()?.touched(id)
    }

    /// Whether this machine owns vertex `id`.
    #[inline]
    pub(crate) fn owns(&self, id: VertexId) -> bool {
        match self.touched(id) {
            None => self.base.owns(id),
            Some(touched) => matches!(touched, Touched::Live(_)),
        }
    }

    /// Loads the cell of a locally-owned vertex. Returns `None` when the
    /// vertex is not owned by this machine.
    pub fn load(&self, id: VertexId) -> Option<Cell<'_>> {
        let live = match self.touched(id) {
            None => return self.base.load(id),
            Some(Touched::Deleted) => return None,
            Some(Touched::Live(live)) => live,
        };
        Some(Cell {
            id,
            label: match live.label {
                Some(label) => label,
                None => self.base.label_of(id)?,
            },
            neighbors: match live.adj.as_deref() {
                Some(list) => Neighbors::Slice(list),
                None => self.base.neighbors_of(id)?,
            },
        })
    }

    /// Label of a locally-owned vertex.
    pub fn label_of(&self, id: VertexId) -> Option<LabelId> {
        match self.touched(id) {
            None => self.base.label_of(id),
            Some(Touched::Deleted) => None,
            Some(Touched::Live(live)) => live.label.or_else(|| self.base.label_of(id)),
        }
    }

    /// Degree of a locally-owned vertex.
    pub fn degree_of(&self, id: VertexId) -> Option<usize> {
        match self.touched(id) {
            None => self.base.degree_of(id),
            Some(Touched::Deleted) => None,
            Some(Touched::Live(live)) => match live.adj.as_deref() {
                Some(list) => Some(list.len()),
                None => self.base.degree_of(id),
            },
        }
    }

    /// Local vertices with the given label (the paper's `Index.getID`,
    /// restricted to this machine), sorted ascending. The [`Postings`] view
    /// decodes lazily; labels the overlay touched hand out their pre-merged
    /// list.
    #[inline]
    pub fn vertices_with_label(&self, label: LabelId) -> Postings<'_> {
        match self.overlay.as_deref() {
            None => self.base.postings.get(label, &self.base.ids),
            Some(o) => match o.postings.get(&label) {
                Some(list) => Postings::Slice(list),
                None => self.base.postings.get(label, &self.base.ids),
            },
        }
    }

    /// Number of local vertices with the given label.
    #[inline]
    pub fn label_frequency(&self, label: LabelId) -> usize {
        match self.overlay.as_deref() {
            None => self.base.postings.frequency(label),
            Some(o) => match o.postings.get(&label) {
                Some(list) => list.len(),
                None => self.base.postings.frequency(label),
            },
        }
    }

    /// Whether a locally-owned vertex has a given neighbor.
    pub(crate) fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        match self.touched(from) {
            // A deleted `to` forces `from` into the overlay with its merged
            // list (overlay invariant), so base fall-through never sees a
            // stale edge to a removed vertex.
            None => self.base.has_edge(from, to),
            Some(Touched::Deleted) => false,
            Some(Touched::Live(live)) => match live.adj.as_deref() {
                Some(list) => list.binary_search(&to).is_ok(),
                None => self.base.has_edge(from, to),
            },
        }
    }

    fn merged(&self) -> MergedIter<'_> {
        let overlay = self.overlay.as_deref();
        MergedIter {
            base: self.base.ids.iter().enumerate().peekable(),
            added: overlay.map_or(&[][..], |o| &o.added).iter().peekable(),
            overlay,
        }
    }

    /// Iterates over all locally-owned vertices in ascending-id order.
    pub fn iter_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.merged().map(|m| m.id)
    }

    /// Iterates over `(vertex, label, neighbors)` of every local vertex, in
    /// ascending-id order. Base positions advance with the merge, so no id
    /// is looked up — on a static partition this is a walk of the id
    /// index's slots beside the arrays.
    pub fn iter_cells(&self) -> impl Iterator<Item = Cell<'_>> {
        self.merged().map(|m| self.base.merged_cell(&m))
    }

    /// The neighborhood-label signature of a locally-owned vertex, or
    /// `None` when the vertex is not owned here.
    #[inline]
    pub fn signature_of(&self, id: VertexId) -> Option<u64> {
        match self.touched(id) {
            None => self.base.signature_of(id),
            Some(Touched::Deleted) => None,
            Some(Touched::Live(live)) => live.signature.or_else(|| self.base.signature_of(id)),
        }
    }

    /// Resident bytes of this partition, broken down by storage component.
    pub fn storage_bytes(&self) -> StorageBytes {
        let base = &self.base;
        let mut bytes = StorageBytes {
            adjacency: base.adjacency.memory_bytes(),
            labels: base.labels.memory_bytes(),
            id_map: base.ids.memory_bytes(),
            postings: base.postings.memory_bytes(),
            signatures: base.neighbor_index.memory_bytes(),
        };
        if let Some(o) = self.overlay.as_deref() {
            debug_assert_eq!(o.bytes, o.measure(), "overlay changed after publish");
            bytes += o.bytes;
        }
        bytes
    }

    /// Approximate memory footprint of this partition in bytes (the total
    /// of [`Partition::storage_bytes`]).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.storage_bytes().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }
    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    /// A partition over ascending `ids` with their labels and sorted
    /// neighbour runs, built through `from_encoded_parts` as the loader
    /// builds one. A signature is the OR of the label bits of the
    /// neighbours among `ids`; one outside them adds none.
    fn encoded(
        ids: Vec<VertexId>,
        labels: Vec<LabelId>,
        runs: &[&[VertexId]],
        num_labels: usize,
    ) -> Partition {
        use crate::neighbor_index::label_bit;
        let mut adjacency = CompactCsrBuilder::with_capacity(ids.len());
        let mut signatures = Vec::with_capacity(ids.len());
        for run in runs {
            adjacency.push_run(run);
            let local = run.iter().filter_map(|n| ids.iter().position(|id| id == n));
            signatures.push(local.fold(0, |sig, i| sig | label_bit(labels[i])));
        }
        Partition::from_encoded_parts(
            IdIndex::build(ids),
            LabelArray::from_labels(num_labels, &labels),
            adjacency.finish(),
            num_labels,
            NeighborLabelIndex::from_signatures(signatures),
        )
    }

    fn sample_partition() -> Partition {
        // vertices 10 (label 0), 20 (label 1), 30 (label 0); v(99) is a
        // phantom remote neighbour
        encoded(
            vec![v(10), v(20), v(30)],
            vec![l(0), l(1), l(0)],
            &[&[v(20), v(99)], &[v(10)], &[]],
            2,
        )
    }

    #[test]
    fn load_local_cell() {
        let p = sample_partition();
        let cell = p.load(v(10)).unwrap();
        assert_eq!(cell.label, l(0));
        assert_eq!(cell.neighbors, &[v(20), v(99)]);
        assert!(p.load(v(99)).is_none());
    }

    #[test]
    fn label_lookup() {
        let p = sample_partition();
        assert_eq!(p.vertices_with_label(l(0)), &[v(10), v(30)]);
        assert_eq!(p.vertices_with_label(l(1)), &[v(20)]);
        assert_eq!(p.label_frequency(l(0)), 2);
        assert_eq!(p.label_of(v(20)), Some(l(1)));
        assert_eq!(p.label_of(v(77)), None);
    }

    #[test]
    fn edge_and_degree_queries() {
        let p = sample_partition();
        assert!(p.has_edge(v(10), v(99)));
        assert!(!p.has_edge(v(10), v(30)));
        assert!(!p.has_edge(v(77), v(10)));
        assert_eq!(p.degree_of(v(10)), Some(2));
        assert_eq!(p.degree_of(v(30)), Some(0));
    }

    #[test]
    fn ownership_and_iteration() {
        let p = sample_partition();
        assert!(p.owns(v(10)));
        assert!(!p.owns(v(11)));
        let ids: Vec<_> = p.iter_vertices().collect();
        assert_eq!(ids, vec![v(10), v(20), v(30)]);
        assert_eq!(p.iter_cells().count(), 3);
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.num_edge_entries(), 3);
    }

    #[test]
    fn storage_bytes_breakdown_sums_to_total() {
        let p = sample_partition();
        let b = p.storage_bytes();
        assert_eq!(b.total(), p.memory_bytes());
        assert!(b.adjacency > 0);
        assert!(b.labels > 0);
        assert!(b.id_map > 0);
        assert_eq!(b.signatures, 8 * 3, "one 8-byte signature a vertex");
    }

    #[test]
    fn dense_ids_cost_at_most_one_byte_a_vertex() {
        // Every fourth id: one residue class modulo a power of two that
        // fills its range, so the index is the range alone, at 0 B.
        let n = 4096usize;
        let ids: Vec<VertexId> = (0..n as u64).map(|i| v(i * 4 + 1)).collect();
        let p = encoded(ids.clone(), vec![l(0); n], &vec![&[][..]; n], 1);
        assert_eq!(p.storage_bytes().id_map, 0);
        assert!(matches!(p.base.ids, IdIndex::Full { shift: 2, .. }));
        // One label byte a vertex under 257 labels.
        assert_eq!(p.storage_bytes().labels, n);
        // With one id missing, or every third id (a stride no shift
        // expresses), a rank bitmap holds them at 12 B per 64 slots.
        let holed: Vec<VertexId> = ids.into_iter().filter(|&id| id != v(301)).collect();
        let thirds: Vec<VertexId> = (0..n as u64).map(|i| v(i * 3)).collect();
        for ids in [holed, thirds] {
            let len = ids.len();
            let p = encoded(ids, vec![l(0); len], &vec![&[][..]; len], 1);
            let id_map = p.storage_bytes().id_map;
            assert!(id_map <= len, "id map {id_map} B for {len} vertices");
            assert!(matches!(p.base.ids, IdIndex::Ranked { .. }));
        }
    }

    #[test]
    fn sparse_ids_cost_at_most_half_a_hash_map() {
        // A `HashMap<VertexId, u32>` costs key + value + ~8 bytes of bucket
        // overhead, 20 bytes an entry; ids too sparse for a bitmap keep
        // their array, and the slot array must cost half that.
        let n = 4096usize;
        let ids: Vec<VertexId> = (0..n as u64).map(|i| v(i * 1_000_003 + i % 7)).collect();
        let p = encoded(ids, vec![l(0); n], &vec![&[][..]; n], 1);
        let IdIndex::Hashed { map, .. } = &p.base.ids else {
            panic!("sparse ids must take the hashed arm");
        };
        let slots = map.memory_bytes();
        assert_eq!(
            p.storage_bytes().id_map,
            n * std::mem::size_of::<VertexId>() + slots
        );
        let hash_map = n * (std::mem::size_of::<VertexId>() + std::mem::size_of::<u32>() + 8);
        assert!(slots * 2 <= hash_map, "id map {slots} vs {hash_map}");
    }

    /// A hand-built overlay: delete v(30), add v(40) with label 1 and edge
    /// 20–40, so the merged view is {10: l0 ~ 20,99}, {20: l1 ~ 10,40},
    /// {40: l1 ~ 20}.
    fn overlaid_partition() -> Partition {
        let base = sample_partition();
        let mut overlay = PartitionOverlay {
            num_vertices: 3,
            num_edge_entries: 4,
            ..PartitionOverlay::default()
        };
        overlay.vertices.insert(v(30), Touched::Deleted);
        overlay.added.push(v(40));
        *overlay.live_mut(v(40)) = LiveVertex {
            label: Some(l(1)),
            adj: Some([v(20)].into()),
            signature: None,
        };
        overlay.live_mut(v(20)).adj = Some([v(10), v(40)].into());
        overlay.postings.insert(l(0), [v(10)].into());
        overlay.postings.insert(l(1), [v(20), v(40)].into());
        base.with_overlay(Some(overlay))
    }

    #[test]
    fn overlay_shadows_base_reads() {
        let p = overlaid_partition();
        assert!(p.has_overlay());
        // Deleted vertex vanishes from every surface.
        assert!(!p.owns(v(30)));
        assert!(p.load(v(30)).is_none());
        assert_eq!(p.label_of(v(30)), None);
        assert_eq!(p.degree_of(v(30)), None);
        // Added vertex is fully readable.
        assert!(p.owns(v(40)));
        assert_eq!(p.label_of(v(40)), Some(l(1)));
        assert_eq!(p.load(v(40)).unwrap().neighbors, &[v(20)]);
        // Touched vertex serves the merged adjacency; untouched vertex
        // falls through to the base.
        assert_eq!(p.load(v(20)).unwrap().neighbors, &[v(10), v(40)]);
        assert!(p.has_edge(v(20), v(40)));
        assert!(!p.has_edge(v(40), v(99)));
        assert_eq!(p.load(v(10)).unwrap().neighbors, &[v(20), v(99)]);
        // Postings and counts reflect the merge.
        assert_eq!(p.vertices_with_label(l(0)).to_vec(), vec![v(10)]);
        assert_eq!(p.vertices_with_label(l(1)).to_vec(), vec![v(20), v(40)]);
        assert_eq!(p.label_frequency(l(1)), 2);
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.num_edge_entries(), 4);
        // Iteration merges deleted-out base ids with added ids, sorted.
        let ids: Vec<_> = p.iter_vertices().collect();
        assert_eq!(ids, vec![v(10), v(20), v(40)]);
        let cells: Vec<_> = p.iter_cells().map(|c| c.id).collect();
        assert_eq!(cells, vec![v(10), v(20), v(40)]);
    }

    #[test]
    fn overlay_shares_base_storage() {
        let base = sample_partition();
        let overlaid = base.with_overlay(Some(PartitionOverlay {
            num_vertices: base.num_vertices(),
            num_edge_entries: base.num_edge_entries(),
            ..PartitionOverlay::default()
        }));
        assert!(Arc::ptr_eq(&base.base, &overlaid.base));
        // Dropping the overlay again restores the exact base view.
        let restored = overlaid.with_overlay(None);
        assert!(!restored.has_overlay());
        assert_eq!(
            restored.iter_vertices().collect::<Vec<_>>(),
            base.iter_vertices().collect::<Vec<_>>()
        );
    }

    /// The six per-vertex reads of an overlaid partition against its sealed
    /// successor, for every kind of id: touched (adjacency, label), its
    /// untouched neighbours, deleted, added, deleted-then-re-added, never
    /// existing — and, of the untouched and the never-existing, ids whose
    /// filter bit is set by somebody else's key, which must still read
    /// through to the base.
    #[test]
    fn overlay_reads_agree_with_the_sealed_successor_for_every_kind_of_id() {
        use crate::builder::GraphBuilder;
        use crate::epoch::{GraphEpochs, UpdateBatch};
        use crate::network::CostModel;
        const BASE: u64 = 600;
        let mut b = GraphBuilder::default();
        for i in 0..BASE {
            b.add_vertex(v(i), ["a", "b", "c"][(i % 3) as usize]);
        }
        for i in 0..BASE {
            b.add_edge(v(i), v((i + 1) % BASE));
            b.add_edge(v(i), v((i * 7 + 3) % BASE));
        }
        let epochs = GraphEpochs::new(b.build(1, CostModel::default()));
        let batches = [
            UpdateBatch::new().remove_vertex(v(5)).remove_vertex(v(7)),
            UpdateBatch::new()
                .add_vertex(v(7), "c")
                .add_edge(v(7), v(300))
                .add_vertex(v(1_000), "d")
                .add_edge(v(1_000), v(10))
                .add_vertex(v(20), "a")
                .remove_edge(v(30), v(31))
                .add_edge(v(40), v(50)),
        ];
        for batch in &batches {
            epochs.apply(batch).unwrap();
        }
        let snap = epochs.pin();
        let overlaid = &snap.partitions[0];
        let overlay = overlaid.overlay.as_deref().expect("the batches touched it");
        let sealed = overlaid.sealed(snap.labels().len());
        assert!(!sealed.has_overlay());

        let set_bits: HashSet<usize> = overlay
            .vertices
            .keys()
            .map(|&id| overlay.filter_bit(id))
            .collect();
        let collides = |id: &VertexId| {
            !overlay.vertices.contains_key(id) && set_bits.contains(&overlay.filter_bit(*id))
        };
        let colliding_base: Vec<VertexId> = (0..BASE).map(v).filter(collides).collect();
        let colliding_absent: Vec<VertexId> =
            (2_000..12_000).map(v).filter(collides).take(8).collect();
        assert!(!colliding_base.is_empty() && !colliding_absent.is_empty());
        for id in &colliding_base {
            assert!(overlay.touched(*id).is_none() && overlaid.owns(*id));
        }

        // deleted, re-added, added, relabelled, adjacency-touched (and
        // the neighbours of every one of them), untouched, never existing.
        let mut probes = vec![v(5), v(7), v(1_000), v(20), v(30), v(31), v(40), v(50)];
        probes.extend([
            v(4),
            v(6),
            v(8),
            v(300),
            v(10),
            v(19),
            v(21),
            v(100),
            v(599),
        ]);
        probes.extend([v(BASE), v(1_001), v(u64::MAX)]);
        probes.extend(colliding_base.iter().chain(&colliding_absent).copied());
        for &id in &probes {
            assert_eq!(overlaid.owns(id), sealed.owns(id), "owns {id}");
            assert_eq!(overlaid.load(id), sealed.load(id), "load {id}");
            assert_eq!(overlaid.label_of(id), sealed.label_of(id), "label {id}");
            assert_eq!(overlaid.degree_of(id), sealed.degree_of(id), "degree {id}");
            assert_eq!(
                overlaid.signature_of(id),
                sealed.signature_of(id),
                "sig {id}"
            );
            for &to in &probes {
                assert_eq!(
                    overlaid.has_edge(id, to),
                    sealed.has_edge(id, to),
                    "{id} – {to}"
                );
            }
        }
        assert!(!overlaid.owns(v(5)) && overlaid.owns(v(7)) && overlaid.owns(v(1_000)));
        assert_eq!(overlaid.load(v(7)).unwrap().neighbors, &[v(300)]);
        assert!(!overlaid.has_edge(v(6), v(5)) && !overlaid.has_edge(v(30), v(31)));
        // The stored overlay figure is the walk's, filter included.
        assert_eq!(overlay.bytes, overlay.measure());
        assert!(overlay.bytes.id_map >= overlay.filter.len() * 8);
    }
}
