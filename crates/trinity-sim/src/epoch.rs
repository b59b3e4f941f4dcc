//! Epoch-versioned snapshots: dynamic updates without stopping the world.
//!
//! A [`GraphEpochs`] manager wraps a [`MemoryCloud`] and lets callers apply
//! [`UpdateBatch`]es (vertex/edge inserts, deletes, relabels) while queries
//! keep running against immutable snapshots:
//!
//! * **Readers pin, never lock.** [`GraphEpochs::pin`] hands out a
//!   [`SnapshotRef`] — an `Arc` to the current epoch's cloud. A pinned
//!   snapshot is immutable forever; writers publish *successor* clouds and
//!   never touch published ones, so a query admitted at epoch N sees exactly
//!   epoch N even while N+1 is being built or sealed.
//! * **Writers overlay, then seal.** [`GraphEpochs::apply`] folds a batch
//!   into per-partition `PartitionOverlay`s — fully
//!   merged views of every touched vertex and label laid over the `Arc`-
//!   shared immutable base — and publishes a new cloud at epoch N+1.
//!   [`GraphEpochs::seal_epoch`] re-encodes each overlaid partition's
//!   merged view into a fresh base, carrying signatures over; content is
//!   observationally identical, so the epoch number is kept and pinned
//!   readers are unaffected.
//! * **Caches revalidate by label pair, root by root.** Exploration reads
//!   the graph only as adjacency entries "root `x` labelled `r` has a
//!   neighbour labelled `c`", so an STwig table for shape `(r; c1..ck)` can
//!   change only at a root where such an entry appeared or disappeared.
//!   Every effective apply records exactly those entries — the symmetric
//!   difference of the pre- and post-batch labelled adjacency — in the
//!   lineage's [`EpochTouchLog`] as sorted `((r, c), x)` triples, both
//!   directions of every edge. Per op kind: an added or removed edge
//!   touches its two entries, a removed edge under the *pre*-batch labels of
//!   its endpoints and an added one under the *post*-batch labels (the labels
//!   the entry was, or will be, read under — which is why both sides of a
//!   batch are logged); `RemoveVertex` is the removal of its incident edges;
//!   a relabel `old → new` of `v` leaves `v`'s edges in place but rewrites
//!   the pair of every one of them, so each surviving entry `v → n` and
//!   `n → v` is logged once under `old` and once under `new` — both labels ×
//!   every neighbour label; an `AddVertex` of an isolated vertex changes no
//!   entry and logs nothing (a vertex without neighbours roots no row and is
//!   nobody's child). A cache entry none of whose pairs were touched since
//!   it was built is provably still exact; otherwise only the touched roots
//!   need re-exploring (see `stwig::cache`). The same signed list keeps the
//!   neighborhood signatures exact under overlays.
//!
//! Update semantics follow [`crate::builder::GraphBuilder`]: edges are
//! undirected and symmetrized, self-loops are ignored, adding an existing
//! vertex relabels it, and edge endpoints must exist. A batch is atomic —
//! it either applies fully (one epoch bump) or fails leaving the current
//! epoch untouched.

use crate::cloud::MemoryCloud;
use crate::compact::Neighbors;
use crate::error::TrinityError;
use crate::hash::FxHashMap;
use crate::ids::{LabelId, VertexId};
use crate::neighbor_index::label_bit;
use crate::partition::{LiveVertex, Partition, PartitionOverlay, Touched};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One mutation of the graph. Semantics mirror the builder's: undirected
/// symmetrized edges, self-loops ignored, `AddVertex` of an existing vertex
/// relabels it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add vertex `id` with `label`, or relabel it if it already exists.
    AddVertex {
        /// The vertex to add (or relabel).
        id: VertexId,
        /// Its (new) label.
        label: String,
    },
    /// Remove vertex `id` and every edge incident to it. Fails the batch if
    /// the vertex does not exist at this point of the batch.
    RemoveVertex {
        /// The vertex to remove.
        id: VertexId,
    },
    /// Add the undirected edge `u – v`. Both endpoints must exist at this
    /// point of the batch; adding an existing edge or a self-loop is a no-op.
    AddEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `u – v`; removing an absent edge is a
    /// no-op.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
}

/// An ordered batch of [`UpdateOp`]s applied atomically by
/// [`GraphEpochs::apply`]: one batch, one epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an add-vertex (or relabel) op. Builder-style.
    pub fn add_vertex(mut self, id: VertexId, label: &str) -> Self {
        self.ops.push(UpdateOp::AddVertex {
            id,
            label: label.to_string(),
        });
        self
    }

    /// Appends a remove-vertex op. Builder-style.
    pub fn remove_vertex(mut self, id: VertexId) -> Self {
        self.ops.push(UpdateOp::RemoveVertex { id });
        self
    }

    /// Appends an add-edge op. Builder-style.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.ops.push(UpdateOp::AddEdge { u, v });
        self
    }

    /// Appends a remove-edge op. Builder-style.
    pub fn remove_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.ops.push(UpdateOp::RemoveEdge { u, v });
        self
    }

    /// The batch's ops, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One changed adjacency entry as exploration reads it: the ordered label
/// pair `(root label, neighbour label)` and the root vertex.
type Touch = ((LabelId, LabelId), VertexId);

/// Most triples an [`EpochTouchLog`] retains (16 B each, so 1 MiB): hundreds
/// of hub-heavy batches, thousands of small ones. Entries are retagged on
/// every successful probe, so only shapes left unprobed for that long ever
/// look behind the ring's horizon — and those fall back to eviction, which
/// is always sound.
const LOG_TRIPLE_CAP: usize = 1 << 16;

/// Per-epoch log of the adjacency entries each effective update batch
/// changed, shared by every snapshot of a lineage. This is what lets a cache
/// prove a stale entry still exact, or name the roots whose rows moved: an
/// STwig table for shape `(r; c1..ck)` reads nothing but entries keyed
/// `(r, ci)`. A ring of consecutive epochs capped at `LOG_TRIPLE_CAP`
/// triples; ranges reaching behind the ring are reported uncovered.
#[derive(Debug)]
pub struct EpochTouchLog {
    ring: RwLock<TouchRing>,
}

#[derive(Debug)]
struct TouchRing {
    /// Epoch of `batches[0]`; slot `i` holds epoch `first_epoch + i`.
    first_epoch: u64,
    /// Per epoch, its touches sorted and deduplicated.
    batches: VecDeque<Vec<Touch>>,
    /// Total triples across `batches`.
    triples: usize,
}

impl EpochTouchLog {
    /// An empty log whose first recorded epoch will be `first_epoch`.
    fn starting_at(first_epoch: u64) -> Self {
        EpochTouchLog {
            ring: RwLock::new(TouchRing {
                first_epoch,
                batches: VecDeque::new(),
                triples: 0,
            }),
        }
    }

    /// Records the (sorted, deduplicated) touches of epoch `epoch`, dropping
    /// the oldest epochs while the ring exceeds its cap. Called by the epoch
    /// manager, under its writer lock, *before* the epoch is published.
    fn record(&self, epoch: u64, touches: Vec<Touch>) {
        let mut ring = self.ring.write().expect("epoch touch log lock");
        debug_assert_eq!(epoch, ring.first_epoch + ring.batches.len() as u64);
        ring.triples += touches.len();
        ring.batches.push_back(touches);
        while ring.triples > LOG_TRIPLE_CAP {
            let dropped = ring.batches.pop_front().expect("triples > 0");
            ring.triples -= dropped.len();
            ring.first_epoch += 1;
        }
    }

    /// The roots of every entry keyed `(root_label, c)`, `c` in
    /// `child_labels`, that an epoch in `(after, upto]` touched — sorted
    /// ascending, deduplicated. `None` when the ring does not hold the whole
    /// range (the caller must then assume everything was touched).
    pub fn touched_roots(
        &self,
        after: u64,
        upto: u64,
        root_label: LabelId,
        child_labels: &[LabelId],
    ) -> Option<Vec<VertexId>> {
        let mut roots = Vec::new();
        if after >= upto {
            return Some(roots);
        }
        let ring = self.ring.read().expect("epoch touch log lock");
        let first = (after + 1).checked_sub(ring.first_epoch)? as usize;
        let last = (upto - ring.first_epoch) as usize;
        if last >= ring.batches.len() {
            return None;
        }
        for batch in ring.batches.range(first..=last) {
            for (i, &child) in child_labels.iter().enumerate() {
                if i > 0 && child_labels[i - 1] == child {
                    continue;
                }
                let pair = (root_label, child);
                let start = batch.partition_point(|&(p, _)| p < pair);
                roots.extend(
                    batch[start..]
                        .iter()
                        .take_while(|&&(p, _)| p == pair)
                        .map(|&(_, root)| root),
                );
            }
        }
        roots.sort_unstable();
        roots.dedup();
        Some(roots)
    }

    /// Number of epochs currently held.
    pub fn len(&self) -> usize {
        self.ring
            .read()
            .expect("epoch touch log lock")
            .batches
            .len()
    }

    /// Whether no epoch is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes of the retained triples; bounded by the ring's cap.
    pub fn memory_bytes(&self) -> usize {
        self.ring.read().expect("epoch touch log lock").triples * std::mem::size_of::<Touch>()
    }
}

/// A pinned, immutable view of one epoch's cloud. Cheap to clone (one `Arc`
/// bump); holding it keeps the snapshot's storage alive but never blocks
/// writers — updates and seals publish successors instead of mutating.
#[derive(Debug, Clone)]
pub struct SnapshotRef {
    cloud: Arc<MemoryCloud>,
}

impl SnapshotRef {
    /// The pinned cloud.
    pub fn cloud(&self) -> &MemoryCloud {
        &self.cloud
    }

    /// The epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.cloud.epoch()
    }
}

impl std::ops::Deref for SnapshotRef {
    type Target = MemoryCloud;

    fn deref(&self) -> &MemoryCloud {
        &self.cloud
    }
}

/// Allocates process-unique nonzero lineage ids.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// The epoch manager: owns the lineage of snapshots evolving from one base
/// cloud. See the module docs for the pin/apply/seal protocol.
#[derive(Debug)]
pub struct GraphEpochs {
    /// The epoch-0 snapshot, lineage-stamped. Lives as long as the manager
    /// so long-lived borrowers (engines, caches) can key on it.
    base: MemoryCloud,
    /// The latest published snapshot. Readers clone the `Arc` (pin);
    /// writers replace it under `writer`.
    current: RwLock<Arc<MemoryCloud>>,
    /// Serializes `apply` and `seal_epoch`. Readers never take it.
    writer: Mutex<()>,
    /// Touched-entry log shared with every snapshot of the lineage.
    log: Arc<EpochTouchLog>,
}

// Engines share one `&GraphEpochs` across worker threads (queries pin
// snapshots, update entries apply batches), so the manager must be
// `Send + Sync` — as must the snapshots it hands out.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<GraphEpochs>();
    assert_send_sync::<SnapshotRef>();
    assert_send_sync::<EpochTouchLog>();
};

/// Canonical undirected edge key.
#[inline]
fn ekey(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Final state of a vertex after folding a batch's ops.
#[derive(Debug, Clone, Copy)]
enum VertexChange {
    /// `AddVertex` of a vertex the pending view did not contain.
    Added(LabelId),
    /// `AddVertex` of a vertex the pending view contained (relabel).
    Relabeled(LabelId),
    /// `RemoveVertex`.
    Removed,
}

impl GraphEpochs {
    /// Takes ownership of `cloud` as epoch 0 of a fresh lineage.
    pub fn new(mut cloud: MemoryCloud) -> Self {
        let log = Arc::new(EpochTouchLog::starting_at(cloud.epoch() + 1));
        cloud.lineage = NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed);
        cloud.touch_log = Some(Arc::clone(&log));
        let current = RwLock::new(Arc::new(cloud.clone()));
        GraphEpochs {
            base: cloud,
            current,
            writer: Mutex::new(()),
            log,
        }
    }

    /// The epoch-0 snapshot. Lives as long as the manager; long-lived
    /// borrowers (a `QueryEngine`, a cache) key on this cloud and then
    /// execute against pinned snapshots of the same lineage.
    pub fn base_cloud(&self) -> &MemoryCloud {
        &self.base
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("epoch lock").epoch()
    }

    /// Pins the current snapshot. Never blocks on writers beyond the
    /// momentary `RwLock` read; the returned snapshot stays valid (and
    /// bit-identical) forever, through any number of applies and seals.
    pub fn pin(&self) -> SnapshotRef {
        SnapshotRef {
            cloud: Arc::clone(&self.current.read().expect("epoch lock")),
        }
    }

    /// Applies `batch` atomically, publishing a new snapshot at epoch
    /// `N + 1` and returning its epoch. A batch with no net effect returns
    /// the current epoch without publishing. On error (unknown vertex), no
    /// state changes.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<u64, TrinityError> {
        let _writer = self.writer.lock().expect("epoch writer lock");
        let prev = Arc::clone(&self.current.read().expect("epoch lock"));

        // ---- Fold the ops into pending vertex/edge change maps ----------
        // Copied only if the batch names a label the lineage has not seen.
        let mut interner = Arc::clone(&prev.interner);
        let mut vchanges: FxHashMap<VertexId, VertexChange> = FxHashMap::default();
        let mut echanges: FxHashMap<(VertexId, VertexId), bool> = FxHashMap::default();

        let pending_exists = |vch: &FxHashMap<VertexId, VertexChange>, id: VertexId| -> bool {
            match vch.get(&id) {
                Some(VertexChange::Removed) => false,
                Some(_) => true,
                None => prev.contains_vertex(id),
            }
        };
        let pending_has_edge =
            |ech: &FxHashMap<(VertexId, VertexId), bool>, u: VertexId, v: VertexId| -> bool {
                match ech.get(&ekey(u, v)) {
                    Some(&present) => present,
                    None => prev.has_edge_global(u, v),
                }
            };

        for op in batch.ops() {
            match op {
                UpdateOp::AddVertex { id, label } => {
                    let lid = match interner.get(label) {
                        Some(lid) => lid,
                        None => Arc::make_mut(&mut interner).intern(label),
                    };
                    let change = if pending_exists(&vchanges, *id) {
                        match vchanges.get(id) {
                            Some(VertexChange::Added(_)) => VertexChange::Added(lid),
                            _ => VertexChange::Relabeled(lid),
                        }
                    } else {
                        VertexChange::Added(lid)
                    };
                    vchanges.insert(*id, change);
                }
                UpdateOp::RemoveVertex { id } => {
                    if !pending_exists(&vchanges, *id) {
                        return Err(TrinityError::UnknownVertex(*id));
                    }
                    // Expand to explicit removals of every currently-
                    // incident edge (prev edges still pending-present plus
                    // edges added earlier in this batch).
                    let mut incident: BTreeSet<VertexId> = prev
                        .neighbors_global(*id)
                        .into_iter()
                        .filter(|&n| pending_has_edge(&echanges, *id, n))
                        .collect();
                    for (&(a, b), &present) in &echanges {
                        if present {
                            if a == *id {
                                incident.insert(b);
                            } else if b == *id {
                                incident.insert(a);
                            }
                        }
                    }
                    for n in incident {
                        echanges.insert(ekey(*id, n), false);
                    }
                    vchanges.insert(*id, VertexChange::Removed);
                }
                UpdateOp::AddEdge { u, v } => {
                    if u == v {
                        continue;
                    }
                    for end in [u, v] {
                        if !pending_exists(&vchanges, *end) {
                            return Err(TrinityError::UnknownVertex(*end));
                        }
                    }
                    if !pending_has_edge(&echanges, *u, *v) {
                        echanges.insert(ekey(*u, *v), true);
                    }
                }
                UpdateOp::RemoveEdge { u, v } => {
                    if u != v && pending_has_edge(&echanges, *u, *v) {
                        echanges.insert(ekey(*u, *v), false);
                    }
                }
            }
        }

        // ---- Net effects vs `prev` (drop intra-batch no-ops) ------------
        let mut added_vertices: Vec<(VertexId, LabelId)> = Vec::new();
        let mut removed_vertices: Vec<(VertexId, LabelId)> = Vec::new();
        let mut relabeled: Vec<(VertexId, LabelId, LabelId)> = Vec::new();
        for (&id, change) in &vchanges {
            match (change, prev.label_of_global(id)) {
                (VertexChange::Removed, Some(old)) => removed_vertices.push((id, old)),
                (VertexChange::Removed, None) => {}
                (VertexChange::Added(l), None) => added_vertices.push((id, *l)),
                (VertexChange::Added(l) | VertexChange::Relabeled(l), Some(old)) => {
                    if old != *l {
                        relabeled.push((id, old, *l));
                    }
                }
                (VertexChange::Relabeled(_), None) => unreachable!("relabel of absent vertex"),
            }
        }
        let mut added_edges: Vec<(VertexId, VertexId)> = Vec::new();
        let mut removed_edges: Vec<(VertexId, VertexId)> = Vec::new();
        for (&(a, b), &present) in &echanges {
            let had = prev.has_edge_global(a, b);
            if present && !had {
                added_edges.push((a, b));
            } else if !present && had {
                removed_edges.push((a, b));
            }
        }
        // Sort for determinism (the hash maps iterate in arbitrary order).
        added_vertices.sort_unstable();
        removed_vertices.sort_unstable();
        relabeled.sort_unstable();
        added_edges.sort_unstable();
        removed_edges.sort_unstable();

        if added_vertices.is_empty()
            && removed_vertices.is_empty()
            && relabeled.is_empty()
            && added_edges.is_empty()
            && removed_edges.is_empty()
        {
            return Ok(prev.epoch());
        }

        // Post-batch label of any surviving vertex.
        let mut finals: FxHashMap<VertexId, LabelId> = FxHashMap::default();
        for &(id, l) in &added_vertices {
            finals.insert(id, l);
        }
        for &(id, _, l) in &relabeled {
            finals.insert(id, l);
        }
        let final_label = |id: VertexId| -> Option<LabelId> {
            finals
                .get(&id)
                .copied()
                .or_else(|| prev.label_of_global(id))
        };

        // ---- Merged adjacency of every adjacency-touched vertex ---------
        let mut adj_add: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
        let mut adj_del: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
        for &(a, b) in &added_edges {
            adj_add.entry(a).or_default().push(b);
            adj_add.entry(b).or_default().push(a);
        }
        for &(a, b) in &removed_edges {
            adj_del.entry(a).or_default().push(b);
            adj_del.entry(b).or_default().push(a);
        }
        let mut adj_touched: BTreeSet<VertexId> = adj_add.keys().copied().collect();
        adj_touched.extend(adj_del.keys().copied());
        adj_touched.extend(added_vertices.iter().map(|&(id, _)| id));
        adj_touched.retain(|id| removed_vertices.binary_search_by_key(id, |r| r.0).is_err());
        let mut merged_adj: FxHashMap<VertexId, Arc<[VertexId]>> = FxHashMap::default();
        for &u in &adj_touched {
            let before = prev.neighbors_global(u);
            let del = adj_del.get(&u).map_or(&[][..], Vec::as_slice);
            let add = adj_add.get(&u).map_or(&[][..], Vec::as_slice);
            let mut list = Vec::with_capacity(before.len() + add.len());
            list.extend(before.iter().filter(|n| !del.contains(n)));
            if !add.is_empty() {
                list.extend_from_slice(add);
                list.sort_unstable();
            }
            merged_adj.insert(u, list.into());
        }

        // Post-batch neighbours of a surviving vertex.
        let post_neighbors = |id: VertexId| match merged_adj.get(&id) {
            Some(list) => Neighbors::Slice(list),
            None => prev.neighbors_global(id),
        };

        // ---- Changed labelled adjacency entries -------------------------
        // The symmetric difference of the pre- and post-batch sets of
        // `(x, label(x), y, label(y))` entries, signed: removed edges under
        // pre-batch labels, added edges under post-batch labels, and every
        // surviving entry with a relabelled endpoint once each way. This one
        // list feeds the touched-root log and the signature refresh (see the
        // module docs).
        let pre_label = |id: VertexId| prev.label_of_global(id).expect("pre-batch endpoint");
        let post_label = |id: VertexId| final_label(id).expect("post-batch endpoint");
        let mut relabeled_entries: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        for &(id, _, _) in &relabeled {
            let added = adj_add.get(&id);
            for n in post_neighbors(id) {
                if !added.is_some_and(|a| a.contains(&n)) {
                    relabeled_entries.insert((id, n));
                    relabeled_entries.insert((n, id));
                }
            }
        }
        let mut changed: Vec<(Touch, i64)> = Vec::new();
        for &(a, b) in &removed_edges {
            changed.push((((pre_label(a), pre_label(b)), a), -1));
            changed.push((((pre_label(b), pre_label(a)), b), -1));
        }
        for &(a, b) in &added_edges {
            changed.push((((post_label(a), post_label(b)), a), 1));
            changed.push((((post_label(b), post_label(a)), b), 1));
        }
        for &(x, y) in &relabeled_entries {
            changed.push((((pre_label(x), pre_label(y)), x), -1));
            changed.push((((post_label(x), post_label(y)), x), 1));
        }

        // ---- Per-machine overlays ---------------------------------------
        let num_machines = prev.num_machines();
        let mut overlays: Vec<Option<PartitionOverlay>> = vec![None; num_machines];
        let mut vertex_delta = vec![0i64; num_machines];
        let mut entry_delta = vec![0i64; num_machines];
        /// The successor overlay of `machine`, started on first touch.
        fn overlay_of<'a>(
            overlays: &'a mut [Option<PartitionOverlay>],
            prev: &MemoryCloud,
            machine: usize,
        ) -> &'a mut PartitionOverlay {
            overlays[machine].get_or_insert_with(|| prev.partitions[machine].next_overlay())
        }

        for &(id, _) in &removed_vertices {
            let machine = prev.machine_of(id).index();
            entry_delta[machine] -= prev.partitions[machine].degree_of(id).unwrap_or(0) as i64;
            vertex_delta[machine] -= 1;
            let o = overlay_of(&mut overlays, &prev, machine);
            if let Ok(pos) = o.added.binary_search(&id) {
                // Added in an earlier epoch of this lineage: it is not in
                // the base, so forgetting it entirely removes it.
                o.added.remove(pos);
                o.vertices.remove(&id);
            } else {
                o.vertices.insert(id, Touched::Deleted);
            }
        }
        for &(id, label) in &added_vertices {
            let machine = prev.machine_of(id).index();
            vertex_delta[machine] += 1;
            let live = LiveVertex {
                label: Some(label),
                ..LiveVertex::default()
            };
            let o = overlay_of(&mut overlays, &prev, machine);
            // A base vertex deleted in an earlier epoch comes back in place
            // of its tombstone; a brand-new id joins the overlay's added run.
            if o.vertices.insert(id, Touched::Live(live)).is_none() {
                o.added.push(id);
            }
        }
        for &(id, _, new) in &relabeled {
            let machine = prev.machine_of(id).index();
            overlay_of(&mut overlays, &prev, machine).live_mut(id).label = Some(new);
        }
        for &u in &adj_touched {
            let machine = prev.machine_of(u).index();
            let list = Arc::clone(&merged_adj[&u]);
            entry_delta[machine] +=
                list.len() as i64 - prev.partitions[machine].degree_of(u).unwrap_or(0) as i64;
            overlay_of(&mut overlays, &prev, machine).live_mut(u).adj = Some(list);
        }

        // ---- Merged postings of every touched (machine, label) ----------
        let mut post_add: FxHashMap<(usize, LabelId), Vec<VertexId>> = FxHashMap::default();
        let mut post_del: FxHashMap<(usize, LabelId), Vec<VertexId>> = FxHashMap::default();
        for &(id, l) in &added_vertices {
            post_add
                .entry((prev.machine_of(id).index(), l))
                .or_default()
                .push(id);
        }
        for &(id, old) in &removed_vertices {
            post_del
                .entry((prev.machine_of(id).index(), old))
                .or_default()
                .push(id);
        }
        for &(id, old, new) in &relabeled {
            let machine = prev.machine_of(id).index();
            post_del.entry((machine, old)).or_default().push(id);
            post_add.entry((machine, new)).or_default().push(id);
        }
        let touched_postings: BTreeSet<(usize, LabelId)> =
            post_add.keys().chain(post_del.keys()).copied().collect();
        for &(machine, label) in &touched_postings {
            let mut list = prev.partitions[machine].vertices_with_label(label).to_vec();
            if let Some(del) = post_del.get(&(machine, label)) {
                list.retain(|id| !del.contains(id));
            }
            if let Some(add) = post_add.get(&(machine, label)) {
                list.extend(add.iter().copied());
            }
            list.sort_unstable();
            let o = overlay_of(&mut overlays, &prev, machine);
            o.postings.insert(label, list.into());
        }

        // ---- Exact signature refresh of every signature-touched vertex --
        // A signature is the OR of the neighbours' label bits, and `changed`
        // holds every entry a root gained or lost (a relabelled neighbour
        // is one of each). Only a bit lost and not gained again may have
        // lost its last carrier: the post-batch neighbourhood is scanned
        // until each such bit has found one. Gain-only vertices scan nothing.
        let mut bit_changes: FxHashMap<VertexId, (u64, u64)> = FxHashMap::default();
        for &(((_, nbr), root), sign) in &changed {
            let (gained, lost) = bit_changes.entry(root).or_default();
            *(if sign > 0 { gained } else { lost }) |= label_bit(nbr);
        }
        let mut sig_touched: BTreeSet<VertexId> = adj_touched.clone();
        for &(id, _, _) in &relabeled {
            sig_touched.extend(post_neighbors(id));
        }
        for &u in &sig_touched {
            let machine = prev.machine_of(u).index();
            // An added vertex starts from no neighbours.
            let old = prev.partitions[machine].signature_of(u).unwrap_or(0);
            let (gained, lost) = bit_changes.get(&u).copied().unwrap_or_default();
            let mut orphaned = lost & !gained;
            for n in post_neighbors(u) {
                if orphaned == 0 {
                    break;
                }
                orphaned &= !label_bit(post_label(n));
            }
            let sig = (old | gained) & !orphaned;
            overlay_of(&mut overlays, &prev, machine)
                .live_mut(u)
                .signature = Some(sig);
        }

        // ---- Catalog (copy-on-write; over-approximates on removal) ------
        // Copied only if the batch realises a label pair between two
        // machines that the catalog lacks.
        let mut catalog = Arc::clone(&prev.catalog);
        let mut record_both = |a: VertexId, b: VertexId| {
            if let (Some(la), Some(lb)) = (final_label(a), final_label(b)) {
                let (ma, mb) = (prev.machine_of(a), prev.machine_of(b));
                for (src, src_label, dst, dst_label) in [(ma, la, mb, lb), (mb, lb, ma, la)] {
                    if !catalog.has_pair(src, src_label, dst, dst_label) {
                        Arc::make_mut(&mut catalog).record_edge(src, src_label, dst, dst_label);
                    }
                }
            }
        };
        for &(a, b) in &added_edges {
            record_both(a, b);
        }
        for &(id, _, _) in &relabeled {
            for n in post_neighbors(id) {
                record_both(id, n);
            }
        }

        // ---- Global metadata --------------------------------------------
        let mut label_frequency = prev.label_frequency.clone();
        label_frequency.resize(interner.len(), 0);
        for &(_, l) in &added_vertices {
            label_frequency[l.index()] += 1;
        }
        for &(_, old) in &removed_vertices {
            label_frequency[old.index()] -= 1;
        }
        for &(_, old, new) in &relabeled {
            label_frequency[old.index()] -= 1;
            label_frequency[new.index()] += 1;
        }
        let num_vertices = (prev.num_vertices() as i64 + added_vertices.len() as i64
            - removed_vertices.len() as i64) as u64;
        let num_edges = (prev.num_edges() as i64 + added_edges.len() as i64
            - removed_edges.len() as i64) as u64;

        // ---- Assemble and publish the successor snapshot ----------------
        let partitions: Vec<Partition> = overlays
            .into_iter()
            .enumerate()
            .map(|(machine, overlay)| match overlay {
                Some(mut o) => {
                    o.num_vertices = (o.num_vertices as i64 + vertex_delta[machine]) as usize;
                    o.num_edge_entries =
                        (o.num_edge_entries as i64 + entry_delta[machine]) as usize;
                    prev.partitions[machine].with_overlay(Some(o))
                }
                None => prev.partitions[machine].clone(),
            })
            .collect();

        let next_epoch = prev.epoch() + 1;
        let mut touches: Vec<Touch> = changed.into_iter().map(|(touch, _)| touch).collect();
        touches.sort_unstable();
        touches.dedup();
        self.log.record(next_epoch, touches);
        let next = MemoryCloud {
            partitions,
            interner,
            label_frequency,
            catalog,
            num_vertices,
            num_edges,
            epoch: next_epoch,
            lineage: prev.lineage(),
            touch_log: prev.touch_log.clone(),
            cost: prev.cost,
        };
        *self.current.write().expect("epoch lock") = Arc::new(next);
        Ok(next_epoch)
    }

    /// Merges every overlaid partition's overlay into a fresh immutable base
    /// (`Partition::sealed`: one pass over the merged view, nothing
    /// recounted); partitions without an overlay are shared as they are.
    /// Observable content is unchanged, so the epoch number is kept: pinned
    /// readers hold the previous `Arc` untouched, and caches keyed on
    /// `(lineage, epoch)` stay valid. Returns the (unchanged) current epoch.
    pub fn seal_epoch(&self) -> u64 {
        let _writer = self.writer.lock().expect("epoch writer lock");
        let prev = Arc::clone(&self.current.read().expect("epoch lock"));
        if !prev.partitions.iter().any(Partition::has_overlay) {
            return prev.epoch();
        }
        let num_labels = prev.interner.len();
        let next = MemoryCloud {
            partitions: prev
                .partitions
                .iter()
                .map(|p| p.sealed(num_labels))
                .collect(),
            ..(*prev).clone()
        };
        *self.current.write().expect("epoch lock") = Arc::new(next);
        prev.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::cost::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// Triangle a(0)-b(1)-c(2)-a(0) plus a pendant d(3) on c.
    fn small_cloud(machines: usize) -> MemoryCloud {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(0), "a");
        b.add_vertex(v(1), "b");
        b.add_vertex(v(2), "c");
        b.add_vertex(v(3), "d");
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(0));
        b.add_edge(v(2), v(3));
        b.build(machines, CostModel::default())
    }

    /// Everything observable about a cloud, as comparable owned data.
    fn observe(cloud: &MemoryCloud) -> Vec<(VertexId, LabelId, Vec<VertexId>, Option<u64>)> {
        let mut ids: Vec<VertexId> = cloud.iter_vertices().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                (
                    id,
                    cloud.label_of_global(id).expect("iterated vertex"),
                    cloud.neighbors_global(id).to_vec(),
                    cloud.signature_of(id),
                )
            })
            .collect()
    }

    #[test]
    fn fresh_manager_is_epoch_zero_with_lineage() {
        let epochs = GraphEpochs::new(small_cloud(3));
        assert_eq!(epochs.epoch(), 0);
        assert_ne!(epochs.base_cloud().lineage(), 0);
        let snap = epochs.pin();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.lineage(), epochs.base_cloud().lineage());
        assert_eq!(observe(snap.cloud()), observe(epochs.base_cloud()));
    }

    #[test]
    fn apply_adds_vertices_and_edges() {
        let epochs = GraphEpochs::new(small_cloud(4));
        let e = epochs
            .apply(
                &UpdateBatch::new()
                    .add_vertex(v(9), "e")
                    .add_edge(v(9), v(2)),
            )
            .unwrap();
        assert_eq!(e, 1);
        let snap = epochs.pin();
        assert!(snap.contains_vertex(v(9)));
        assert_eq!(snap.labels().get("e"), snap.label_of_global(v(9)));
        assert_eq!(snap.neighbors_global(v(9)).to_vec(), vec![v(2)]);
        assert!(snap.has_edge_global(v(2), v(9)));
        assert_eq!(snap.num_vertices(), 5);
        assert_eq!(snap.num_edges(), 5);
        let le = snap.labels().get("e").unwrap();
        assert_eq!(snap.label_frequency(le), 1);
        assert_eq!(snap.all_ids_with_label(le), vec![v(9)]);
    }

    #[test]
    fn apply_removes_vertex_and_incident_edges() {
        let epochs = GraphEpochs::new(small_cloud(4));
        epochs
            .apply(&UpdateBatch::new().remove_vertex(v(2)))
            .unwrap();
        let snap = epochs.pin();
        assert!(!snap.contains_vertex(v(2)));
        assert!(!snap.has_edge_global(v(1), v(2)));
        assert!(!snap.has_edge_global(v(2), v(3)));
        assert_eq!(snap.neighbors_global(v(3)).to_vec(), Vec::<VertexId>::new());
        assert_eq!(snap.neighbors_global(v(0)).to_vec(), vec![v(1)]);
        assert_eq!(snap.num_vertices(), 3);
        assert_eq!(snap.num_edges(), 1);
        let lc = snap.labels().get("c").unwrap();
        assert_eq!(snap.label_frequency(lc), 0);
        assert!(snap.all_ids_with_label(lc).is_empty());
    }

    #[test]
    fn apply_relabel_updates_postings_frequency_and_signatures() {
        let epochs = GraphEpochs::new(small_cloud(2));
        epochs
            .apply(&UpdateBatch::new().add_vertex(v(3), "a"))
            .unwrap();
        let snap = epochs.pin();
        let la = snap.labels().get("a").unwrap();
        let ld = snap.labels().get("d").unwrap();
        assert_eq!(snap.label_of_global(v(3)), Some(la));
        assert_eq!(snap.label_frequency(la), 2);
        assert_eq!(snap.label_frequency(ld), 0);
        let mut with_a = snap.all_ids_with_label(la);
        with_a.sort_unstable();
        assert_eq!(with_a, vec![v(0), v(3)]);
        // v(2) is v(3)'s only neighbor: its signature must now claim `a`
        // (and no longer `d`).
        let sig = snap
            .signature_of(v(2))
            .expect("every vertex has a signature");
        assert_ne!(sig & label_bit(la), 0);
        assert_eq!(sig & label_bit(ld), 0);
    }

    /// The signature a from-scratch build would give `id`: the OR of its
    /// neighbours' label bits.
    fn recomputed_signature(cloud: &MemoryCloud, id: VertexId) -> u64 {
        cloud
            .neighbors_global(id)
            .iter()
            .map(|n| label_bit(cloud.label_of_global(n).expect("neighbour exists")))
            .fold(0, |sig, bit| sig | bit)
    }

    fn assert_signatures_exact(cloud: &MemoryCloud, state: &str) {
        for id in cloud.iter_vertices() {
            assert_eq!(
                cloud.signature_of(id),
                Some(recomputed_signature(cloud, id)),
                "{state}: signature of {id}"
            );
        }
    }

    #[test]
    fn carried_signatures_equal_a_full_recompute() {
        for machines in [1, 3] {
            let epochs = GraphEpochs::new(small_cloud(machines));
            let bit = |name: &str| label_bit(epochs.pin().labels().get(name).unwrap());

            // Gain-only batches: new edges between old vertices, and a new
            // vertex attached to two of them. Nothing is scanned; every
            // touched signature is its old one ORed with the new bits.
            epochs
                .apply(&UpdateBatch::new().add_edge(v(0), v(3)).add_edge(v(1), v(3)))
                .unwrap();
            assert_signatures_exact(&epochs.pin(), "edges gained");
            assert_eq!(
                epochs.pin().signature_of(v(3)),
                Some(bit("a") | bit("b") | bit("c"))
            );
            epochs
                .apply(
                    &UpdateBatch::new()
                        .add_vertex(v(4), "d")
                        .add_edge(v(4), v(2))
                        .add_edge(v(4), v(0)),
                )
                .unwrap();
            assert_signatures_exact(&epochs.pin(), "vertex gained");
            assert_eq!(epochs.pin().signature_of(v(4)), Some(bit("a") | bit("c")));

            // c(2) now has two `d` neighbours, 3 and 4. Losing one of two
            // carriers keeps the bit; losing the last one clears it.
            epochs
                .apply(&UpdateBatch::new().remove_edge(v(2), v(3)))
                .unwrap();
            assert_signatures_exact(&epochs.pin(), "one of two carriers lost");
            assert_ne!(epochs.pin().signature_of(v(2)).unwrap() & bit("d"), 0);
            epochs
                .apply(&UpdateBatch::new().remove_vertex(v(4)))
                .unwrap();
            assert_signatures_exact(&epochs.pin(), "last carrier lost");
            assert_eq!(epochs.pin().signature_of(v(2)), Some(bit("a") | bit("b")));

            // A relabel is a loss and a gain for every neighbour; a bit lost
            // and gained back in the same batch stays.
            epochs
                .apply(&UpdateBatch::new().add_vertex(v(1), "a"))
                .unwrap();
            assert_signatures_exact(&epochs.pin(), "neighbour relabelled");
            assert_eq!(epochs.pin().signature_of(v(2)), Some(bit("a")));
            epochs
                .apply(
                    &UpdateBatch::new()
                        .remove_edge(v(0), v(1))
                        .add_vertex(v(5), "a")
                        .add_edge(v(0), v(5)),
                )
                .unwrap();
            assert_signatures_exact(&epochs.pin(), "lost and gained back");

            // The seal carries the signatures over unchanged.
            epochs.seal_epoch();
            assert_signatures_exact(&epochs.pin(), "sealed");
        }
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_later_epochs() {
        let epochs = GraphEpochs::new(small_cloud(4));
        let before = epochs.pin();
        let baseline = observe(before.cloud());
        epochs
            .apply(&UpdateBatch::new().remove_vertex(v(0)).add_vertex(v(7), "x"))
            .unwrap();
        epochs
            .apply(&UpdateBatch::new().add_edge(v(7), v(1)))
            .unwrap();
        assert_eq!(epochs.epoch(), 2);
        // The old pin still sees epoch 0, bit-identical.
        assert_eq!(before.epoch(), 0);
        assert_eq!(observe(before.cloud()), baseline);
        assert!(before.contains_vertex(v(0)));
        assert!(!before.contains_vertex(v(7)));
    }

    #[test]
    fn seal_keeps_epoch_and_content_and_drops_overlays() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(0), "a");
        b.add_vertex(v(1), "b");
        b.add_vertex(v(2), "c");
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        let epochs = GraphEpochs::new(b.build(3, CostModel::default()));
        epochs
            .apply(
                &UpdateBatch::new()
                    .add_vertex(v(5), "b")
                    .add_edge(v(5), v(0))
                    .remove_edge(v(1), v(2)),
            )
            .unwrap();
        let dirty = epochs.pin();
        let before = observe(dirty.cloud());
        assert!(dirty.cloud().partitions.iter().any(Partition::has_overlay));
        let sealed_epoch = epochs.seal_epoch();
        assert_eq!(sealed_epoch, 1);
        let sealed = epochs.pin();
        assert_eq!(sealed.epoch(), 1);
        assert!(!sealed.cloud().partitions.iter().any(Partition::has_overlay));
        assert_eq!(observe(sealed.cloud()), before);
        // The pre-seal pin still reads its overlaid view, identically.
        assert_eq!(observe(dirty.cloud()), before);
        // Sealing an already-clean lineage is a no-op.
        assert_eq!(epochs.seal_epoch(), 1);
    }

    #[test]
    fn apply_validates_and_is_atomic() {
        let epochs = GraphEpochs::new(small_cloud(3));
        let baseline = observe(epochs.pin().cloud());
        let err = epochs
            .apply(
                &UpdateBatch::new()
                    .add_vertex(v(8), "x")
                    .add_edge(v(8), v(99)),
            )
            .unwrap_err();
        assert_eq!(err, TrinityError::UnknownVertex(v(99)));
        assert_eq!(epochs.epoch(), 0, "failed batch must not publish");
        assert_eq!(observe(epochs.pin().cloud()), baseline);
        assert!(matches!(
            epochs.apply(&UpdateBatch::new().remove_vertex(v(42))),
            Err(TrinityError::UnknownVertex(_))
        ));
    }

    #[test]
    fn no_op_batches_keep_the_epoch() {
        let epochs = GraphEpochs::new(small_cloud(3));
        // Absent-edge removal, existing-edge add, same-label relabel,
        // self-loop: all no-ops.
        let e = epochs
            .apply(
                &UpdateBatch::new()
                    .remove_edge(v(0), v(3))
                    .add_edge(v(0), v(1))
                    .add_vertex(v(0), "a")
                    .add_edge(v(2), v(2)),
            )
            .unwrap();
        assert_eq!(e, 0);
        // Add-then-remove within one batch nets out too.
        let e = epochs
            .apply(
                &UpdateBatch::new()
                    .add_vertex(v(9), "z")
                    .add_edge(v(9), v(0))
                    .remove_vertex(v(9)),
            )
            .unwrap();
        assert_eq!(e, 0);
    }

    #[test]
    fn remove_then_readd_nets_to_edge_removal() {
        let epochs = GraphEpochs::new(small_cloud(3));
        let e = epochs
            .apply(&UpdateBatch::new().remove_vertex(v(2)).add_vertex(v(2), "c"))
            .unwrap();
        assert_eq!(e, 1, "edges changed even though the vertex survived");
        let snap = epochs.pin();
        assert!(snap.contains_vertex(v(2)));
        assert_eq!(snap.neighbors_global(v(2)).to_vec(), Vec::<VertexId>::new());
        assert_eq!(snap.num_edges(), 1);
    }

    #[test]
    fn deleted_base_vertex_can_come_back() {
        let epochs = GraphEpochs::new(small_cloud(3));
        epochs
            .apply(&UpdateBatch::new().remove_vertex(v(3)))
            .unwrap();
        epochs
            .apply(
                &UpdateBatch::new()
                    .add_vertex(v(3), "d2")
                    .add_edge(v(3), v(0)),
            )
            .unwrap();
        let snap = epochs.pin();
        assert_eq!(
            snap.label_of_global(v(3)),
            Some(snap.labels().get("d2").unwrap())
        );
        assert_eq!(snap.neighbors_global(v(3)).to_vec(), vec![v(0)]);
        assert_eq!(snap.num_vertices(), 4);
    }

    /// An update batch that interns the 257th label, then a seal: the
    /// sealed bases store two bytes a label instead of one, and every read
    /// equals that of a cloud loaded from scratch with the sealed content.
    #[test]
    fn sealing_past_256_labels_widens_the_label_array() {
        use crate::loader::StreamLoader;
        const N: u64 = 600;
        let mut b = GraphBuilder::default();
        for i in 0..N {
            b.add_vertex(v(i), &format!("l{}", i % 256));
        }
        for i in 0..N {
            b.add_edge(v(i), v((i + 1) % N));
            b.add_edge(v(i), v((i * 7 + 3) % N));
        }
        let epochs = GraphEpochs::new(b.build(2, CostModel::default()));
        assert_eq!(epochs.pin().labels().len(), 256);
        assert_eq!(epochs.pin().storage_bytes().labels, N as usize);
        let batch = UpdateBatch::new()
            .add_vertex(v(N), "wide")
            .add_edge(v(N), v(3))
            .add_vertex(v(10), "wide")
            .add_vertex(v(11), "l255")
            .remove_vertex(v(20))
            .remove_edge(v(40), v(41));
        epochs.apply(&batch).unwrap();
        let overlaid = epochs.pin();
        assert_eq!(overlaid.labels().len(), 257);
        epochs.seal_epoch();
        let sealed = epochs.pin();
        assert!(!sealed.partitions.iter().any(Partition::has_overlay));
        let n = sealed.num_vertices() as usize;
        assert_eq!(n, N as usize);
        assert_eq!(sealed.storage_bytes().labels, 2 * n, "u16 labels");

        let ids: Vec<VertexId> = sealed.iter_vertices().collect();
        let vertices: Vec<(VertexId, LabelId)> = ids
            .iter()
            .map(|&id| (id, sealed.label_of_global(id).unwrap()))
            .collect();
        let edges: Vec<(VertexId, VertexId)> = ids
            .iter()
            .flat_map(|&id| sealed.neighbors_global(id).iter().map(move |n| (id, n)))
            .collect();
        let rebuilt = StreamLoader::new(2, CostModel::default())
            .load(sealed.labels().clone(), vertices, || edges.iter().copied())
            .unwrap();
        assert_eq!(observe(sealed.cloud()), observe(&rebuilt));
        assert_eq!(sealed.storage_bytes(), rebuilt.storage_bytes());
        let mut probes = ids.clone();
        probes.extend([v(20), v(N + 1), v(u64::MAX)]);
        for m in sealed.machines() {
            let (got, want) = (sealed.partition(m), rebuilt.partition(m));
            for &id in &probes {
                assert_eq!(got.owns(id), want.owns(id), "owns {id}");
                assert_eq!(got.load(id), want.load(id), "load {id}");
                assert_eq!(got.label_of(id), want.label_of(id), "label {id}");
                assert_eq!(got.degree_of(id), want.degree_of(id), "degree {id}");
                assert_eq!(got.signature_of(id), want.signature_of(id), "sig {id}");
            }
            for (label, _) in sealed.labels().iter() {
                let postings = got.vertices_with_label(label);
                assert_eq!(postings, want.vertices_with_label(label), "{m} {label}");
            }
        }
        let wide = sealed.labels().get("wide").unwrap();
        assert_eq!(wide, LabelId(256));
        assert_eq!(sealed.label_of_global(v(N)), Some(wide));
        assert_eq!(sealed.label_of_global(v(10)), Some(wide));
        assert_eq!(sealed.label_frequency(wide), 2);
    }

    #[test]
    fn touch_log_records_changed_entries_per_epoch() {
        let epochs = GraphEpochs::new(small_cloud(3));
        let snap = epochs.pin();
        let log = snap.epoch_touch_log().expect("managed cloud has a log");
        let label = |cloud: &MemoryCloud, name: &str| cloud.labels().get(name).unwrap();
        let (la, lb, lc, ld) = (
            label(&snap, "a"),
            label(&snap, "b"),
            label(&snap, "c"),
            label(&snap, "d"),
        );

        // Epoch 1, an added edge: its two entries, under post-batch labels.
        epochs
            .apply(&UpdateBatch::new().add_edge(v(0), v(3)))
            .unwrap();
        assert_eq!(log.touched_roots(0, 1, la, &[ld]), Some(vec![v(0)]));
        assert_eq!(log.touched_roots(0, 1, ld, &[la]), Some(vec![v(3)]));
        // The same labels in another combination were not touched.
        assert_eq!(log.touched_roots(0, 1, la, &[lb, lc]), Some(vec![]));
        assert_eq!(log.touched_roots(0, 1, ld, &[lc]), Some(vec![]));

        // Epoch 2, a relabel b → b2 of v(1): every surviving entry of v(1)
        // under the old and the new label, both directions.
        epochs
            .apply(&UpdateBatch::new().add_vertex(v(1), "b2"))
            .unwrap();
        let lb2 = label(&epochs.pin(), "b2");
        for own in [lb, lb2] {
            assert_eq!(log.touched_roots(1, 2, own, &[la, lc]), Some(vec![v(1)]));
            assert_eq!(log.touched_roots(1, 2, la, &[own]), Some(vec![v(0)]));
            assert_eq!(log.touched_roots(1, 2, lc, &[own]), Some(vec![v(2)]));
        }
        assert_eq!(log.touched_roots(1, 2, la, &[lc, ld]), Some(vec![]));
        // Ranges union epochs; repeated child labels are one pair.
        assert_eq!(log.touched_roots(0, 2, la, &[lb, lb, ld]), Some(vec![v(0)]));
        assert_eq!(log.touched_roots(2, 2, la, &[lb]), Some(vec![]));

        // Epoch 3, an isolated vertex — even one labelled `a` — changes no
        // entry: the epoch is covered and empty.
        epochs
            .apply(&UpdateBatch::new().add_vertex(v(9), "a"))
            .unwrap();
        for own in [la, lb, lb2, lc, ld] {
            assert_eq!(
                log.touched_roots(2, 3, own, &[la, lb, lb2, lc, ld]),
                Some(vec![])
            );
        }

        // Epoch 4, removing hub v(2) is the removal of its incident edges,
        // under pre-batch labels; an add-then-remove inside the batch nets
        // out and logs nothing.
        epochs
            .apply(
                &UpdateBatch::new()
                    .add_edge(v(9), v(3))
                    .remove_edge(v(9), v(3))
                    .remove_vertex(v(2)),
            )
            .unwrap();
        assert_eq!(
            log.touched_roots(3, 4, lc, &[la, lb2, ld]),
            Some(vec![v(2)])
        );
        assert_eq!(log.touched_roots(3, 4, la, &[lc]), Some(vec![v(0)]));
        assert_eq!(log.touched_roots(3, 4, lb2, &[lc]), Some(vec![v(1)]));
        assert_eq!(log.touched_roots(3, 4, ld, &[lc]), Some(vec![v(3)]));
        assert_eq!(log.touched_roots(3, 4, la, &[ld]), Some(vec![]));
        assert_eq!(log.len(), 4);
        assert_eq!(
            log.touched_roots(0, 5, lc, &[la]),
            None,
            "epoch 5 not recorded yet: coverage is incomplete"
        );
    }

    #[test]
    fn touch_log_is_a_ring_capped_by_triples() {
        let batch = |n: usize| -> Vec<Touch> {
            (0..n as u64)
                .map(|i| ((LabelId(0), LabelId(1)), v(i)))
                .collect()
        };
        let log = EpochTouchLog::starting_at(1);
        log.record(1, batch(LOG_TRIPLE_CAP / 2));
        log.record(2, batch(LOG_TRIPLE_CAP / 2));
        assert_eq!(log.len(), 2, "exactly at the cap: nothing dropped");
        assert!(log.touched_roots(0, 2, LabelId(0), &[LabelId(1)]).is_some());
        log.record(3, batch(1));
        assert_eq!(log.len(), 2, "over the cap: the oldest epoch goes");
        assert!(log.memory_bytes() <= LOG_TRIPLE_CAP * std::mem::size_of::<Touch>());
        assert_eq!(
            log.touched_roots(0, 3, LabelId(0), &[LabelId(1)]),
            None,
            "a range starting behind the ring is not covered"
        );
        assert_eq!(
            log.touched_roots(1, 3, LabelId(0), &[LabelId(1)])
                .map(|r| r.len()),
            Some(LOG_TRIPLE_CAP / 2)
        );
        // One batch larger than the whole cap empties the ring; the next
        // epoch starts a fresh one.
        log.record(4, batch(LOG_TRIPLE_CAP + 1));
        assert!(log.is_empty());
        assert_eq!(log.memory_bytes(), 0);
        assert_eq!(log.touched_roots(3, 4, LabelId(0), &[LabelId(1)]), None);
        log.record(5, batch(1));
        assert_eq!(
            log.touched_roots(4, 5, LabelId(0), &[LabelId(1)]),
            Some(vec![v(0)])
        );
    }

    #[test]
    fn readers_pinned_across_concurrent_seal_see_identical_data() {
        let epochs = GraphEpochs::new(small_cloud(4));
        epochs
            .apply(
                &UpdateBatch::new()
                    .add_vertex(v(10), "x")
                    .add_edge(v(10), v(0))
                    .remove_edge(v(2), v(3)),
            )
            .unwrap();
        let pinned = epochs.pin();
        let baseline = observe(pinned.cloud());
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                for _ in 0..50 {
                    assert_eq!(observe(pinned.cloud()), baseline);
                }
            });
            let writer = scope.spawn(|| {
                for i in 0..10u64 {
                    epochs
                        .apply(&UpdateBatch::new().add_vertex(v(100 + i), "y"))
                        .unwrap();
                    epochs.seal_epoch();
                }
            });
            reader.join().unwrap();
            writer.join().unwrap();
        });
        assert_eq!(epochs.epoch(), 11);
        assert_eq!(observe(pinned.cloud()), baseline, "pin survived 10 seals");
    }
}
