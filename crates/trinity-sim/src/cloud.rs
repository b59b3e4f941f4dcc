//! The memory cloud: a labeled graph hash-partitioned across logical
//! machines, exposing the paper's three atomic operators
//! (`Cloud.Load`, `Index.getID`, `Index.hasLabel`) plus traffic accounting.

use crate::cluster_graph::LabelPairCatalog;
use crate::compact::{Neighbors, Postings};
use crate::ids::{LabelId, LabelInterner, MachineId, VertexId};
use crate::network::{CostModel, Network, TrafficSnapshot};
use crate::partition::{Cell, Partition, StorageBytes};

/// Size, in bytes, charged for shipping one vertex id over the network.
pub const VERTEX_ID_BYTES: u64 = 8;
/// Size, in bytes, charged for a small control message (e.g. a label probe).
pub const PROBE_BYTES: u64 = 16;

/// Deterministic vertex → machine assignment.
///
/// The paper randomly partitions the graph by hashing node ids; we use a
/// Fibonacci-style multiplicative hash so that consecutive ids spread evenly.
/// A power-of-two machine count reduces with a mask instead of a divide —
/// the same owner for every id, at a fraction of the cost on a path every
/// neighbor of every explored root takes.
#[inline]
pub fn machine_for(id: VertexId, num_machines: usize) -> MachineId {
    debug_assert!(num_machines > 0 && num_machines <= u16::MAX as usize);
    let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let n = num_machines as u64;
    let owner = if n.is_power_of_two() {
        h & (n - 1)
    } else {
        h % n
    };
    MachineId(owner as u16)
}

/// A labeled graph stored across `P` logical machines.
///
/// All reads go through methods that take the *calling* machine so that
/// cross-partition accesses can be charged to the simulated [`Network`].
///
/// # Ownership invariant
///
/// Data crosses a partition boundary **by value only**: a machine that needs
/// another machine's cells or postings sends a batched request over a
/// [`crate::transport::Transport`] and receives owned labels,
/// [`crate::partition::CellBuf`]s or id vectors back. The remaining access
/// surfaces fall into three tiers:
///
/// * **Partition-local** (`load_local`, `label_of_local`, `owns_local`,
///   `get_ids`): only ever touch the calling machine's own partition — the
///   operators a message-passing executor is allowed to use.
/// * **Direct-read** (`load`, `has_label`, and the matcher's bulk
///   equivalents — `partition(owner)` reads or every owner's `get_ids`,
///   charged through [`Network::charge_label_probes`]): may dereference a *remote*
///   partition in place, handing out borrows of
///   foreign memory (`Cell<'_>` borrowing the owner's adjacency). They model
///   Trinity's one-sided reads for the legacy `DirectRead` execution mode,
///   charge estimated traffic, and tally every remote dereference via
///   [`Network::direct_remote_reads`] so tests can prove an execution
///   performed none.
/// * **Global** (`*_global`, `all_ids_with_label`, `iter_vertices`,
///   `contains_vertex`): bypass both accounting and ownership. They exist
///   solely for graph construction, statistics, result verification and the
///   single-machine baselines (Ullmann/VF2/edge-join assume a fully
///   addressable graph); distributed execution must not call them.
///
/// Fields are crate-visible so the epoch manager ([`crate::epoch`]) can
/// assemble successor snapshots directly; everything outside the crate goes
/// through the accessors. Cloning is cheap by construction — partitions are
/// `Arc`-backed and the network/catalog are shared — so an epoch snapshot is
/// a handful of `Arc` bumps plus the frequency table.
#[derive(Debug, Clone)]
pub struct MemoryCloud {
    pub(crate) partitions: Vec<Partition>,
    /// `Arc`-shared between snapshots like the catalog: an update copies it
    /// only when it interns a new label.
    pub(crate) interner: std::sync::Arc<LabelInterner>,
    /// The traffic aggregate, shared across every snapshot of a lineage:
    /// queries pinned to different epochs retire into one total.
    pub(crate) network: std::sync::Arc<Network>,
    /// Global number of vertices carrying each label, indexed by `LabelId`.
    pub(crate) label_frequency: Vec<u64>,
    /// Catalog of label pairs observed between each machine pair; feeds the
    /// query-specific cluster graph of §5.3. `Arc`-shared between snapshots
    /// and replaced copy-on-write when an update adds pairs.
    pub(crate) catalog: std::sync::Arc<LabelPairCatalog>,
    pub(crate) num_vertices: u64,
    pub(crate) num_edges: u64,
    pub(crate) directed: bool,
    /// Epoch this snapshot observes: 0 for a freshly built (static) cloud,
    /// bumped by every effective [`crate::epoch::GraphEpochs::apply`].
    pub(crate) epoch: u64,
    /// Nonzero id tying every snapshot of one [`crate::epoch::GraphEpochs`]
    /// together (0 for static clouds never handed to an epoch manager).
    /// Snapshots of the same lineage differ only by their epoch's deltas.
    pub(crate) lineage: u64,
    /// Per-epoch touched-entry log of this lineage, when managed.
    pub(crate) touch_log: Option<std::sync::Arc<crate::epoch::EpochTouchLog>>,
    /// The price of traffic, which the executor applies to a query's ledger.
    pub(crate) cost: CostModel,
}

// The distributed executor — and, one level up, the multi-query engine's
// worker pool — shares one `&MemoryCloud` across worker threads: every
// component is either plain owned data (partitions, interner, catalog,
// frequency table) or atomics (the network counters), so the cloud is
// `Send + Sync` by construction. These assertions turn an accidental
// introduction of non-thread-safe interior mutability (`Cell`, `Rc`, ...)
// into a compile error instead of a runtime surprise. `Cell<'_>` (the value
// `Cloud.Load` hands out, borrowing a partition's adjacency) is asserted
// too: concurrent queries hold cells across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<MemoryCloud>();
    assert_send_sync::<Partition>();
    assert_send_sync::<Network>();
    assert_send_sync::<LabelInterner>();
    assert_send_sync::<LabelPairCatalog>();
    assert_send_sync::<Cell<'static>>();
};

impl MemoryCloud {
    /// Assembles a cloud from already-partitioned data. Intended to be called
    /// by [`crate::builder::GraphBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        partitions: Vec<Partition>,
        interner: LabelInterner,
        cost: CostModel,
        label_frequency: Vec<u64>,
        catalog: LabelPairCatalog,
        num_vertices: u64,
        num_edges: u64,
        directed: bool,
    ) -> Self {
        let network = std::sync::Arc::new(Network::new(partitions.len()));
        MemoryCloud {
            partitions,
            interner: std::sync::Arc::new(interner),
            network,
            label_frequency,
            catalog: std::sync::Arc::new(catalog),
            num_vertices,
            num_edges,
            directed,
            epoch: 0,
            lineage: 0,
            touch_log: None,
            cost,
        }
    }

    // ------------------------------------------------------------------
    // Epoch metadata (see `crate::epoch`)
    // ------------------------------------------------------------------

    /// The epoch this snapshot observes. A freshly built cloud is epoch 0;
    /// every effective update batch applied through a
    /// [`crate::epoch::GraphEpochs`] advances it by one. Sealing merges
    /// overlays without changing observable content, so it keeps the epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nonzero lineage id shared by every snapshot of one
    /// [`crate::epoch::GraphEpochs`]; 0 for static clouds. Two clouds with
    /// the same nonzero lineage hold the same graph *history* — only their
    /// [`MemoryCloud::epoch`] distinguishes them.
    #[inline]
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The lineage's per-epoch touched-entry log, when this snapshot is
    /// managed by a [`crate::epoch::GraphEpochs`]. Caches use it to prove a
    /// stale entry's label pairs untouched, or to learn which roots to
    /// re-explore.
    pub fn epoch_touch_log(&self) -> Option<&crate::epoch::EpochTouchLog> {
        self.touch_log.as_deref()
    }

    // ------------------------------------------------------------------
    // Topology & metadata
    // ------------------------------------------------------------------

    /// Number of logical machines the graph is partitioned over.
    pub fn num_machines(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of vertices in the cloud.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Total number of (undirected) edges in the cloud.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Whether the graph was built as a directed graph (adjacency is still
    /// symmetrized for exploration; see `GraphBuilder`).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The label interner (string ⇄ id mapping).
    pub fn labels(&self) -> &LabelInterner {
        &self.interner
    }

    /// The machine that owns `id`.
    #[inline]
    pub fn machine_of(&self, id: VertexId) -> MachineId {
        machine_for(id, self.partitions.len())
    }

    /// The partition owned by `machine`.
    #[inline]
    pub fn partition(&self, machine: MachineId) -> &Partition {
        &self.partitions[machine.index()]
    }

    /// All machine ids.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> {
        (0..self.partitions.len() as u16).map(MachineId)
    }

    /// The traffic aggregate: every retired query's ledger, plus what the
    /// cloud's own direct-read operators and transports built with
    /// [`crate::transport::ChannelTransport::new`] charged.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The cost model traffic on this cloud is priced with.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The label-pair catalog used to build query-specific cluster graphs.
    pub fn catalog(&self) -> &LabelPairCatalog {
        &self.catalog
    }

    /// Number of vertices in the whole cloud carrying `label` (the `freq(l)`
    /// statistic used by the f-value ranking in §5.2).
    pub fn label_frequency(&self, label: LabelId) -> u64 {
        self.label_frequency
            .get(label.index())
            .copied()
            .unwrap_or(0)
    }

    /// The neighborhood-label signature of vertex `id`, looked up in its
    /// owner's [`crate::neighbor_index::NeighborLabelIndex`]. Returns `None`
    /// when the vertex does not exist.
    ///
    /// Like the global statistics, signature probes are *not* charged to the
    /// network: the distributed executor only ever prunes roots owned by the
    /// executing machine, so the lookup is partition-local there; the
    /// single-coordinator path treats the 8-byte-per-vertex signature tier
    /// as replicated index metadata.
    #[inline]
    pub fn signature_of(&self, id: VertexId) -> Option<u64> {
        self.partitions[self.machine_of(id).index()].signature_of(id)
    }

    /// Cloud-wide resident bytes broken down by storage component (summed
    /// over all partitions).
    pub fn storage_bytes(&self) -> StorageBytes {
        let mut total = StorageBytes::default();
        for p in &self.partitions {
            total += p.storage_bytes();
        }
        total
    }

    /// Approximate total memory footprint of the stored graph (all partitions
    /// plus the label frequency table), in bytes. This is the quantity the
    /// paper's Table 1 reports as "index size + graph size" for STwig.
    pub fn memory_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.memory_bytes())
            .sum::<usize>()
            + self.label_frequency.len() * std::mem::size_of::<u64>()
    }

    // ------------------------------------------------------------------
    // The paper's atomic operators (traffic-accounted)
    // ------------------------------------------------------------------

    /// `Cloud.Load(id)`: locate the vertex `id` and return its cell (label +
    /// neighbor ids). `caller` is the machine performing the access; if the
    /// vertex lives on another machine a round-trip is charged **and the
    /// access is tallied as a direct remote read** (see the ownership
    /// invariant in the type docs) — message-passing execution uses
    /// [`MemoryCloud::load_local`] plus transport batches instead.
    pub fn load(&self, caller: MachineId, id: VertexId) -> Option<Cell<'_>> {
        let owner = self.machine_of(id);
        let cell = self.partitions[owner.index()].load(id)?;
        self.network
            .charge_load(caller, owner, cell.neighbors.len());
        Some(cell)
    }

    // ------------------------------------------------------------------
    // Partition-local operators (the message-passing executor's surface)
    // ------------------------------------------------------------------

    /// Loads the cell of a vertex **owned by `machine`**. Returns `None` when
    /// the vertex lives elsewhere (or nowhere): a partition-local executor
    /// must then request it over the transport rather than dereference the
    /// remote partition.
    #[inline]
    pub fn load_local(&self, machine: MachineId, id: VertexId) -> Option<Cell<'_>> {
        self.partitions[machine.index()].load(id)
    }

    /// Label of a vertex owned by `machine`; `None` when it lives elsewhere.
    #[inline]
    pub fn label_of_local(&self, machine: MachineId, id: VertexId) -> Option<LabelId> {
        self.partitions[machine.index()].label_of(id)
    }

    /// Whether `machine` owns vertex `id` (a pure hash computation — owning
    /// machines can answer this for any id without communication).
    #[inline]
    pub fn owns_local(&self, machine: MachineId, id: VertexId) -> bool {
        self.machine_of(id) == machine
    }

    /// `Index.getID(label)`: ids of vertices with `label` that are local to
    /// `caller`. Never touches the network — each machine's string index only
    /// covers its own vertices.
    #[inline]
    pub fn get_ids(&self, caller: MachineId, label: LabelId) -> Postings<'_> {
        self.partitions[caller.index()].vertices_with_label(label)
    }

    /// `Index.hasLabel(id, label)`: whether vertex `id` carries `label`.
    /// Charged as a small probe — and tallied as a direct remote read — when
    /// `id` is remote to `caller`.
    ///
    /// This is the cloud's public single-probe operator and the *reference*
    /// for what one probe costs. The `DirectRead` matcher does not call it
    /// per probe: it charges the same estimate through
    /// [`Network::charge_label_probes`], one call per owner per
    /// exploration (`tests/direct_read_accounting.rs` pins that the two
    /// account identically, cell for cell).
    pub fn has_label(&self, caller: MachineId, id: VertexId, label: LabelId) -> bool {
        let owner = self.machine_of(id);
        self.network.charge_label_probes(caller, owner, 1);
        self.partitions[owner.index()].label_of(id) == Some(label)
    }

    /// Snapshot of the traffic aggregate ([`MemoryCloud::network`]).
    pub fn traffic(&self) -> TrafficSnapshot {
        self.network.snapshot()
    }

    /// Accesses in the traffic aggregate that dereferenced a remote
    /// partition in place instead of going through a transport (see the
    /// ownership invariant in the type docs).
    pub fn direct_remote_reads(&self) -> u64 {
        self.network.direct_remote_reads()
    }

    // ------------------------------------------------------------------
    // Accounting-free global accessors. Per the ownership invariant (type
    // docs): construction, statistics, verification and the single-machine
    // baselines only — never distributed execution.
    // ------------------------------------------------------------------

    /// Label of `id`, bypassing traffic accounting.
    pub fn label_of_global(&self, id: VertexId) -> Option<LabelId> {
        self.partitions[self.machine_of(id).index()].label_of(id)
    }

    /// Neighbors of `id`, bypassing traffic accounting.
    pub fn neighbors_global(&self, id: VertexId) -> Neighbors<'_> {
        self.partitions[self.machine_of(id).index()]
            .load(id)
            .map(|c| c.neighbors)
            .unwrap_or_default()
    }

    /// Degree of `id`, bypassing traffic accounting.
    pub fn degree_global(&self, id: VertexId) -> usize {
        self.neighbors_global(id).len()
    }

    /// Whether the edge `(u, v)` exists, bypassing traffic accounting.
    pub fn has_edge_global(&self, u: VertexId, v: VertexId) -> bool {
        self.partitions[self.machine_of(u).index()].has_edge(u, v)
    }

    /// All vertex ids with `label` across every machine (sorted by machine,
    /// then id), bypassing traffic accounting.
    pub fn all_ids_with_label(&self, label: LabelId) -> Vec<VertexId> {
        let mut out = Vec::new();
        for p in &self.partitions {
            out.extend(p.vertices_with_label(label));
        }
        out
    }

    /// Iterates every vertex id in the cloud.
    pub fn iter_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.partitions.iter().flat_map(|p| p.iter_vertices())
    }

    /// Checks whether a vertex exists anywhere in the cloud.
    pub fn contains_vertex(&self, id: VertexId) -> bool {
        self.partitions[self.machine_of(id).index()].owns(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::network::Phase;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// Builds a small test cloud over `machines` machines:
    /// a triangle a(0)-b(1)-c(2)-a(0) plus a pendant d(3) attached to c.
    fn small_cloud(machines: usize) -> MemoryCloud {
        let mut b = GraphBuilder::new_undirected();
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

    #[test]
    fn machine_assignment_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 8, 12] {
            for id in 0..1000u64 {
                let m = machine_for(v(id), n);
                assert!(m.index() < n);
                assert_eq!(m, machine_for(v(id), n));
            }
        }
    }

    #[test]
    fn machine_assignment_balances_partitions() {
        // Partition-balance property: over both a consecutive and a
        // pseudo-random id universe, the largest partition stays within 5%
        // of the smallest for every machine count we deploy with. An
        // unbalanced hash would skew per-machine exploration load and break
        // the speed-up experiments' scaling assumption.
        let universes: [(&str, Vec<u64>); 2] = [
            ("consecutive", (0..100_000u64).collect()),
            ("lcg", {
                let mut x = 0x1234_5678_9ABC_DEF0u64;
                (0..100_000)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        x
                    })
                    .collect()
            }),
        ];
        for (name, ids) in &universes {
            for n in [2usize, 4, 7, 16] {
                let mut counts = vec![0u64; n];
                for &id in ids {
                    counts[machine_for(v(id), n).index()] += 1;
                }
                let max = *counts.iter().max().unwrap();
                let min = *counts.iter().min().unwrap();
                assert!(min > 0, "empty partition ({name}, {n} machines)");
                let ratio = max as f64 / min as f64;
                assert!(
                    ratio <= 1.05,
                    "partition imbalance {ratio:.4} ({name}, {n} machines)"
                );
            }
        }
    }

    #[test]
    fn machine_assignment_is_pinned() {
        // Regression pin: `machine_for` is part of the on-disk/persistent
        // contract — partition layouts, cached cloud fingerprints and the
        // cache's per-machine canonical tables all assume this exact
        // assignment. If the hash constant or reduction ever changes, this
        // test must fail loudly rather than silently invalidating them.
        let pins: [(u64, usize, u16); 12] = [
            (0, 4, 0),
            (1, 4, 1),
            (2, 4, 2),
            (42, 4, 2),
            (1_000_000, 4, 0),
            (0, 7, 0),
            (1, 7, 4),
            (12_345, 7, 4),
            (987_654_321, 7, 2),
            (1, 16, 5),
            (255, 16, 11),
            (1_000_000_007, 16, 3),
        ];
        for (id, machines, expected) in pins {
            assert_eq!(
                machine_for(v(id), machines),
                MachineId(expected),
                "machine_for({id}, {machines}) changed — cached fingerprints \
                 and partition layouts would silently go stale"
            );
        }
    }

    #[test]
    fn masked_reduction_equals_the_modulo() {
        for n in 1..=9usize {
            for id in 0..10_000u64 {
                let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let want = MachineId((h % n as u64) as u16);
                assert_eq!(machine_for(v(id), n), want, "id {id}, {n} machines");
            }
        }
    }

    #[test]
    fn load_returns_cell_and_charges_remote_access() {
        let cloud = small_cloud(4);
        let id = v(2);
        let owner = cloud.machine_of(id);
        let other = cloud
            .machines()
            .find(|&m| m != owner)
            .expect("at least two machines");
        cloud.network().reset();
        let cell = cloud.load(other, id).unwrap();
        assert_eq!(cloud.labels().name(cell.label), Some("c"));
        assert_eq!(cell.neighbors.len(), 3);
        assert!(cloud.traffic().total_messages() >= 2);

        cloud.network().reset();
        let _ = cloud.load(owner, id).unwrap();
        assert_eq!(cloud.traffic().total_messages(), 0);
    }

    #[test]
    fn get_ids_is_local_only() {
        let cloud = small_cloud(2);
        let label = cloud.labels().get("a").unwrap();
        cloud.network().reset();
        let mut found = 0;
        for m in cloud.machines() {
            found += cloud.get_ids(m, label).len();
        }
        assert_eq!(found, 1);
        assert_eq!(cloud.traffic().total_messages(), 0);
    }

    #[test]
    fn has_label_answers_correctly() {
        let cloud = small_cloud(3);
        let la = cloud.labels().get("a").unwrap();
        let lb = cloud.labels().get("b").unwrap();
        let caller = MachineId(0);
        assert!(cloud.has_label(caller, v(0), la));
        assert!(!cloud.has_label(caller, v(0), lb));
        assert!(!cloud.has_label(caller, v(999), la));
    }

    #[test]
    fn bulk_probe_charge_equals_that_many_single_probes() {
        let cloud = small_cloud(3);
        let la = cloud.labels().get("a").unwrap();
        let caller = MachineId(0);
        let remote = (0..4u64)
            .map(v)
            .find(|&id| cloud.machine_of(id) != caller)
            .expect("some vertex is remote to machine 0");
        cloud.network().reset();
        for _ in 0..5 {
            cloud.has_label(caller, remote, la);
        }
        let (single, single_reads) = (cloud.traffic(), cloud.direct_remote_reads());
        assert_eq!(single_reads, 5);
        cloud.network().reset();
        let network = cloud.network();
        network.charge_label_probes(caller, cloud.machine_of(remote), 5);
        network.charge_label_probes(caller, caller, 5); // local probes are free
        network.charge_label_probes(caller, cloud.machine_of(remote), 0);
        assert_eq!(cloud.traffic(), single);
        assert_eq!(cloud.direct_remote_reads(), single_reads);
    }

    #[test]
    fn global_accessors_bypass_network() {
        let cloud = small_cloud(4);
        cloud.network().reset();
        assert_eq!(cloud.neighbors_global(v(2)).len(), 3);
        assert_eq!(cloud.degree_global(v(3)), 1);
        assert!(cloud.has_edge_global(v(0), v(1)));
        assert!(!cloud.has_edge_global(v(0), v(3)));
        assert_eq!(
            cloud.label_of_global(v(1)),
            Some(cloud.labels().get("b").unwrap())
        );
        assert_eq!(cloud.traffic().total_messages(), 0);
    }

    #[test]
    fn label_frequency_counts_all_machines() {
        let cloud = small_cloud(4);
        for name in ["a", "b", "c", "d"] {
            let l = cloud.labels().get(name).unwrap();
            assert_eq!(cloud.label_frequency(l), 1, "label {name}");
        }
    }

    #[test]
    fn all_ids_with_label_unions_machines() {
        let cloud = small_cloud(4);
        let l = cloud.labels().get("d").unwrap();
        assert_eq!(cloud.all_ids_with_label(l), vec![v(3)]);
    }

    #[test]
    fn ship_rows_records_bytes() {
        let cloud = small_cloud(2);
        cloud.network().reset();
        let ship = |dst| {
            cloud
                .network()
                .ship_rows(MachineId(0), dst, 10, 3, Phase::Join)
        };
        ship(MachineId(1));
        assert_eq!(cloud.traffic().total_bytes(), 10 * 3 * VERTEX_ID_BYTES);
        // local shipping is free
        ship(MachineId(0));
        assert_eq!(cloud.traffic().total_bytes(), 10 * 3 * VERTEX_ID_BYTES);
    }

    #[test]
    fn concurrent_readers_see_consistent_data() {
        // The multi-query engine drives many queries over one `&MemoryCloud`
        // at once: every read operator must return the same answers under
        // concurrent access as serially, and the traffic counters (atomics)
        // must account every charged access without losing updates.
        let cloud = small_cloud(4);
        let labels: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| cloud.labels().get(n).unwrap())
            .collect();
        // Serial baseline: per-vertex (label, degree) plus local posting counts.
        let baseline: Vec<(Option<crate::ids::LabelId>, usize)> = (0..4u64)
            .map(|i| (cloud.label_of_global(v(i)), cloud.degree_global(v(i))))
            .collect();
        cloud.network().reset();
        let rounds = 64usize;
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let cloud = &cloud;
                let labels = &labels;
                let baseline = &baseline;
                scope.spawn(move || {
                    let caller = MachineId(t % 4);
                    for _ in 0..rounds {
                        for i in 0..4u64 {
                            let id = v(i);
                            assert_eq!(cloud.label_of_global(id), baseline[i as usize].0);
                            if let Some(cell) = cloud.load(caller, id) {
                                assert_eq!(cell.neighbors.len(), baseline[i as usize].1);
                            }
                            assert!(cloud.has_label(caller, id, baseline[i as usize].0.unwrap()));
                        }
                        let mut found = 0;
                        for m in cloud.machines() {
                            for &l in labels.iter() {
                                found += cloud.get_ids(m, l).len();
                            }
                        }
                        assert_eq!(found, 4);
                    }
                });
            }
        });
        // Each thread charges a deterministic number of remote accesses per
        // round; the atomic counters must have lost none of them.
        let per_round: u64 = {
            cloud.network().reset();
            let caller = MachineId(0);
            for i in 0..4u64 {
                let id = v(i);
                let _ = cloud.load(caller, id);
                let _ = cloud.has_label(caller, id, cloud.label_of_global(id).unwrap());
            }
            cloud.traffic().total_messages()
        };
        cloud.network().reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cloud = &cloud;
                scope.spawn(move || {
                    let caller = MachineId(0);
                    for _ in 0..rounds {
                        for i in 0..4u64 {
                            let id = v(i);
                            let _ = cloud.load(caller, id);
                            let _ = cloud.has_label(caller, id, cloud.label_of_global(id).unwrap());
                        }
                    }
                });
            }
        });
        assert_eq!(
            cloud.traffic().total_messages(),
            per_round * 4 * rounds as u64,
            "traffic accounting dropped updates under concurrency"
        );
    }

    #[test]
    fn vertex_iteration_and_containment() {
        let cloud = small_cloud(3);
        let mut ids: Vec<_> = cloud.iter_vertices().collect();
        ids.sort();
        assert_eq!(ids, vec![v(0), v(1), v(2), v(3)]);
        assert!(cloud.contains_vertex(v(0)));
        assert!(!cloud.contains_vertex(v(17)));
        assert_eq!(cloud.num_vertices(), 4);
        assert_eq!(cloud.num_edges(), 4);
    }
}
