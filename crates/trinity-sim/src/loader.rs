//! Streaming bulk loader: the one way a [`MemoryCloud`] is built. It reads
//! an *edge iterator* in bounded memory, never staging the whole edge list
//! or a per-vertex `Vec<Vec<VertexId>>` adjacency;
//! [`crate::builder::GraphBuilder`] is a front end that stages its input
//! and streams it through here.
//!
//! The paper loads billion-edge graphs into Trinity by streaming the input
//! through a fixed loading pipeline (Table 2 reports the times); holding the
//! whole edge list — let alone a per-vertex nested structure — in memory is
//! exactly what a 10M+-vertex load cannot afford. The loader instead makes
//! `1 + M` passes over the edge stream (`M` = machine count):
//!
//! 1. **Vertex pass**: hash-partition `(id, label)` pairs, rejecting a
//!    label the interner never issued, sort each machine's vertices, move
//!    each machine's ids into its [`IdIndex`] and count label frequencies.
//!    Edge endpoints are located through the indexes; no id array outlives
//!    this pass.
//! 2. **Degree pass**: one pass over the edges counting, per machine, each
//!    local vertex's entry count (duplicates included — they are cheap to
//!    count and removed at encode time).
//! 3. **Per-machine fill passes**: for one machine at a time, scatter that
//!    machine's neighbor entries into an exact-size flat array, then sort,
//!    deduplicate and encode each run in place — building the partition's
//!    adjacency, pruning signatures and catalog contributions in the same
//!    sweep. Peak staging is the *largest single machine's* entry
//!    count, not the whole graph's (`tests/alloc_peak.rs` holds the load
//!    to that bound).
//!
//! The edge stream is supplied as a factory (`Fn() -> IntoIterator`) so the
//! loader can re-iterate it; generators like `graph-gen`'s streaming R-MAT
//! recompute edges from a counter instead of storing them. Reading the
//! stream, not encoding, is most of a streamed load's time; DESIGN.md
//! ("Streaming bulk load") gives the measured split.

use crate::cloud::{machine_for, MemoryCloud};
use crate::cluster_graph::LabelPairCatalog;
use crate::compact::{CompactCsr, CompactCsrBuilder, IdIndex, StorageTier};
use crate::error::TrinityError;
use crate::ids::{LabelId, LabelInterner, MachineId, VertexId};
use crate::neighbor_index::{label_bit, NeighborLabelIndex};
use crate::network::CostModel;
use crate::partition::Partition;

/// Builds a [`MemoryCloud`] from vertex and edge streams in bounded memory.
///
/// Every cloud is built here — [`crate::builder::GraphBuilder`] is a front
/// end — and never materializes the edge list or nested adjacency. The
/// loader tests hold its output to a naive reference computed from the raw
/// vertex and edge lists.
#[derive(Debug, Clone)]
pub struct StreamLoader {
    num_machines: usize,
    cost: CostModel,
    directed: bool,
}

impl StreamLoader {
    /// A loader targeting `num_machines` logical machines.
    pub fn new(num_machines: usize, cost: CostModel) -> Self {
        StreamLoader {
            num_machines,
            cost,
            directed: false,
        }
    }

    /// Accepts a [`StorageTier`] for compatibility and stores nothing:
    /// every partition is compact.
    pub fn with_storage_tier(self, _tier: StorageTier) -> Self {
        self
    }

    /// Marks the input as a directed graph. Adjacency is still symmetrized,
    /// matching [`crate::builder::GraphBuilder::new_directed`].
    pub fn with_directed(mut self, directed: bool) -> Self {
        self.directed = directed;
        self
    }

    /// Streams the graph into a cloud.
    ///
    /// * `interner` — the label alphabet; a streamed [`LabelId`] it never
    ///   issued fails with [`TrinityError::UnknownLabel`].
    /// * `vertices` — one `(id, label)` pair per vertex; a repeated id
    ///   keeps its *last* label (same overwrite semantics as
    ///   [`crate::builder::GraphBuilder::add_vertex`]).
    /// * `edges` — a factory returning a fresh edge iterator each call; it
    ///   is invoked `1 + num_machines` times. Self loops are ignored,
    ///   duplicate edges deduplicated, and an edge endpoint that never
    ///   appeared in `vertices` fails with
    ///   [`TrinityError::UnknownVertex`].
    pub fn load<V, F, E>(
        &self,
        interner: LabelInterner,
        vertices: V,
        edges: F,
    ) -> Result<MemoryCloud, TrinityError>
    where
        V: IntoIterator<Item = (VertexId, LabelId)>,
        F: Fn() -> E,
        E: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let m = self.num_machines;
        if m == 0 || m > u16::MAX as usize {
            return Err(TrinityError::InvalidMachineCount(m));
        }
        let num_labels = interner.len();

        // ------------------------------------------------------------------
        // Pass 1: vertices → per-machine sorted (id, label), id indexes,
        // label frequencies.
        // ------------------------------------------------------------------
        let mut per_machine: Vec<Vec<(VertexId, LabelId)>> = vec![Vec::new(); m];
        for (id, label) in vertices {
            if label.index() >= num_labels {
                return Err(TrinityError::UnknownLabel(label));
            }
            per_machine[machine_for(id, m).index()].push((id, label));
        }
        let mut id_indexes: Vec<IdIndex> = Vec::with_capacity(m);
        let mut machine_labels: Vec<Vec<LabelId>> = Vec::with_capacity(m);
        let mut label_frequency = vec![0u64; num_labels];
        let mut num_vertices = 0u64;
        for list in &mut per_machine {
            // Stable sort keeps duplicate ids in stream order; the compaction
            // below keeps the *last* pair of each run of equal ids: a
            // repeated id keeps its last label.
            list.sort_by_key(|&(id, _)| id);
            let mut w = 0usize;
            for r in 0..list.len() {
                if r + 1 < list.len() && list[r + 1].0 == list[r].0 {
                    continue;
                }
                list[w] = list[r];
                w += 1;
            }
            list.truncate(w);
            num_vertices += w as u64;
            let mut ids = Vec::with_capacity(w);
            let mut labels = Vec::with_capacity(w);
            for &(id, label) in list.iter() {
                ids.push(id);
                labels.push(label);
                label_frequency[label.index()] += 1;
            }
            list.clear();
            list.shrink_to_fit();
            id_indexes.push(IdIndex::build(ids));
            machine_labels.push(labels);
        }
        drop(per_machine);
        if num_vertices == 0 {
            return Err(TrinityError::EmptyGraph);
        }
        let locate = |id: VertexId| -> Result<(usize, usize), TrinityError> {
            let mach = machine_for(id, m).index();
            id_indexes[mach]
                .local_of(id)
                .map(|local| (mach, local))
                .ok_or(TrinityError::UnknownVertex(id))
        };

        // ------------------------------------------------------------------
        // Pass 2: count per-local-vertex entries (duplicates included),
        // validating endpoints once.
        // ------------------------------------------------------------------
        let mut degrees: Vec<Vec<u32>> = machine_labels
            .iter()
            .map(|labels| vec![0u32; labels.len()])
            .collect();
        for (u, v) in edges() {
            if u == v {
                continue;
            }
            let (mu, lu) = locate(u)?;
            let (mv, lv) = locate(v)?;
            degrees[mu][lu] += 1;
            degrees[mv][lv] += 1;
        }

        // ------------------------------------------------------------------
        // Passes 3..: per machine, scatter → sort/dedup in place → encode.
        // ------------------------------------------------------------------
        let mut catalog = LabelPairCatalog::new(m, num_labels);
        let mut adjacencies: Vec<CompactCsr> = Vec::with_capacity(m);
        let mut neighbor_indexes: Vec<NeighborLabelIndex> = Vec::with_capacity(m);
        let mut total_entries = 0u64;
        for mach in 0..m {
            let n_local = machine_labels[mach].len();
            let counts = std::mem::take(&mut degrees[mach]);
            let mut starts = Vec::with_capacity(n_local + 1);
            let mut running = 0usize;
            starts.push(0);
            for &d in &counts {
                running += d as usize;
                starts.push(running);
            }
            drop(counts);
            // Exact-size flat staging for this machine only: the loader's
            // peak is max over machines, not the sum.
            let mut staging = vec![VertexId(0); running];
            let mut cursor: Vec<usize> = starts[..n_local].to_vec();
            for (u, v) in edges() {
                if u == v {
                    continue;
                }
                if machine_for(u, m).index() == mach {
                    let (_, local) = locate(u)?;
                    staging[cursor[local]] = v;
                    cursor[local] += 1;
                }
                if machine_for(v, m).index() == mach {
                    let (_, local) = locate(v)?;
                    staging[cursor[local]] = u;
                    cursor[local] += 1;
                }
            }
            drop(cursor);
            // Sort and deduplicate each run in place, then encode it; build
            // the signatures and the catalog contribution over the
            // deduplicated runs. Every unique edge appears in exactly two
            // runs cloud-wide (one per endpoint), so recording one catalog
            // edge per deduplicated entry records each edge both ways.
            let mut sigs = Vec::with_capacity(n_local);
            let mut adjacency = CompactCsrBuilder::with_capacity(n_local);
            for local in 0..n_local {
                let run = &mut staging[starts[local]..starts[local + 1]];
                run.sort_unstable();
                let mut run_len = 0usize;
                for r in 0..run.len() {
                    if run_len > 0 && run[r] == run[run_len - 1] {
                        continue;
                    }
                    run[run_len] = run[r];
                    run_len += 1;
                }
                let run = &run[..run_len];
                let own_label = machine_labels[mach][local];
                let mut sig = 0u64;
                for &nbr in run {
                    let (mn, ln) = locate(nbr)?;
                    let nbr_label = machine_labels[mn][ln];
                    sig |= label_bit(nbr_label);
                    catalog.record_edge(
                        MachineId(mach as u16),
                        own_label,
                        MachineId(mn as u16),
                        nbr_label,
                    );
                }
                sigs.push(sig);
                adjacency.push_run(run);
                total_entries += run_len as u64;
            }
            drop(staging);
            adjacencies.push(adjacency.finish());
            neighbor_indexes.push(NeighborLabelIndex::from_signatures(sigs));
        }
        drop(degrees);

        // ------------------------------------------------------------------
        // Assembly.
        // ------------------------------------------------------------------
        let mut partitions = Vec::with_capacity(m);
        for (((ids, labels), adjacency), neighbor_index) in id_indexes
            .into_iter()
            .zip(machine_labels)
            .zip(adjacencies)
            .zip(neighbor_indexes)
        {
            partitions.push(Partition::from_encoded_parts(
                ids,
                labels,
                adjacency,
                num_labels,
                neighbor_index,
            ));
        }
        Ok(MemoryCloud::from_parts(
            partitions,
            interner,
            self.cost,
            label_frequency,
            catalog,
            num_vertices,
            total_entries / 2,
            self.directed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// A deterministic pseudo-random labeled graph, available both as
    /// builder input and as streams.
    #[allow(clippy::type_complexity)]
    fn test_graph(
        n: u64,
        edges_per_vertex: u64,
    ) -> (Vec<(VertexId, &'static str)>, Vec<(VertexId, VertexId)>) {
        let names = ["a", "b", "c"];
        let vertices: Vec<(VertexId, &'static str)> =
            (0..n).map(|i| (v(i), names[(i % 3) as usize])).collect();
        let mut edges = Vec::new();
        let mut x = 0x5EEDu64;
        for i in 0..n {
            for _ in 0..edges_per_vertex {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                edges.push((v(i), v(x % n)));
            }
        }
        (vertices, edges)
    }

    fn build_via_builder(
        vertices: &[(VertexId, &'static str)],
        edges: &[(VertexId, VertexId)],
    ) -> MemoryCloud {
        let mut b = GraphBuilder::new_undirected();
        for &(id, name) in vertices {
            b.add_vertex(id, name);
        }
        for &(u, w) in edges {
            b.add_edge(u, w);
        }
        b.build(4, CostModel::free())
    }

    fn build_via_loader(
        vertices: &[(VertexId, &'static str)],
        edges: &[(VertexId, VertexId)],
    ) -> MemoryCloud {
        let mut interner = LabelInterner::default();
        for name in ["a", "b", "c"] {
            interner.intern(name);
        }
        let vs: Vec<(VertexId, LabelId)> = vertices
            .iter()
            .map(|&(id, name)| (id, interner.get(name).unwrap()))
            .collect();
        StreamLoader::new(4, CostModel::free())
            .load(interner, vs, || edges.iter().copied())
            .unwrap()
    }

    /// Holds `cloud` to a reference computed from the raw vertex and edge
    /// lists alone: the last label of every vertex, its sorted,
    /// deduplicated, loop-free neighbour set and the OR of its neighbours'
    /// label bits; each machine's sorted ids, overall and per label; the
    /// distinct unordered edges and the label frequencies; and a catalog
    /// pair both ways for every edge.
    fn assert_matches_reference(
        cloud: &MemoryCloud,
        vertices: &[(VertexId, LabelId)],
        edges: &[(VertexId, VertexId)],
    ) {
        let label: BTreeMap<VertexId, LabelId> = vertices.iter().copied().collect();
        let mut neighbors: BTreeMap<VertexId, BTreeSet<VertexId>> = BTreeMap::new();
        let mut pairs: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        for &(a, b) in edges.iter().filter(|(a, b)| a != b) {
            neighbors.entry(a).or_default().insert(b);
            neighbors.entry(b).or_default().insert(a);
            pairs.insert((a.min(b), a.max(b)));
        }
        assert_eq!(cloud.num_vertices(), label.len() as u64);
        assert_eq!(cloud.num_edges(), pairs.len() as u64);
        let none = BTreeSet::new();
        for (&id, &l) in &label {
            let want = neighbors.get(&id).unwrap_or(&none);
            assert_eq!(cloud.label_of_global(id), Some(l), "label {id}");
            assert_eq!(
                cloud.neighbors_global(id).to_vec(),
                want.iter().copied().collect::<Vec<_>>(),
                "adjacency {id}"
            );
            let signature = want.iter().fold(0, |s, n| s | label_bit(label[n]));
            assert_eq!(cloud.signature_of(id), Some(signature), "signature {id}");
        }
        let owner = |id: VertexId| machine_for(id, cloud.num_machines());
        for m in cloud.machines() {
            let partition = cloud.partition(m);
            let owned: Vec<VertexId> = label.keys().copied().filter(|&id| owner(id) == m).collect();
            assert_eq!(partition.iter_vertices().collect::<Vec<_>>(), owned, "{m}");
            for (l, _) in cloud.labels().iter() {
                let want: Vec<VertexId> =
                    owned.iter().copied().filter(|id| label[id] == l).collect();
                assert_eq!(partition.vertices_with_label(l).to_vec(), want, "{m} {l}");
            }
        }
        for (l, _) in cloud.labels().iter() {
            let count = label.values().filter(|&&x| x == l).count() as u64;
            assert_eq!(cloud.label_frequency(l), count, "frequency {l}");
        }
        for &(a, b) in &pairs {
            let (ma, mb, la, lb) = (owner(a), owner(b), label[&a], label[&b]);
            assert!(cloud.catalog().has_pair(ma, la, mb, lb), "catalog {a}-{b}");
            assert!(cloud.catalog().has_pair(mb, lb, ma, la), "catalog {b}-{a}");
        }
    }

    #[test]
    fn loads_match_a_naive_reference() {
        let (vertices, edges) = test_graph(500, 4);
        for cloud in [
            build_via_loader(&vertices, &edges),
            build_via_builder(&vertices, &edges),
        ] {
            let labeled: Vec<(VertexId, LabelId)> = vertices
                .iter()
                .map(|&(id, name)| (id, cloud.labels().get(name).unwrap()))
                .collect();
            assert_matches_reference(&cloud, &labeled, &edges);
        }
    }

    /// Vertex indexes `0..n` with labels, a few relabelled again, and edges
    /// among them; every third edge is repeated reversed. Small `n` makes
    /// self loops and duplicates common.
    #[allow(clippy::type_complexity)]
    fn small_graph() -> impl Strategy<Value = (Vec<(u64, u32)>, Vec<(u64, u64)>)> {
        (1u64..24)
            .prop_flat_map(|n| {
                (
                    proptest::collection::vec(0u32..4, n as usize),
                    proptest::collection::vec((0..n, 0u32..4), 0..6),
                    proptest::collection::vec((0..n, 0..n), 0..60),
                )
            })
            .prop_map(|(labels, relabels, mut edges)| {
                let mut vertices: Vec<(u64, u32)> = (0..).zip(labels).collect();
                vertices.extend(relabels);
                let reversed: Vec<(u64, u64)> =
                    edges.iter().step_by(3).map(|&(a, b)| (b, a)).collect();
                edges.extend(reversed);
                (vertices, edges)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn small_loads_match_a_naive_reference(
            graph in small_graph(),
            machines in 1usize..7,
            sparse in 0u64..2,
        ) {
            // Sparse ids are too far apart for a rank bitmap, so every
            // partition takes `IdIndex::Hashed`.
            let id = |i: u64| if sparse == 1 { v(i * 1_000_003 + i % 7) } else { v(i) };
            let (vertices, edges) = graph;
            let mut interner = LabelInterner::default();
            for name in ["a", "b", "c", "d"] {
                interner.intern(name);
            }
            let vertices: Vec<(VertexId, LabelId)> =
                vertices.iter().map(|&(i, l)| (id(i), LabelId(l))).collect();
            let edges: Vec<(VertexId, VertexId)> =
                edges.iter().map(|&(a, b)| (id(a), id(b))).collect();
            let cloud = StreamLoader::new(machines, CostModel::free())
                .load(interner, vertices.iter().copied(), || edges.iter().copied())
                .unwrap();
            assert_matches_reference(&cloud, &vertices, &edges);
            if sparse == 1 {
                let ids = cloud.num_vertices() as usize * std::mem::size_of::<VertexId>();
                prop_assert!(cloud.storage_bytes().id_map > ids, "hashed ids keep their array");
            }
        }
    }

    #[test]
    fn a_label_the_interner_never_issued_is_an_error() {
        let mut interner = LabelInterner::default();
        let la = interner.intern("a");
        let err = StreamLoader::new(2, CostModel::free())
            .load(interner, vec![(v(1), la), (v(2), LabelId(3))], || {
                [(v(1), v(2))].into_iter()
            })
            .unwrap_err();
        assert_eq!(err, TrinityError::UnknownLabel(LabelId(3)));
    }

    #[test]
    fn self_loops_and_duplicate_edges_are_dropped() {
        let vertices = vec![(v(1), "a"), (v(2), "b")];
        let edges = vec![(v(1), v(2)), (v(2), v(1)), (v(1), v(1))];
        let cloud = build_via_loader(&vertices, &edges);
        assert_eq!(cloud.num_edges(), 1);
        assert_eq!(cloud.neighbors_global(v(1)), &[v(2)]);
        assert_eq!(cloud.neighbors_global(v(2)), &[v(1)]);
    }

    #[test]
    fn duplicate_vertex_keeps_last_label() {
        let mut interner = LabelInterner::default();
        let la = interner.intern("a");
        let lb = interner.intern("b");
        let cloud = StreamLoader::new(2, CostModel::free())
            .load(interner, vec![(v(1), la), (v(1), lb)], || {
                std::iter::empty()
            })
            .unwrap();
        assert_eq!(cloud.num_vertices(), 1);
        assert_eq!(cloud.label_of_global(v(1)), Some(lb));
        assert_eq!(cloud.label_frequency(lb), 1);
        assert_eq!(cloud.label_frequency(la), 0);
    }

    #[test]
    fn unknown_endpoint_is_an_error() {
        let mut interner = LabelInterner::default();
        let la = interner.intern("a");
        let err = StreamLoader::new(2, CostModel::free())
            .load(interner, vec![(v(1), la)], || [(v(1), v(9))].into_iter())
            .unwrap_err();
        assert_eq!(err, TrinityError::UnknownVertex(v(9)));
    }

    #[test]
    fn empty_vertex_stream_is_an_error() {
        let err = StreamLoader::new(2, CostModel::free())
            .load(LabelInterner::default(), Vec::new(), std::iter::empty)
            .unwrap_err();
        assert_eq!(err, TrinityError::EmptyGraph);
    }

    #[test]
    fn invalid_machine_count_is_an_error() {
        let mut interner = LabelInterner::default();
        let la = interner.intern("a");
        let err = StreamLoader::new(0, CostModel::free())
            .load(interner, vec![(v(1), la)], std::iter::empty)
            .unwrap_err();
        assert_eq!(err, TrinityError::InvalidMachineCount(0));
    }

    #[test]
    fn directed_flag_is_preserved() {
        let mut interner = LabelInterner::default();
        let la = interner.intern("a");
        let cloud = StreamLoader::new(1, CostModel::free())
            .with_directed(true)
            .load(interner, vec![(v(1), la), (v(2), la)], || {
                [(v(1), v(2))].into_iter()
            })
            .unwrap();
        assert!(cloud.is_directed());
        assert_eq!(cloud.neighbors_global(v(2)), &[v(1)]);
    }
}
