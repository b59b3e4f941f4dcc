//! # trinity-sim
//!
//! A simulated **Trinity memory cloud**: the substrate the STwig subgraph
//! matching algorithm of *Efficient Subgraph Matching on Billion Node Graphs*
//! (Sun et al., VLDB 2012) runs on.
//!
//! The original Trinity is a distributed in-memory key/value + graph store
//! spanning a cluster of commodity machines. This crate reproduces the parts
//! of it the paper relies on, in-process:
//!
//! * a labeled graph **hash-partitioned** over `P` logical machines
//!   ([`cloud::MemoryCloud`], [`partition::Partition`]), each partition
//!   stored in one compact representation: block-packed adjacency
//!   ([`compact::CompactCsr`]) and an id index ([`compact::IdIndex`]) —
//!   arithmetic when the partition's ids fill their range, a rank bitmap
//!   when it has holes, an open-addressed map over the sorted ids
//!   otherwise;
//! * the per-machine **string index** mapping labels to local vertex IDs
//!   (`compact::CompactLabelIndex`, one block-packed run of slots per
//!   label, in the adjacency's codec) — the only index the approach uses;
//! * a **candidate-pruning index**: per-vertex neighborhood-label
//!   signatures ([`neighbor_index::NeighborLabelIndex`]), built in the same
//!   pass;
//! * the paper's three atomic operators `Cloud.Load`, `Index.getID`,
//!   `Index.hasLabel` with **cross-machine traffic accounting**
//!   ([`network::Network`], [`cost::CostModel`]);
//! * an explicit **batched message transport** between machines
//!   ([`transport::Transport`], [`transport::ChannelTransport`]) carrying
//!   typed messages — batched `Load` requests answered with owned labels
//!   or [`partition::CellBuf`]s, posting requests, binding deltas and
//!   shipped join rows — so partition-local execution never dereferences
//!   foreign memory (§4.2, §6.2);
//! * the **label-pair catalog** and query-specific **cluster graph** of §5.3
//!   used for head-STwig and load-set selection
//!   ([`cluster_graph::LabelPairCatalog`], [`cluster_graph::ClusterGraph`]);
//! * linear-time graph loading ([`loader::StreamLoader`], with
//!   [`builder::GraphBuilder`] as its in-memory front end), statistics
//!   ([`stats`]) and edge-list persistence ([`edge_list`]).
//!
//! ## Example
//!
//! ```
//! use trinity_sim::prelude::*;
//!
//! let mut b = GraphBuilder::default();
//! b.add_vertex(VertexId(0), "a");
//! b.add_vertex(VertexId(1), "b");
//! b.add_edge(VertexId(0), VertexId(1));
//! let cloud = b.build(4, CostModel::default());
//!
//! let label_a = cloud.labels().get("a").unwrap();
//! assert_eq!(cloud.label_frequency(label_a), 1);
//! let owner = cloud.machine_of(VertexId(0));
//! let cell = cloud.load(owner, VertexId(0)).unwrap();
//! assert_eq!(cell.neighbors, &[VertexId(1)]);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cloud;
pub mod cluster_graph;
pub mod compact;
#[doc(hidden)]
pub mod compat;
pub mod cost;
pub mod edge_list;
pub mod epoch;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod loader;
pub mod neighbor_index;
pub mod network;
pub mod partition;
pub mod stats;
pub mod transport;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::cloud::{machine_for, MemoryCloud};
    pub use crate::cluster_graph::{ClusterGraph, LabelPairCatalog};
    pub use crate::compact::{CompactCsr, Neighbors, Postings};
    #[doc(hidden)]
    pub use crate::compat::StorageTier;
    pub use crate::epoch::{EpochTouchLog, GraphEpochs, SnapshotRef, UpdateBatch, UpdateOp};
    pub use crate::error::TrinityError;
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultyTransport, MachineCrash};
    pub use crate::ids::{LabelId, LabelInterner, MachineId, VertexId};
    pub use crate::loader::StreamLoader;
    pub use crate::neighbor_index::NeighborLabelIndex;
    pub use crate::network::{CostModel, Network, TrafficSnapshot};
    pub use crate::partition::{Cell, CellBuf, Partition, StorageBytes};
    pub use crate::stats::{graph_stats, GraphStats};
    pub use crate::transport::{ChannelTransport, Envelope, Message, Transport, TransportError};
}

pub use builder::GraphBuilder;
pub use cloud::MemoryCloud;
pub use epoch::{GraphEpochs, SnapshotRef, UpdateBatch, UpdateOp};
pub use error::TrinityError;
pub use fault::{FaultPlan, FaultyTransport};
pub use ids::{LabelId, MachineId, VertexId};
pub use network::CostModel;
pub use transport::{ChannelTransport, Envelope, Message, Transport, TransportError};
