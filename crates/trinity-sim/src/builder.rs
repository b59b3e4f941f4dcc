//! Builder that stages a labeled graph in memory and loads it into a
//! [`MemoryCloud`].
//!
//! The builder only collects: a label per vertex and the raw edge list.
//! Building hands both to [`StreamLoader`], the one pipeline every cloud is
//! loaded through (the paper's loading phase, Table 2), which streams the
//! staged edges once per pass.

use crate::cloud::MemoryCloud;
use crate::error::TrinityError;
use crate::ids::{LabelId, LabelInterner, VertexId};
use crate::loader::StreamLoader;
use crate::network::CostModel;
use std::collections::HashMap;

/// Incrementally collects a labeled graph and partitions it into a
/// [`MemoryCloud`]. Start from `GraphBuilder::default()`.
///
/// * Each vertex carries exactly one label (as in the paper's data model).
/// * Adding the same vertex twice overwrites its label.
/// * Edges are undirected: adjacency is symmetrized, matching how the paper
///   treats the citation and word graphs.
/// * Self loops are ignored.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    interner: LabelInterner,
    labels: HashMap<VertexId, LabelId>,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Interns a label string, returning its id. Useful for generators that
    /// want to pre-intern a label alphabet.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        self.interner.intern(name)
    }

    /// Adds (or re-labels) a vertex with a label given by name.
    pub fn add_vertex(&mut self, id: VertexId, label: &str) -> LabelId {
        let l = self.interner.intern(label);
        self.labels.insert(id, l);
        l
    }

    /// Adds an undirected edge. Unknown endpoints are detected at build time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        if u != v {
            self.edges.push((u, v));
        }
    }

    /// Partitions the graph over `num_machines` logical machines and builds
    /// the memory cloud.
    pub fn build(self, num_machines: usize, cost: CostModel) -> MemoryCloud {
        self.try_build(num_machines, cost)
            .expect("graph construction failed")
    }

    /// Fallible version of [`GraphBuilder::build`]: the staged graph goes
    /// through [`StreamLoader::load`], so its errors are the loader's.
    pub(crate) fn try_build(
        self,
        num_machines: usize,
        cost: CostModel,
    ) -> Result<MemoryCloud, TrinityError> {
        let GraphBuilder {
            interner,
            labels,
            edges,
        } = self;
        StreamLoader::new(num_machines, cost).load(interner, labels, || edges.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn build_small_graph() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_vertex(v(2), "b");
        b.add_vertex(v(3), "c");
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(3));
        let cloud = b.build(2, CostModel::free());
        assert_eq!(cloud.num_vertices(), 3);
        assert_eq!(cloud.num_edges(), 2);
        assert_eq!(cloud.num_machines(), 2);
        assert_eq!(cloud.neighbors_global(v(2)), &[v(1), v(3)]);
        assert!(cloud.has_edge_global(v(1), v(2)));
        assert!(cloud.has_edge_global(v(2), v(1)));
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_ignored() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_vertex(v(2), "b");
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(1));
        b.add_edge(v(1), v(1));
        let cloud = b.build(1, CostModel::free());
        assert_eq!(cloud.num_edges(), 1);
        assert_eq!(cloud.neighbors_global(v(1)), &[v(2)]);
    }

    #[test]
    fn relabeling_overwrites() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_vertex(v(1), "b");
        let cloud = b.build(1, CostModel::free());
        let lb = cloud.labels().get("b").unwrap();
        assert_eq!(cloud.label_of_global(v(1)), Some(lb));
        assert_eq!(cloud.num_vertices(), 1);
    }

    #[test]
    fn unknown_vertex_is_an_error() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_edge(v(1), v(2));
        let err = b.try_build(1, CostModel::free()).unwrap_err();
        assert_eq!(err, TrinityError::UnknownVertex(v(2)));
    }

    #[test]
    fn empty_graph_is_an_error() {
        let b = GraphBuilder::default();
        assert_eq!(
            b.try_build(1, CostModel::free()).unwrap_err(),
            TrinityError::EmptyGraph
        );
    }

    #[test]
    fn invalid_machine_count_is_an_error() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        assert_eq!(
            b.clone().try_build(0, CostModel::free()).unwrap_err(),
            TrinityError::InvalidMachineCount(0)
        );
        assert_eq!(
            b.try_build(100_000, CostModel::free()).unwrap_err(),
            TrinityError::InvalidMachineCount(100_000)
        );
    }

    #[test]
    fn vertices_are_spread_across_machines() {
        let mut b = GraphBuilder::default();
        for i in 0..1000u64 {
            b.add_vertex(v(i), if i % 2 == 0 { "even" } else { "odd" });
        }
        let cloud = b.build(8, CostModel::free());
        let mut counts = vec![0usize; 8];
        for m in cloud.machines() {
            counts[m.index()] = cloud.partition(m).num_vertices();
        }
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        // hash partitioning should give every machine a non-trivial share
        for &c in &counts {
            assert!(c > 50, "unbalanced partitioning: {counts:?}");
        }
    }

    #[test]
    fn catalog_is_populated_symmetrically() {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(1), "a");
        b.add_vertex(v(2), "b");
        b.add_edge(v(1), v(2));
        let cloud = b.build(4, CostModel::free());
        let la = cloud.labels().get("a").unwrap();
        let lb = cloud.labels().get("b").unwrap();
        let (m1, m2) = (cloud.machine_of(v(1)), cloud.machine_of(v(2)));
        assert!(cloud.catalog().has_pair(m1, la, m2, lb));
        assert!(cloud.catalog().has_pair(m2, lb, m1, la));
    }

    #[test]
    fn label_frequencies_are_global() {
        let mut b = GraphBuilder::default();
        for i in 0..10u64 {
            b.add_vertex(v(i), "x");
        }
        for i in 10..15u64 {
            b.add_vertex(v(i), "y");
        }
        let cloud = b.build(4, CostModel::free());
        assert_eq!(cloud.label_frequency(cloud.labels().get("x").unwrap()), 10);
        assert_eq!(cloud.label_frequency(cloud.labels().get("y").unwrap()), 5);
    }
}
