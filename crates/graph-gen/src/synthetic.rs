//! Intermediate representation of a generated graph, convertible into a
//! memory cloud and inspectable by the query generators.

use trinity_sim::builder::GraphBuilder;
use trinity_sim::ids::VertexId;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

/// A generated labeled graph, before it is loaded into the memory cloud.
///
/// Vertices are `0..num_vertices`; `labels[v]` is the label index of vertex
/// `v` (label indices are rendered as `"L<idx>"` when loaded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticGraph {
    /// Number of vertices (ids are `0..num_vertices`).
    pub num_vertices: u64,
    /// Undirected edges (self loops and duplicates allowed here; the builder
    /// removes them).
    pub edges: Vec<(u64, u64)>,
    /// Label index per vertex.
    pub labels: Vec<u32>,
    /// Size of the label alphabet.
    pub num_labels: usize,
}

impl SyntheticGraph {
    /// Creates a graph with all-zero labels (single label alphabet).
    pub fn unlabeled(num_vertices: u64, edges: Vec<(u64, u64)>) -> Self {
        SyntheticGraph {
            num_vertices,
            edges,
            labels: vec![0; num_vertices as usize],
            num_labels: 1,
        }
    }

    /// Replaces the labels with the given assignment.
    pub fn with_labels(mut self, labels: Vec<u32>, num_labels: usize) -> Self {
        assert_eq!(labels.len() as u64, self.num_vertices);
        self.labels = labels;
        self.num_labels = num_labels.max(1);
        self
    }

    /// The label name used for label index `idx`.
    pub fn label_name(idx: u32) -> String {
        format!("L{idx}")
    }

    /// Adjacency lists (symmetrized, deduplicated): the degree tests'
    /// oracle.
    #[cfg(test)]
    pub(crate) fn adjacency(&self) -> Vec<Vec<u64>> {
        let n = self.num_vertices as usize;
        let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            if u == v || u >= self.num_vertices || v >= self.num_vertices {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Converts into a [`GraphBuilder`] (labels rendered as `L<idx>`).
    pub fn to_builder(&self) -> GraphBuilder {
        let mut b = GraphBuilder::default();
        // Intern labels in index order so LabelId(i) corresponds to "L<i>".
        for i in 0..self.num_labels as u32 {
            b.intern_label(&Self::label_name(i));
        }
        for v in 0..self.num_vertices {
            b.add_vertex(VertexId(v), &Self::label_name(self.labels[v as usize]));
        }
        for &(u, v) in &self.edges {
            if u < self.num_vertices && v < self.num_vertices {
                b.add_edge(VertexId(u), VertexId(v));
            }
        }
        b
    }

    /// Loads the graph into a memory cloud partitioned over `machines`
    /// logical machines.
    pub fn build_cloud(&self, machines: usize, cost: CostModel) -> MemoryCloud {
        self.to_builder().build(machines, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlabeled_defaults() {
        let g = SyntheticGraph::unlabeled(3, vec![(0, 1), (1, 2)]);
        assert_eq!(g.labels, vec![0, 0, 0]);
        assert_eq!(g.num_labels, 1);
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn adjacency_ignores_self_loops_and_dups() {
        let g = SyntheticGraph::unlabeled(3, vec![(0, 1), (1, 0), (2, 2), (0, 1)]);
        let adj = g.adjacency();
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0]);
        assert!(adj[2].is_empty());
    }

    #[test]
    fn with_labels_replaces_alphabet() {
        let g = SyntheticGraph::unlabeled(2, vec![(0, 1)]).with_labels(vec![0, 3], 4);
        assert_eq!(g.num_labels, 4);
        assert_eq!(g.labels[1], 3);
    }

    #[test]
    fn builds_a_cloud() {
        let g = SyntheticGraph::unlabeled(10, (0..9).map(|i| (i, i + 1)).collect())
            .with_labels((0..10).map(|i| (i % 3) as u32).collect(), 3);
        let cloud = g.build_cloud(2, CostModel::free());
        assert_eq!(cloud.num_vertices(), 10);
        assert_eq!(cloud.num_edges(), 9);
        assert_eq!(cloud.labels().len(), 3);
        let l0 = cloud.labels().get("L0").unwrap();
        assert!(cloud.label_frequency(l0) >= 3);
    }

    #[test]
    #[should_panic]
    fn with_labels_wrong_length_panics() {
        SyntheticGraph::unlabeled(3, vec![]).with_labels(vec![0], 1);
    }
}
