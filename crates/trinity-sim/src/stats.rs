//! Whole-graph statistics for the experiment harness: sizes, degrees, label
//! density and memory accounting.

use crate::cloud::MemoryCloud;
use serde::{Deserialize, Serialize};

/// Summary statistics of a memory-cloud-resident graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Total vertices.
    pub num_vertices: u64,
    /// Total undirected edges.
    pub num_edges: u64,
    /// Number of distinct labels.
    pub num_labels: usize,
    /// Average degree (2·m / n for an undirected graph).
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated_vertices: u64,
    /// Label density: distinct labels divided by vertex count (the knob swept
    /// in Fig. 10(d)).
    pub label_density: f64,
    /// Approximate resident memory of the partitioned graph, in bytes.
    pub memory_bytes: usize,
    /// Number of logical machines.
    pub num_machines: usize,
    /// Vertices per machine (balance diagnostic).
    pub vertices_per_machine: Vec<usize>,
}

/// Computes [`GraphStats`] for a cloud-resident graph in one pass.
pub fn graph_stats(cloud: &MemoryCloud) -> GraphStats {
    let mut max_degree = 0usize;
    let mut isolated = 0u64;
    let mut degree_sum = 0u128;
    for m in cloud.machines() {
        let p = cloud.partition(m);
        for cell in p.iter_cells() {
            let d = cell.neighbors.len();
            degree_sum += d as u128;
            if d > max_degree {
                max_degree = d;
            }
            if d == 0 {
                isolated += 1;
            }
        }
    }
    let n = cloud.num_vertices();
    let avg_degree = if n > 0 {
        degree_sum as f64 / n as f64
    } else {
        0.0
    };
    let vertices_per_machine = cloud
        .machines()
        .map(|m| cloud.partition(m).num_vertices())
        .collect();
    GraphStats {
        num_vertices: n,
        num_edges: cloud.num_edges(),
        num_labels: cloud.labels().len(),
        avg_degree,
        max_degree,
        isolated_vertices: isolated,
        label_density: if n > 0 {
            cloud.labels().len() as f64 / n as f64
        } else {
            0.0
        },
        memory_bytes: cloud.memory_bytes(),
        num_machines: cloud.num_machines(),
        vertices_per_machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::VertexId;
    use crate::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn star_cloud(leaves: u64, machines: usize) -> MemoryCloud {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(0), "hub");
        for i in 1..=leaves {
            b.add_vertex(v(i), "leaf");
            b.add_edge(v(0), v(i));
        }
        // one isolated vertex
        b.add_vertex(v(leaves + 1), "iso");
        b.build(machines, CostModel::free())
    }

    #[test]
    fn stats_on_star() {
        let cloud = star_cloud(10, 3);
        let s = graph_stats(&cloud);
        assert_eq!(s.num_vertices, 12);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.num_labels, 3);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.isolated_vertices, 1);
        assert!((s.avg_degree - 20.0 / 12.0).abs() < 1e-9);
        assert_eq!(s.num_machines, 3);
        assert_eq!(s.vertices_per_machine.iter().sum::<usize>(), 12);
        assert!(s.memory_bytes > 0);
        assert!((s.label_density - 3.0 / 12.0).abs() < 1e-9);
    }
}
