//! Dataset profiles: synthetic stand-ins for the real graphs used in the
//! paper's evaluation (§6.2) plus a Facebook-like profile for the Table 1
//! discussion. Each profile preserves the node/edge/label ratios of the
//! original so query behaviour is comparable; absolute sizes are scaled down
//! to laptop scale (see DESIGN.md, substitutions table).

use crate::erdos_renyi::gnm;
use crate::labels::LabelModel;
use crate::power_law::preferential_attachment;
use crate::rmat::{rmat, RmatConfig};
use crate::synthetic::SyntheticGraph;

/// US-Patents-like profile: a citation-style power-law graph.
///
/// The real graph has 3,774,768 nodes, 16,522,438 edges (≈ 4.4 edges per
/// node) and 418 labels (patent classes) with a skewed frequency
/// distribution.
pub fn patents_like(num_vertices: u64, seed: u64) -> SyntheticGraph {
    let g = preferential_attachment(num_vertices, 4, seed);
    let num_labels = 418.min(num_vertices.max(1) as usize);
    let labels = LabelModel::Zipf {
        num_labels,
        exponent: 1.0,
    }
    .assign(num_vertices, seed ^ 0x5151);
    g.with_labels(labels, num_labels)
}

/// WordNet-like profile: a sparse word-relation graph.
///
/// The real graph has 82,670 nodes, 133,445 edges (≈ 1.6 edges per node) and
/// only 5 labels (parts of speech).
pub fn wordnet_like(num_vertices: u64, seed: u64) -> SyntheticGraph {
    let num_edges = (num_vertices as f64 * 1.6).round() as u64;
    let g = gnm(num_vertices, num_edges, seed);
    let labels = LabelModel::Uniform { num_labels: 5 }.assign(num_vertices, seed ^ 0xABCD);
    g.with_labels(labels, 5)
}

/// Facebook-like profile used in the paper's Table 1 back-of-the-envelope
/// comparison: a heavy-tailed social graph with the given average degree
/// (130 in the real graph; configurable because that density is expensive at
/// experiment scale) and a modest label alphabet.
pub fn facebook_like(num_vertices: u64, avg_degree: f64, seed: u64) -> SyntheticGraph {
    let g = rmat(&RmatConfig::with_avg_degree(num_vertices, avg_degree, seed));
    let num_labels = 100.min(num_vertices.max(1) as usize);
    let labels = LabelModel::Zipf {
        num_labels,
        exponent: 0.8,
    }
    .assign(num_vertices, seed ^ 0xFACE);
    g.with_labels(labels, num_labels)
}

/// The R-MAT configuration used by the synthetic scalability experiments
/// (Fig. 10): given node count, average degree and label density, produce the
/// labeled graph.
pub fn synthetic_experiment_graph(
    num_vertices: u64,
    avg_degree: f64,
    label_density: f64,
    seed: u64,
) -> SyntheticGraph {
    let g = rmat(&RmatConfig::with_avg_degree(num_vertices, avg_degree, seed));
    let num_labels = crate::labels::labels_for_density(num_vertices, label_density);
    let labels = LabelModel::Uniform { num_labels }.assign(num_vertices, seed ^ 0x517);
    g.with_labels(labels, num_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_sim::network::CostModel;
    use trinity_sim::stats::graph_stats;

    /// Average degree implied by the generated edge list (2m/n).
    fn avg_degree(g: &SyntheticGraph) -> f64 {
        2.0 * g.edges.len() as f64 / g.num_vertices as f64
    }

    #[test]
    fn patents_profile_ratios() {
        let g = patents_like(10_000, 1);
        assert_eq!(g.num_vertices, 10_000);
        // ≈ 4 edges per vertex
        assert!(g.edges.len() > 30_000 && g.edges.len() < 45_000);
        assert_eq!(g.num_labels, 418);
        let cloud = g.build_cloud(2, CostModel::free());
        let stats = graph_stats(&cloud);
        assert!(stats.avg_degree > 5.0 && stats.avg_degree < 9.0);
    }

    #[test]
    fn wordnet_profile_ratios() {
        let g = wordnet_like(5_000, 2);
        assert_eq!(g.num_labels, 5);
        assert_eq!(g.edges.len(), 8_000);
    }

    #[test]
    fn facebook_profile_degree() {
        let g = facebook_like(2_000, 16.0, 3);
        assert!((avg_degree(&g) - 16.0).abs() < 0.1);
        assert_eq!(g.num_labels, 100);
    }

    #[test]
    fn synthetic_experiment_graph_density() {
        let g = synthetic_experiment_graph(10_000, 8.0, 1e-3, 4);
        assert_eq!(g.num_labels, 10);
        assert!((avg_degree(&g) - 8.0).abs() < 0.1);
        let g2 = synthetic_experiment_graph(10_000, 8.0, 1e-2, 4);
        assert_eq!(g2.num_labels, 100);
    }

    #[test]
    fn small_graphs_clamp_label_alphabet() {
        let g = patents_like(100, 5);
        assert_eq!(g.num_labels, 100);
    }
}
