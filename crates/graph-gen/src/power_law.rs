//! Preferential-attachment (Barabási–Albert style) generator producing
//! power-law degree distributions. Used for the citation-graph and
//! social-graph dataset profiles.

use crate::synthetic::SyntheticGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a preferential-attachment graph: vertices arrive one at a time
/// and attach `edges_per_vertex` edges to existing vertices chosen
/// proportionally to their current degree (plus one, so isolated vertices can
/// still be chosen).
pub fn preferential_attachment(
    num_vertices: u64,
    edges_per_vertex: usize,
    seed: u64,
) -> SyntheticGraph {
    assert!(num_vertices > 0, "need at least one vertex");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(u64, u64)> = Vec::with_capacity(num_vertices as usize * edges_per_vertex);
    // Repeated-endpoint list: choosing a uniform element of this list is
    // equivalent to degree-proportional sampling.
    let mut endpoints: Vec<u64> = Vec::with_capacity(edges.capacity() * 2);
    endpoints.push(0);
    for v in 1..num_vertices {
        for _ in 0..edges_per_vertex.max(1) {
            let idx = rng.gen_range(0..endpoints.len());
            let target = endpoints[idx];
            if target != v {
                edges.push((v, target));
                endpoints.push(target);
                endpoints.push(v);
            }
        }
        // Ensure every vertex appears at least once so it can attract edges.
        endpoints.push(v);
    }
    SyntheticGraph::unlabeled(num_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_connected_ish_graph() {
        let g = preferential_attachment(1000, 3, 11);
        assert_eq!(g.num_vertices, 1000);
        // roughly 3 edges per vertex after the first
        assert!(g.edges.len() > 2500 && g.edges.len() < 3000);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            preferential_attachment(200, 2, 5),
            preferential_attachment(200, 2, 5)
        );
    }

    #[test]
    fn produces_heavy_tail() {
        let g = preferential_attachment(2000, 2, 1);
        let adj = g.adjacency();
        let max_deg = adj.iter().map(|a| a.len()).max().unwrap();
        let avg = adj.iter().map(|a| a.len()).sum::<usize>() as f64 / adj.len() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "expected a hub: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn no_self_loops() {
        let g = preferential_attachment(500, 2, 3);
        assert!(g.edges.iter().all(|&(u, v)| u != v));
    }
}
