//! R-MAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos,
//! SDM 2004) — the model the paper's synthetic scalability experiments use.

use crate::synthetic::SyntheticGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// Number of vertices (need not be a power of two; generated coordinates
    /// are taken modulo this value).
    pub num_vertices: u64,
    /// Number of edges to generate.
    pub num_edges: u64,
    /// Probability of the top-left quadrant (typical value 0.57).
    pub a: f64,
    /// Probability of the top-right quadrant (typical value 0.19).
    pub b: f64,
    /// Probability of the bottom-left quadrant (typical value 0.19).
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// The standard skewed R-MAT parameters (a=0.57, b=c=0.19, d=0.05) with
    /// the given size.
    pub(crate) fn new(num_vertices: u64, num_edges: u64, seed: u64) -> Self {
        RmatConfig {
            num_vertices,
            num_edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    /// A graph of `num_vertices` vertices with the given average degree
    /// (`num_edges = num_vertices * avg_degree / 2` since edges are
    /// undirected).
    pub fn with_avg_degree(num_vertices: u64, avg_degree: f64, seed: u64) -> Self {
        let num_edges = ((num_vertices as f64) * avg_degree / 2.0).round() as u64;
        Self::new(num_vertices, num_edges, seed)
    }

    /// The implied probability of the bottom-right quadrant.
    pub(crate) fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates an R-MAT graph. The result is unlabeled; combine with
/// [`crate::labels`] to assign a label alphabet.
pub fn rmat(config: &RmatConfig) -> SyntheticGraph {
    assert!(config.num_vertices > 0, "R-MAT needs at least one vertex");
    assert!(
        config.a > 0.0 && config.b >= 0.0 && config.c >= 0.0 && config.d() >= 0.0,
        "invalid R-MAT quadrant probabilities"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Number of bits needed to cover num_vertices.
    let levels = 64 - (config.num_vertices.max(2) - 1).leading_zeros();
    let mut edges = Vec::with_capacity(config.num_edges as usize);
    for _ in 0..config.num_edges {
        let (mut row, mut col) = (0u64, 0u64);
        for _ in 0..levels {
            row <<= 1;
            col <<= 1;
            let r: f64 = rng.gen();
            if r < config.a {
                // top-left: nothing to add
            } else if r < config.a + config.b {
                col |= 1;
            } else if r < config.a + config.b + config.c {
                row |= 1;
            } else {
                row |= 1;
                col |= 1;
            }
        }
        let u = row % config.num_vertices;
        let v = col % config.num_vertices;
        edges.push((u, v));
    }
    SyntheticGraph::unlabeled(config.num_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let g = rmat(&RmatConfig::new(1000, 5000, 42));
        assert_eq!(g.num_vertices, 1000);
        assert_eq!(g.edges.len(), 5000);
        assert!(g.edges.iter().all(|&(u, v)| u < 1000 && v < 1000));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = rmat(&RmatConfig::new(500, 2000, 7));
        let b = rmat(&RmatConfig::new(500, 2000, 7));
        assert_eq!(a, b);
        let c = rmat(&RmatConfig::new(500, 2000, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn avg_degree_constructor() {
        let cfg = RmatConfig::with_avg_degree(10_000, 16.0, 1);
        assert_eq!(cfg.num_edges, 80_000);
        assert!((cfg.d() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn skew_produces_hubs() {
        // With skewed quadrant probabilities some vertex should have degree
        // well above the average.
        let g = rmat(&RmatConfig::new(1 << 12, 40_000, 3));
        let adj = g.adjacency();
        let max_deg = adj.iter().map(|a| a.len()).max().unwrap();
        let avg = 2.0 * 40_000.0 / (1 << 12) as f64;
        assert!(
            max_deg as f64 > 4.0 * avg,
            "max degree {max_deg} not much larger than avg {avg}"
        );
    }

    #[test]
    fn non_power_of_two_sizes_work() {
        let g = rmat(&RmatConfig::new(777, 3000, 5));
        assert!(g.edges.iter().all(|&(u, v)| u < 777 && v < 777));
    }

    #[test]
    #[should_panic]
    fn zero_vertices_panics() {
        rmat(&RmatConfig::new(0, 10, 1));
    }
}
