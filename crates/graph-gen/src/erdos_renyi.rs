//! Erdős–Rényi G(n, m) random graphs: `m` edges drawn uniformly at random.
//! Used for the fixed-density scalability experiment (Fig. 10(b)) and as an
//! unskewed contrast to R-MAT in tests.

use crate::synthetic::SyntheticGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a G(n, m) graph: `num_edges` endpoints drawn uniformly.
pub fn gnm(num_vertices: u64, num_edges: u64, seed: u64) -> SyntheticGraph {
    assert!(num_vertices > 0, "G(n,m) needs at least one vertex");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        let u = rng.gen_range(0..num_vertices);
        let v = rng.gen_range(0..num_vertices);
        edges.push((u, v));
    }
    SyntheticGraph::unlabeled(num_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_sizes() {
        let g = gnm(100, 300, 1);
        assert_eq!(g.num_vertices, 100);
        assert_eq!(g.edges.len(), 300);
        assert!(g.edges.iter().all(|&(u, v)| u < 100 && v < 100));
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(gnm(50, 100, 9), gnm(50, 100, 9));
        assert_ne!(gnm(50, 100, 9), gnm(50, 100, 10));
    }
}
