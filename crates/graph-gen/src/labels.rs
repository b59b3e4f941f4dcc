//! Label-assignment models.
//!
//! The paper's synthetic experiments sweep *label density* (the number of
//! distinct labels relative to graph size, Fig. 10(d)); the real datasets
//! have highly skewed label frequencies (US Patents: 418 patent classes,
//! WordNet: 5 parts of speech). Both uniform and Zipf-skewed assignment are
//! provided.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How labels are distributed over vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LabelModel {
    /// Every label equally likely.
    Uniform {
        /// Size of the label alphabet.
        num_labels: usize,
    },
    /// Label `k` (0-based, most frequent first) has probability proportional
    /// to `1 / (k+1)^exponent`.
    Zipf {
        /// Size of the label alphabet.
        num_labels: usize,
        /// Skew exponent (1.0 is classic Zipf; 0.0 degenerates to uniform).
        exponent: f64,
    },
}

impl LabelModel {
    /// Size of the label alphabet.
    pub(crate) fn num_labels(&self) -> usize {
        match *self {
            LabelModel::Uniform { num_labels } => num_labels,
            LabelModel::Zipf { num_labels, .. } => num_labels,
        }
    }

    /// Assigns a label to each of `num_vertices` vertices.
    pub fn assign(&self, num_vertices: u64, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match *self {
            LabelModel::Uniform { num_labels } => {
                let k = num_labels.max(1) as u32;
                (0..num_vertices).map(|_| rng.gen_range(0..k)).collect()
            }
            LabelModel::Zipf {
                num_labels,
                exponent,
            } => {
                let k = num_labels.max(1);
                // Cumulative distribution over ranks.
                let weights: Vec<f64> = (0..k)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut cumulative = Vec::with_capacity(k);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cumulative.push(acc);
                }
                (0..num_vertices)
                    .map(|_| {
                        let r: f64 = rng.gen();
                        cumulative.iter().position(|&c| r <= c).unwrap_or(k - 1) as u32
                    })
                    .collect()
            }
        }
    }
}

/// The number of labels implied by a *label density* (labels per vertex), as
/// swept in Fig. 10(d): `num_labels = ceil(density * num_vertices)`, at least 1.
pub(crate) fn labels_for_density(num_vertices: u64, density: f64) -> usize {
    ((num_vertices as f64 * density).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_alphabet() {
        let labels = LabelModel::Uniform { num_labels: 5 }.assign(10_000, 3);
        assert_eq!(labels.len(), 10_000);
        assert!(labels.iter().all(|&l| l < 5));
        // All five labels should appear.
        for target in 0..5u32 {
            assert!(labels.contains(&target));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let labels = LabelModel::Zipf {
            num_labels: 20,
            exponent: 1.0,
        }
        .assign(20_000, 4);
        let mut counts = vec![0u64; 20];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        assert!(
            counts[0] > counts[10] * 2,
            "rank-0 should dominate: {counts:?}"
        );
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let labels = LabelModel::Zipf {
            num_labels: 4,
            exponent: 0.0,
        }
        .assign(40_000, 5);
        let mut counts = vec![0u64; 4];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 8_000 && c < 12_000, "{counts:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = LabelModel::Uniform { num_labels: 7 };
        assert_eq!(m.assign(100, 1), m.assign(100, 1));
        assert_ne!(m.assign(100, 1), m.assign(100, 2));
    }

    #[test]
    fn density_to_label_count() {
        assert_eq!(labels_for_density(1_000_000, 1e-5), 10);
        assert_eq!(labels_for_density(1_000_000, 1e-1), 100_000);
        assert_eq!(labels_for_density(100, 1e-9), 1);
    }

    #[test]
    fn num_labels_accessor() {
        assert_eq!(LabelModel::Uniform { num_labels: 3 }.num_labels(), 3);
        assert_eq!(
            LabelModel::Zipf {
                num_labels: 9,
                exponent: 1.0
            }
            .num_labels(),
            9
        );
    }
}
