//! The estimators.
//!
//! The host is a small shared VM: a neighbour adds time to whatever runs
//! while it is busy, in bursts that last longer than a query. That noise is
//! additive and one-sided, so the *fastest* observation of a fixed piece of
//! work converges on its undisturbed cost while a mean or a median of
//! observations keeps the neighbour's share. Every timing the benchmark
//! reports is therefore built from minima over repeated passes of the same
//! request sequence:
//!
//! * [`PositionMin`] keeps, for each position of the sequence, the fastest
//!   latency seen in any pass; latency percentiles are taken over positions.
//! * [`BlockMin`] cuts the sequence into equal blocks and keeps each block's
//!   fastest time; throughput is queries over the sum of those.

/// Blocks the request sequence is cut into for the throughput estimator.
pub const BLOCKS: usize = 16;

/// Per-position minimum over passes.
#[derive(Debug, Clone)]
pub struct PositionMin {
    best: Vec<f64>,
}

impl PositionMin {
    /// An estimator over `positions` positions, all unobserved.
    pub fn new(positions: usize) -> Self {
        PositionMin {
            best: vec![f64::INFINITY; positions],
        }
    }

    /// Folds one observation of position `i` in.
    pub fn observe(&mut self, i: usize, value: f64) {
        if value < self.best[i] {
            self.best[i] = value;
        }
    }

    /// The fastest observation of every position, sorted ascending.
    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.best.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }
}

/// Per-block minimum over passes of the time the block's requests took.
#[derive(Debug, Clone)]
pub struct BlockMin {
    best: Vec<f64>,
}

impl Default for BlockMin {
    fn default() -> Self {
        BlockMin::new(BLOCKS)
    }
}

impl BlockMin {
    /// An estimator over `blocks` blocks.
    pub fn new(blocks: usize) -> Self {
        BlockMin {
            best: vec![f64::INFINITY; blocks],
        }
    }

    /// The block position `i` of a sequence of `len` positions falls in.
    pub fn block_of(&self, i: usize, len: usize) -> usize {
        i * self.best.len() / len
    }

    /// Folds one pass in: `durations[i]` is how long request `i` took.
    pub fn observe_pass(&mut self, durations: &[f64]) {
        let mut sums = vec![0.0; self.best.len()];
        for (i, d) in durations.iter().enumerate() {
            sums[self.block_of(i, durations.len())] += d;
        }
        for (best, sum) in self.best.iter_mut().zip(sums) {
            *best = best.min(sum);
        }
    }

    /// Sum of the fastest time of every block.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// The `q`-quantile (nearest rank, `0 < q <= 1`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Sorts and returns the median.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    median(&values)
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples. A
/// tail percentile is reported only where this is at least ten; the
/// benchmark pins p95 and sizes every workload to at least 200 positions.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them — the driver's spread is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_min_keeps_the_fastest_pass_per_position() {
        let mut best = PositionMin::new(3);
        for pass in [[5.0, 1.0, 9.0], [4.0, 2.0, 9.5], [6.0, 3.0, 7.0]] {
            for (i, v) in pass.into_iter().enumerate() {
                best.observe(i, v);
            }
        }
        // Sorted minima: position 1 → 1, position 0 → 4, position 2 → 7.
        assert_eq!(best.sorted(), vec![1.0, 4.0, 7.0]);
    }

    #[test]
    fn a_disturbed_pass_does_not_move_the_estimate() {
        let mut best = PositionMin::new(4);
        let mut blocks = BlockMin::default();
        let quiet = [1.0, 2.0, 3.0, 4.0];
        let noisy = [1.0, 52.0, 53.0, 4.0];
        for pass in [quiet, noisy, quiet] {
            for (i, v) in pass.into_iter().enumerate() {
                best.observe(i, v);
            }
            blocks.observe_pass(&pass);
        }
        assert_eq!(median(&best.sorted()), 2.0);
        assert_eq!(blocks.total(), 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn ten_beyond_rule_picks_the_tail() {
        // 200 positions: p95 leaves exactly ten beyond, p99 only two.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(200, 0.99), 2);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.95), 50);
    }

    #[test]
    fn fastest_blocks_sum_minima_per_block_not_per_pass() {
        // 32 positions → 2 per block. Pass A is slow in block 0, pass B in
        // block 15; the estimate takes the quiet half of each.
        let mut a = [1.0; 32];
        let mut b = [1.0; 32];
        a[0] = 10.0;
        b[31] = 10.0;
        let mut blocks = BlockMin::default();
        blocks.observe_pass(&a);
        blocks.observe_pass(&b);
        assert_eq!(blocks.total(), 32.0);
        assert_eq!(blocks.block_of(0, 32), 0);
        assert_eq!(blocks.block_of(31, 32), 15);
        assert_eq!(blocks.block_of(199, 200), 15);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 2.0, 8.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartile_spread(&[16.0, 1.0, 2.0, 8.0, 4.0]), 10.5 / 4.0);
    }
}
