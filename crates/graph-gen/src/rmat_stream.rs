//! Counter-based streaming R-MAT generation for graphs too large to hold as
//! an edge `Vec`.
//!
//! [`crate::rmat::rmat`] materializes every edge before building the cloud —
//! fine at laptop scale, hopeless at the paper's billion-node scale. The
//! streaming variant derives edge `i` purely from `(seed, i)` with a
//! splitmix64 chain, so:
//!
//! * `edge(i)` is random access — no state carried between edges;
//! * the iterator is re-iterable for free, which is exactly the shape
//!   [`trinity_sim::loader::StreamLoader`]'s multi-pass protocol needs;
//! * memory is `O(1)` regardless of graph size.
//!
//! Re-iteration costs one splitmix64 mix per level of every edge, and a
//! streamed load reads the stream once per pass, so the kernel has no
//! data-dependent branch: each level's draw is compared, as an integer,
//! against thresholds `⌈p·2^53⌉`, which decide every draw exactly as the
//! floating-point comparison `to_unit(draw) < p` does.
//!
//! Labels are assigned the same way: [`StreamingLabels::label_of`] hashes the
//! vertex id instead of walking an RNG sequence, so no `Vec<u32>` of length
//! `num_vertices` ever exists.

use crate::labels::LabelModel;
use crate::rmat::RmatConfig;
use trinity_sim::error::TrinityError;
use trinity_sim::ids::{LabelId, LabelInterner, VertexId};
use trinity_sim::loader::StreamLoader;
use trinity_sim::MemoryCloud;

/// splitmix64 finalizer: a high-quality 64-bit mix of the input.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a u64 to a double in `[0, 1)` using the top 53 bits.
#[inline]
fn to_unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The smallest top-53-bit draw `k` with `to_unit(k << 11) >= p`, i.e.
/// `⌈p·2^53⌉`. Scaling by a power of two is exact, so `k < unit_threshold(p)`
/// holds exactly when `to_unit(k << 11) < p`: comparing integers against it
/// decides every draw the way the floating-point comparison does.
#[inline]
fn unit_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// A counter-based R-MAT edge stream: edge `i` is a pure function of
/// `(config.seed, i)`.
///
/// The distribution matches [`crate::rmat::rmat`]'s recursive-matrix model
/// (same quadrant probabilities, same modulo fold for non-power-of-two
/// sizes); the exact edge sequence differs because the materializing
/// generator draws from one sequential RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatStream {
    config: RmatConfig,
    levels: u32,
    /// [`unit_threshold`] of `a`, `a + b` and `a + b + c`: a level's draw at
    /// or above each one sets one quadrant bit.
    thresholds: [u64; 3],
}

impl RmatStream {
    /// Creates a stream over the given R-MAT configuration.
    pub fn new(config: RmatConfig) -> Self {
        assert!(config.num_vertices > 0, "R-MAT needs at least one vertex");
        assert!(
            config.a > 0.0 && config.b >= 0.0 && config.c >= 0.0 && config.d() >= 0.0,
            "invalid R-MAT quadrant probabilities"
        );
        let levels = 64 - (config.num_vertices.max(2) - 1).leading_zeros();
        let (a, b, c) = (config.a, config.b, config.c);
        let thresholds = [a, a + b, a + b + c].map(unit_threshold);
        RmatStream {
            config,
            levels,
            thresholds,
        }
    }

    /// Number of vertices in the generated graph.
    pub(crate) fn num_vertices(&self) -> u64 {
        self.config.num_vertices
    }

    /// The quadrant one level's `draw` picks, as `(row bit, col bit)`:
    /// below `a` top-left, below `a + b` top-right, below `a + b + c`
    /// bottom-left, else bottom-right. Three integer compares, no branch.
    #[inline]
    fn quadrant(&self, draw: u64) -> (u64, u64) {
        let k = draw >> 11;
        let [t1, t2, t3] = self.thresholds;
        let (q1, q2, q3) = ((k >= t1) as u64, (k >= t2) as u64, (k >= t3) as u64);
        (q2, (q1 & !q2) | q3)
    }

    /// Edge `index` of the stream, computed from scratch — `O(log n)` mixes,
    /// no per-edge state and no data-dependent branch.
    pub(crate) fn edge(&self, index: u64) -> (u64, u64) {
        // A private splitmix64 chain per edge, keyed by (seed, index).
        let mut state = self
            .config
            .seed
            .wrapping_add(splitmix64(index.wrapping_mul(0xD1B5_4A32_D192_ED03)));
        let (mut row, mut col) = (0u64, 0u64);
        for _ in 0..self.levels {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let (r, c) = self.quadrant(splitmix64(state));
            row = row << 1 | r;
            col = col << 1 | c;
        }
        // `levels` is the bit length of `n - 1`, so `row, col < 2n`: one
        // conditional subtract is `% n`.
        let n = self.config.num_vertices;
        let fold = |x: u64| if x >= n { x - n } else { x };
        (fold(row), fold(col))
    }

    /// A fresh pass over all edges. Cheap to call repeatedly — each pass
    /// recomputes edges from the counter.
    pub fn edges(&self) -> RmatEdgeIter {
        RmatEdgeIter {
            stream: *self,
            next: 0,
        }
    }
}

/// Iterator over a [`RmatStream`]'s edges.
#[derive(Debug, Clone)]
pub struct RmatEdgeIter {
    stream: RmatStream,
    next: u64,
}

impl Iterator for RmatEdgeIter {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.next >= self.stream.config.num_edges {
            return None;
        }
        let e = self.stream.edge(self.next);
        self.next += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.stream.config.num_edges - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RmatEdgeIter {}

/// Streaming label assignment: the label of vertex `v` is a pure function of
/// `(seed, v)` — no per-vertex storage.
///
/// The marginal distribution matches [`LabelModel::assign`] (uniform, or
/// Zipf via inverse-CDF over the precomputed rank distribution); the exact
/// per-vertex assignment differs because `assign` walks a sequential RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingLabels {
    num_labels: usize,
    seed: u64,
    /// Cumulative rank distribution; empty for the uniform model.
    cdf: Vec<f64>,
}

impl StreamingLabels {
    /// Creates a streaming assigner for the given model.
    pub fn new(model: LabelModel, seed: u64) -> Self {
        let cdf = match model {
            LabelModel::Uniform { .. } => Vec::new(),
            LabelModel::Zipf {
                num_labels,
                exponent,
            } => {
                let k = num_labels.max(1);
                let weights: Vec<f64> = (0..k)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(k);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                cdf
            }
        };
        StreamingLabels {
            num_labels: model.num_labels().max(1),
            seed,
            cdf,
        }
    }

    /// Size of the label alphabet.
    pub(crate) fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The label of vertex `v`.
    pub fn label_of(&self, v: u64) -> u32 {
        let h = splitmix64(self.seed ^ v.wrapping_mul(0xA24B_AED4_963E_E407));
        if self.cdf.is_empty() {
            (h % self.num_labels as u64) as u32
        } else {
            let r = to_unit(h);
            self.cdf
                .partition_point(|&c| c < r)
                .min(self.num_labels - 1) as u32
        }
    }
}

/// Streams an R-MAT graph straight into a [`MemoryCloud`] via
/// [`StreamLoader`], never materializing the edge list: peak memory is the
/// finished cloud plus one staging buffer, which fills two machines a pass
/// within the bytes one machine's 8-byte staging would take.
///
/// Labels are named `L<idx>` and interned in index order, matching
/// [`crate::synthetic::SyntheticGraph::to_builder`], so `LabelId(i)`
/// corresponds to `"L<i>"` exactly as in the materialized path. `loader`
/// carries the machine count and the cost model.
pub fn stream_cloud_with(
    stream: &RmatStream,
    labels: &StreamingLabels,
    loader: StreamLoader,
) -> Result<MemoryCloud, TrinityError> {
    let mut interner = LabelInterner::default();
    for k in 0..labels.num_labels() as u32 {
        interner.intern(&crate::synthetic::SyntheticGraph::label_name(k));
    }
    let n = stream.num_vertices();
    loader.load(
        interner,
        (0..n).map(|v| (VertexId(v), LabelId(labels.label_of(v)))),
        || stream.edges().map(|(u, v)| (VertexId(u), VertexId(v))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_sim::network::CostModel;

    fn stream() -> RmatStream {
        RmatStream::new(RmatConfig::with_avg_degree(2_000, 8.0, 0x5EED))
    }

    /// The per-level three-way `if` the branch-free kernel replaced, kept
    /// as its reference.
    fn branchy_quadrant(config: &RmatConfig, draw: u64) -> (u64, u64) {
        let r = to_unit(draw);
        if r < config.a {
            (0, 0)
        } else if r < config.a + config.b {
            (0, 1)
        } else if r < config.a + config.b + config.c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// The kernel as it was before it went branch-free.
    fn branchy_edge(s: &RmatStream, index: u64) -> (u64, u64) {
        let config = &s.config;
        let mut state = config
            .seed
            .wrapping_add(splitmix64(index.wrapping_mul(0xD1B5_4A32_D192_ED03)));
        let (mut row, mut col) = (0u64, 0u64);
        for _ in 0..s.levels {
            row <<= 1;
            col <<= 1;
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let (r, c) = branchy_quadrant(config, splitmix64(state));
            row |= r;
            col |= c;
        }
        (row % config.num_vertices, col % config.num_vertices)
    }

    #[test]
    fn branch_free_edges_equal_the_branchy_reference() {
        // Every threshold is an exact integer image of its probability.
        for p in [0.0, 0.19, 0.57, 0.76, 0.95, 1.0] {
            let k = unit_threshold(p);
            if k < 1 << 53 {
                assert!(to_unit(k << 11) >= p, "p = {p}: draw {k} is below p");
            }
            if k > 0 {
                assert!(
                    to_unit((k - 1) << 11) < p,
                    "p = {p}: draw {} is not below p",
                    k - 1
                );
            }
        }
        let corners = [
            (0.57, 0.19, 0.19),
            (1.0, 0.0, 0.0),
            (0.5, 0.25, 0.25),
            (0.19, 0.5, 0.31),
        ];
        for n in [1u64 << 17, 20_000, 1_000_003] {
            for seed in [1u64, 0x5EED, 0xDEAD_BEEF_CAFE] {
                for (a, b, c) in corners {
                    let s = RmatStream::new(RmatConfig {
                        a,
                        b,
                        c,
                        ..RmatConfig::new(n, 1 << 16, seed)
                    });
                    // A draw exactly at each threshold and one below it.
                    for t in s.thresholds {
                        for k in [t.saturating_sub(1), t]
                            .into_iter()
                            .filter(|&k| k < 1 << 53)
                        {
                            let draw = k << 11 | 0x7FF;
                            assert_eq!(
                                s.quadrant(draw),
                                branchy_quadrant(&s.config, draw),
                                "({a}, {b}, {c}): draw {k}"
                            );
                        }
                    }
                    for i in 0..s.config.num_edges {
                        assert_eq!(
                            s.edge(i),
                            branchy_edge(&s, i),
                            "n {n} seed {seed} ({a}, {b}, {c}) edge {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_is_random_access_and_matches_iteration() {
        let s = stream();
        let collected: Vec<_> = s.edges().collect();
        assert_eq!(collected.len(), s.config.num_edges as usize);
        for (i, &e) in collected.iter().enumerate() {
            assert_eq!(s.edge(i as u64), e, "edge({i}) must match the stream");
        }
        assert!(collected.iter().all(|&(u, v)| u < 2_000 && v < 2_000));
    }

    #[test]
    fn reiteration_is_identical() {
        let s = stream();
        let a: Vec<_> = s.edges().collect();
        let b: Vec<_> = s.edges().collect();
        assert_eq!(a, b);
        let other = RmatStream::new(RmatConfig::with_avg_degree(2_000, 8.0, 0x5EEE));
        assert_ne!(a, other.edges().collect::<Vec<_>>());
    }

    #[test]
    fn skew_produces_hubs() {
        let s = RmatStream::new(RmatConfig::new(1 << 12, 40_000, 3));
        let mut degree = vec![0u32; 1 << 12];
        for (u, v) in s.edges() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let max = *degree.iter().max().unwrap() as f64;
        let avg = 2.0 * 40_000.0 / (1 << 12) as f64;
        assert!(max > 4.0 * avg, "max degree {max} vs avg {avg}");
    }

    #[test]
    fn uniform_labels_cover_alphabet() {
        let l = StreamingLabels::new(LabelModel::Uniform { num_labels: 5 }, 7);
        let mut seen = [false; 5];
        for v in 0..10_000u64 {
            let lab = l.label_of(v);
            assert!(lab < 5);
            seen[lab as usize] = true;
            assert_eq!(lab, l.label_of(v), "label_of must be pure");
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_labels_are_skewed() {
        let l = StreamingLabels::new(
            LabelModel::Zipf {
                num_labels: 20,
                exponent: 1.0,
            },
            4,
        );
        let mut counts = vec![0u64; 20];
        for v in 0..20_000u64 {
            counts[l.label_of(v) as usize] += 1;
        }
        assert!(
            counts[0] > counts[10] * 2,
            "rank-0 should dominate: {counts:?}"
        );
    }

    #[test]
    fn stream_cloud_builds_a_queryable_cloud() {
        let s = stream();
        let labels = StreamingLabels::new(LabelModel::Uniform { num_labels: 8 }, 0xAB);
        let cloud =
            stream_cloud_with(&s, &labels, StreamLoader::new(4, CostModel::free())).unwrap();
        assert_eq!(cloud.num_vertices(), 2_000);
        assert!(cloud.num_edges() > 0);
        // Every vertex's label round-trips through the cloud.
        for v in (0..2_000u64).step_by(97) {
            let want = labels.label_of(v);
            assert_eq!(cloud.label_of_global(VertexId(v)), Some(LabelId(want)));
        }
    }

    #[test]
    fn stream_cloud_matches_materialized_build() {
        // The same vertex/edge multiset through the streaming path and
        // through SyntheticGraph/GraphBuilder must agree on the basics.
        let s = stream();
        let labels = StreamingLabels::new(LabelModel::Uniform { num_labels: 8 }, 0xAB);
        let streamed =
            stream_cloud_with(&s, &labels, StreamLoader::new(4, CostModel::free())).unwrap();

        let edges: Vec<_> = s.edges().collect();
        let label_vec: Vec<u32> = (0..2_000).map(|v| labels.label_of(v)).collect();
        let materialized = crate::synthetic::SyntheticGraph::unlabeled(2_000, edges)
            .with_labels(label_vec, 8)
            .build_cloud(4, CostModel::free());

        assert_eq!(streamed.num_vertices(), materialized.num_vertices());
        assert_eq!(streamed.num_edges(), materialized.num_edges());
        for v in (0..2_000u64).step_by(131) {
            assert_eq!(
                streamed.label_of_global(VertexId(v)),
                materialized.label_of_global(VertexId(v))
            );
        }
    }
}
