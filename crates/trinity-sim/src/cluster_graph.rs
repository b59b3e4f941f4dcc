//! Cluster-graph machinery of §5.3.
//!
//! At load time we record, for every ordered machine pair `(i, j)`, the set of
//! label pairs `(A, B)` such that some edge `u → v` exists with `u` on machine
//! `i` labeled `A` and `v` on machine `j` labeled `B`. Given a query, the
//! *cluster graph* has an edge `i → j` iff the catalog contains a label pair
//! matching some query edge; shortest distances on it bound the distance of
//! joinable partial matches (Theorem 3) and therefore define the load sets
//! (Theorem 4).

use crate::hash::FxHashSet;
use crate::ids::{LabelId, MachineId};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// Distance value for unreachable machine pairs.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// Estimated bytes a pair costs in a hashed set: its 12-byte key plus
/// control byte and load-factor slack. The layout switch compares at it.
const SET_BYTES_PER_PAIR: usize = 16;

/// Label-pair catalog: for each ordered machine pair, the set of (source
/// label, destination label) pairs realised by at least one edge.
///
/// The data picks the layout, as it does for
/// [`crate::compact::IdIndex`]; there is no option. Pairs start in one
/// hashed set keyed by cell. As soon as one `L × L`-bit bitmap per ordered
/// machine pair (`L` = labels interned when the catalog is built) is no
/// larger than that set at `SET_BYTES_PER_PAIR`, every cell becomes its
/// bitmap, and recording or testing a pair is one bit. The cells switch
/// together, so no per-cell directory costs heap; with hash partitioning
/// every cell sees the same label mix. Sparse pairs over a large alphabet
/// stay hashed, and so does any pair naming a label `≥ L` (interned later,
/// by an epoch update).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelPairCatalog {
    num_machines: usize,
    /// `L`: labels below it address the bitmaps.
    num_labels: usize,
    /// Empty, or one bitmap per cell of [`Self::words_per_cell`] words: bit
    /// `a · L + b` of cell `i · M + j` says pair `(a, b)` occurs from machine
    /// `i` to machine `j`.
    bits: Vec<u64>,
    /// `(cell, a, b)` for every pair the bitmaps do not hold.
    sparse: FxHashSet<(u32, LabelId, LabelId)>,
}

impl LabelPairCatalog {
    /// Creates an empty catalog over `num_machines` machines whose bitmaps,
    /// once chosen, cover the first `num_labels` labels.
    pub fn new(num_machines: usize, num_labels: usize) -> Self {
        LabelPairCatalog {
            num_machines,
            num_labels,
            bits: Vec::new(),
            sparse: FxHashSet::default(),
        }
    }

    /// Number of machines this catalog covers.
    pub(crate) fn num_machines(&self) -> usize {
        self.num_machines
    }

    #[inline]
    fn cell(&self, src: MachineId, dst: MachineId) -> usize {
        src.index() * self.num_machines + dst.index()
    }

    fn words_per_cell(&self) -> usize {
        self.num_labels.saturating_mul(self.num_labels).div_ceil(64)
    }

    /// The word and mask of a pair's bit, or `None` while the pairs are
    /// hashed and for a label the bitmaps do not cover.
    #[inline]
    fn bit(&self, cell: usize, a: LabelId, b: LabelId) -> Option<(usize, u64)> {
        let l = self.num_labels;
        if self.bits.is_empty() || a.index() >= l || b.index() >= l {
            return None;
        }
        let i = a.index() * l + b.index();
        Some((cell * self.words_per_cell() + i / 64, 1 << (i % 64)))
    }

    fn record(&mut self, cell: usize, a: LabelId, b: LabelId) {
        match self.bit(cell, a, b) {
            Some((word, mask)) => self.bits[word] |= mask,
            None => {
                self.sparse.insert((cell as u32, a, b));
            }
        }
    }

    /// Records that an edge from a vertex labeled `src_label` on `src` to a
    /// vertex labeled `dst_label` on `dst` exists.
    pub fn record_edge(
        &mut self,
        src: MachineId,
        src_label: LabelId,
        dst: MachineId,
        dst_label: LabelId,
    ) {
        self.record(self.cell(src, dst), src_label, dst_label);
        if self.bits.is_empty() {
            self.switch_if_smaller();
        }
    }

    /// Moves every pair into the bitmaps once they are no larger than the
    /// hashed set.
    fn switch_if_smaller(&mut self) {
        let words = (self.num_machines * self.num_machines).saturating_mul(self.words_per_cell());
        if words == 0 || words.saturating_mul(8) > SET_BYTES_PER_PAIR * self.sparse.len() {
            return;
        }
        self.bits = vec![0; words];
        for (cell, a, b) in std::mem::take(&mut self.sparse) {
            self.record(cell as usize, a, b);
        }
    }

    /// Whether any edge with the given label pair exists from `src` to `dst`.
    pub(crate) fn has_pair(
        &self,
        src: MachineId,
        src_label: LabelId,
        dst: MachineId,
        dst_label: LabelId,
    ) -> bool {
        let cell = self.cell(src, dst);
        match self.bit(cell, src_label, dst_label) {
            Some((word, mask)) => self.bits[word] & mask != 0,
            None => self.sparse.contains(&(cell as u32, src_label, dst_label)),
        }
    }

    /// Total number of catalog entries (a linear-size preprocessing structure).
    pub fn total_entries(&self) -> usize {
        let in_bits: usize = self.bits.iter().map(|x| x.count_ones() as usize).sum();
        in_bits + self.sparse.len()
    }

    /// Heap bytes the catalog keeps: the bitmaps, exactly, plus one key and
    /// one control byte for every pair the hashed set has room for. std's
    /// table adds spare buckets (up to 1/7 more) and a control tail the
    /// width of the target's probe group, which this leaves out.
    pub fn memory_bytes(&self) -> usize {
        let per_pair = std::mem::size_of::<(u32, LabelId, LabelId)>() + 1;
        self.bits.capacity() * 8 + self.sparse.capacity() * per_pair
    }
}

/// The query-specific cluster graph: vertices are machines, an (undirected)
/// edge `i – j` exists iff some query edge's label pair is realised between
/// machines `i` and `j` in either direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterGraph {
    num_machines: usize,
    /// All-pairs shortest distances (in hops); `UNREACHABLE` when disconnected.
    distances: Vec<u32>,
}

impl ClusterGraph {
    /// Builds the cluster graph for a query described by its set of label
    /// edges (unordered label pairs appearing as query edges).
    pub fn build(catalog: &LabelPairCatalog, query_label_edges: &[(LabelId, LabelId)]) -> Self {
        let n = catalog.num_machines();
        let mut adjacency: Vec<HashSet<u16>> = vec![HashSet::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (mi, mj) = (MachineId(i as u16), MachineId(j as u16));
                let connected = query_label_edges.iter().any(|&(a, b)| {
                    catalog.has_pair(mi, a, mj, b) || catalog.has_pair(mi, b, mj, a)
                });
                if connected {
                    adjacency[i].insert(j as u16);
                    adjacency[j].insert(i as u16);
                }
            }
        }
        let adjacency: Vec<Vec<u16>> = adjacency
            .into_iter()
            .map(|s| {
                let mut v: Vec<u16> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        ClusterGraph {
            num_machines: n,
            distances: all_pairs_bfs(&adjacency),
        }
    }

    /// Builds a fully-connected cluster graph (every pair of distinct machines
    /// at distance 1). Useful as the conservative fallback when no catalog is
    /// available.
    pub fn complete(num_machines: usize) -> Self {
        let adjacency: Vec<Vec<u16>> = (0..num_machines)
            .map(|i| {
                (0..num_machines as u16)
                    .filter(|&j| j as usize != i)
                    .collect()
            })
            .collect();
        ClusterGraph {
            num_machines,
            distances: all_pairs_bfs(&adjacency),
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Shortest distance `D_C(i, j)` in hops; `UNREACHABLE` if disconnected,
    /// 0 on the diagonal.
    #[inline]
    pub fn distance(&self, i: MachineId, j: MachineId) -> u32 {
        self.distances[i.index() * self.num_machines + j.index()]
    }

    /// Machines within distance `d` of machine `k` (excluding `k` itself):
    /// this is the load set `F_{k,t}` of Theorem 4 for `d = d(r_s, r_t)`.
    pub fn machines_within(&self, k: MachineId, d: u32) -> Vec<MachineId> {
        (0..self.num_machines as u16)
            .map(MachineId)
            .filter(|&j| j != k && self.distance(k, j) <= d)
            .collect()
    }
}

/// All-pairs shortest paths by BFS from every vertex (the cluster graph is
/// tiny — one vertex per machine — so this is cheaper than Floyd–Warshall).
fn all_pairs_bfs(adjacency: &[Vec<u16>]) -> Vec<u32> {
    let n = adjacency.len();
    let mut dist = vec![UNREACHABLE; n * n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        dist[start * n + start] = 0;
        queue.clear();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = dist[start * n + u];
            for &w in &adjacency[u] {
                let w = w as usize;
                if dist[start * n + w] == UNREACHABLE {
                    dist[start * n + w] = du + 1;
                    queue.push_back(w);
                }
            }
        }
    }
    dist
}

/// Communication cost `T(s)` of Eq. 2 for a candidate head STwig whose maximal
/// query-distance to any other STwig root is `d_s`: the total number of
/// machines each machine would need to contact.
pub fn communication_cost(cluster: &ClusterGraph, d_s: u32) -> u64 {
    let mut total = 0u64;
    for k in 0..cluster.num_machines() as u16 {
        total += cluster.machines_within(MachineId(k), d_s).len() as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> LabelId {
        LabelId(x)
    }
    fn m(x: u16) -> MachineId {
        MachineId(x)
    }

    fn chain_catalog() -> LabelPairCatalog {
        // 4 machines in a chain 0-1-2-3 realised only by label pair (0,1).
        let mut c = LabelPairCatalog::new(4, 2);
        c.record_edge(m(0), l(0), m(1), l(1));
        c.record_edge(m(1), l(0), m(2), l(1));
        c.record_edge(m(2), l(0), m(3), l(1));
        c
    }

    #[test]
    fn catalog_records_and_answers() {
        let c = chain_catalog();
        assert!(c.has_pair(m(0), l(0), m(1), l(1)));
        assert!(!c.has_pair(m(1), l(0), m(0), l(1)));
        assert!(!c.has_pair(m(0), l(1), m(1), l(0)));
        assert_eq!(c.total_entries(), 3);
    }

    #[test]
    fn catalog_answers_like_a_pair_set() {
        // (machines, L, records, bitmaps expected): the first six record
        // enough distinct pairs for the bitmaps to be no larger than the
        // set; the last two stay hashed, the sparse alphabet by far.
        let cases = [
            (1, 1, 50, true),
            (3, 1, 50, true),
            (4, 40, 4_000, true),
            (1, 256, 20_000, true),
            (3, 256, 40_000, true),
            (4, 256, 40_000, true),
            (4, 40, 100, false),
            (4, 100_000, 5_000, false),
        ];
        let mut x = 0x5EED_u64;
        let mut next = |bound: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % bound as u64) as usize
        };
        for (machines, labels, records, want_bits) in cases {
            let mut c = LabelPairCatalog::new(machines, labels);
            let mut reference = HashSet::new();
            // Labels up to L + 2: some pairs name a label interned after
            // the catalog was built.
            let mut pair = || {
                (
                    m(next(machines) as u16),
                    l(next(labels + 3) as u32),
                    m(next(machines) as u16),
                    l(next(labels + 3) as u32),
                )
            };
            for _ in 0..records {
                let (i, a, j, b) = pair();
                c.record_edge(i, a, j, b);
                reference.insert((i, a, j, b));
            }
            let what = format!("M = {machines}, L = {labels}");
            assert_eq!(!c.bits.is_empty(), want_bits, "{what}: layout");
            for &(i, a, j, b) in &reference {
                assert!(c.has_pair(i, a, j, b), "{what}: recorded pair");
            }
            for _ in 0..2 * records {
                let (i, a, j, b) = pair();
                assert_eq!(
                    c.has_pair(i, a, j, b),
                    reference.contains(&(i, a, j, b)),
                    "{what}: probe ({i:?}, {a:?}, {j:?}, {b:?})"
                );
            }
            assert_eq!(c.total_entries(), reference.len(), "{what}: total");
        }
    }

    #[test]
    fn cluster_graph_respects_query_labels() {
        let c = chain_catalog();
        // Query uses the label pair that exists → chain topology.
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        assert_eq!(cg.distance(m(0), m(1)), 1);
        assert_eq!(cg.distance(m(0), m(2)), 2);
        assert_eq!(cg.distance(m(0), m(3)), 3);
        // Query uses a label pair that never occurs → empty cluster graph.
        let cg2 = ClusterGraph::build(&c, &[(l(5), l(6))]);
        assert_eq!(cg2.distance(m(0), m(1)), UNREACHABLE);
    }

    #[test]
    fn cluster_graph_is_symmetric_for_reversed_label_pair() {
        let c = chain_catalog();
        // (l1, l0) reversed should still connect because we check both directions.
        let cg = ClusterGraph::build(&c, &[(l(1), l(0))]);
        assert_eq!(cg.distance(m(0), m(1)), 1);
    }

    #[test]
    fn complete_graph_distances() {
        let cg = ClusterGraph::complete(5);
        for i in 0..5u16 {
            for j in 0..5u16 {
                let expected = if i == j { 0 } else { 1 };
                assert_eq!(cg.distance(m(i), m(j)), expected);
            }
        }
    }

    #[test]
    fn machines_within_matches_distances() {
        let c = chain_catalog();
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        assert_eq!(cg.machines_within(m(0), 0), vec![]);
        assert_eq!(cg.machines_within(m(0), 1), vec![m(1)]);
        assert_eq!(cg.machines_within(m(0), 2), vec![m(1), m(2)]);
        assert_eq!(cg.machines_within(m(1), 1), vec![m(0), m(2)]);
    }

    #[test]
    fn communication_cost_grows_with_radius() {
        let c = chain_catalog();
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        let c0 = communication_cost(&cg, 0);
        let c1 = communication_cost(&cg, 1);
        let c3 = communication_cost(&cg, 3);
        assert_eq!(c0, 0);
        assert!(c1 < c3);
        // chain of 4: radius 3 reaches everyone from everyone = 4*3
        assert_eq!(c3, 12);
    }

    #[test]
    fn single_machine_cluster() {
        let c = LabelPairCatalog::new(1, 2);
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        assert_eq!(cg.num_machines(), 1);
        assert_eq!(cg.distance(m(0), m(0)), 0);
        assert_eq!(cg.machines_within(m(0), 10), vec![]);
    }
}
