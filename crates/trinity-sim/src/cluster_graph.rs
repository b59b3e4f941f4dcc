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
use std::collections::{HashMap, HashSet, VecDeque};

/// Distance value for unreachable machine pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Label-pair catalog: for each ordered machine pair, the set of (source
/// label, destination label) pairs realised by at least one edge.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelPairCatalog {
    num_machines: usize,
    /// `pairs[i * num_machines + j]` = label pairs observed from machine i to j.
    pairs: Vec<FxHashSet<(LabelId, LabelId)>>,
}

impl LabelPairCatalog {
    /// Creates an empty catalog over `num_machines` machines.
    pub fn new(num_machines: usize) -> Self {
        LabelPairCatalog {
            num_machines,
            pairs: vec![FxHashSet::default(); num_machines * num_machines],
        }
    }

    /// Number of machines this catalog covers.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    #[inline]
    fn cell(&self, src: MachineId, dst: MachineId) -> usize {
        src.index() * self.num_machines + dst.index()
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
        let cell = self.cell(src, dst);
        self.pairs[cell].insert((src_label, dst_label));
    }

    /// Whether any edge with the given label pair exists from `src` to `dst`.
    pub fn has_pair(
        &self,
        src: MachineId,
        src_label: LabelId,
        dst: MachineId,
        dst_label: LabelId,
    ) -> bool {
        self.pairs[self.cell(src, dst)].contains(&(src_label, dst_label))
    }

    /// Number of distinct label pairs recorded between `src` and `dst`.
    pub fn pair_count(&self, src: MachineId, dst: MachineId) -> usize {
        self.pairs[self.cell(src, dst)].len()
    }

    /// Total number of catalog entries (a linear-size preprocessing structure).
    pub fn total_entries(&self) -> usize {
        self.pairs.iter().map(|s| s.len()).sum()
    }
}

/// The query-specific cluster graph: vertices are machines, an (undirected)
/// edge `i – j` exists iff some query edge's label pair is realised between
/// machines `i` and `j` in either direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterGraph {
    num_machines: usize,
    /// Adjacency lists over machine indices.
    adjacency: Vec<Vec<u16>>,
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
        let distances = all_pairs_bfs(&adjacency);
        ClusterGraph {
            num_machines: n,
            adjacency,
            distances,
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
        let distances = all_pairs_bfs(&adjacency);
        ClusterGraph {
            num_machines,
            adjacency,
            distances,
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Neighbors of machine `m` in the cluster graph.
    pub fn neighbors(&self, m: MachineId) -> &[u16] {
        &self.adjacency[m.index()]
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

    /// Number of edges in the cluster graph.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum::<usize>() / 2
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

/// Convenience: a map from unordered machine pairs to whether they are
/// adjacent in the cluster graph (used in tests and diagnostics).
pub fn adjacency_map(cluster: &ClusterGraph) -> HashMap<(u16, u16), bool> {
    let mut out = HashMap::new();
    let n = cluster.num_machines() as u16;
    for i in 0..n {
        for j in (i + 1)..n {
            out.insert((i, j), cluster.distance(MachineId(i), MachineId(j)) == 1);
        }
    }
    out
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
        let mut c = LabelPairCatalog::new(4);
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
        assert_eq!(c.pair_count(m(0), m(1)), 1);
        assert_eq!(c.total_entries(), 3);
    }

    #[test]
    fn cluster_graph_respects_query_labels() {
        let c = chain_catalog();
        // Query uses the label pair that exists → chain topology.
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        assert_eq!(cg.distance(m(0), m(1)), 1);
        assert_eq!(cg.distance(m(0), m(2)), 2);
        assert_eq!(cg.distance(m(0), m(3)), 3);
        assert_eq!(cg.num_edges(), 3);
        // Query uses a label pair that never occurs → empty cluster graph.
        let cg2 = ClusterGraph::build(&c, &[(l(5), l(6))]);
        assert_eq!(cg2.distance(m(0), m(1)), UNREACHABLE);
        assert_eq!(cg2.num_edges(), 0);
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
        assert_eq!(cg.num_edges(), 10);
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
    fn adjacency_map_reports_edges() {
        let c = chain_catalog();
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        let map = adjacency_map(&cg);
        assert!(map[&(0, 1)]);
        assert!(!map[&(0, 3)]);
    }

    #[test]
    fn single_machine_cluster() {
        let c = LabelPairCatalog::new(1);
        let cg = ClusterGraph::build(&c, &[(l(0), l(1))]);
        assert_eq!(cg.num_machines(), 1);
        assert_eq!(cg.distance(m(0), m(0)), 0);
        assert_eq!(cg.machines_within(m(0), 10), vec![]);
    }
}
