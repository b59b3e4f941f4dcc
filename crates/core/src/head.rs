//! Head-STwig and load-set selection (§5.3).
//!
//! In the distributed join phase each machine `k` must fetch, for every STwig
//! `q_t`, the partial results produced by other machines. Theorem 4 bounds
//! the set of machines that can possibly contribute joinable results by the
//! cluster-graph distance: `F_{k,t} = { j : D_C(k, j) ≤ d(r_s, r_t) }` where
//! `q_s` is the *head* STwig (whose results are never fetched remotely, which
//! is what makes per-machine answers disjoint). The head is chosen to
//! minimize the total communication cost `T(s)` of Eq. 2, which reduces to
//! minimizing the head root's eccentricity among STwig roots.

use crate::query::QueryGraph;
use crate::stwig::STwig;
use serde::{Deserialize, Serialize};
use trinity_sim::cluster_graph::{communication_cost, ClusterGraph};
use trinity_sim::ids::MachineId;

/// The outcome of head-STwig selection for one decomposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeadSelection {
    /// Index (into the decomposition) of the chosen head STwig.
    pub head_index: usize,
    /// For every STwig `t`, the query-graph distance `d(r_head, r_t)` between
    /// the head root and `t`'s root.
    pub root_distances: Vec<u32>,
    /// The head root's eccentricity among STwig roots, `d(s) = max_t d(r_s, r_t)`.
    pub eccentricity: u32,
    /// The communication cost `T(s)` of Eq. 2 for the chosen head.
    pub communication_cost: u64,
}

/// Selects the head STwig: the one whose root minimizes the communication
/// cost `T(s)` over the given cluster graph (Eq. 2). Ties are broken towards
/// the smaller eccentricity, then the earlier STwig in processing order.
///
/// `stwigs` must be non-empty.
pub(crate) fn select_head(
    query: &QueryGraph,
    stwigs: &[STwig],
    cluster: &ClusterGraph,
) -> HeadSelection {
    assert!(
        !stwigs.is_empty(),
        "cannot select a head from an empty decomposition"
    );
    let dist = query.all_pairs_distances();
    let roots: Vec<usize> = stwigs.iter().map(|t| t.root.index()).collect();

    let mut best: Option<(usize, u32, u64)> = None; // (index, ecc, cost)
    for (i, &ri) in roots.iter().enumerate() {
        let ecc = roots.iter().map(|&rj| dist[ri][rj]).max().unwrap_or(0);
        let cost = communication_cost(cluster, ecc);
        let better = match best {
            None => true,
            Some((_, becc, bcost)) => cost < bcost || (cost == bcost && ecc < becc),
        };
        if better {
            best = Some((i, ecc, cost));
        }
    }
    let (head_index, eccentricity, cost) = best.expect("non-empty decomposition");
    let head_root = roots[head_index];
    let root_distances = roots.iter().map(|&rj| dist[head_root][rj]).collect();
    HeadSelection {
        head_index,
        root_distances,
        eccentricity,
        communication_cost: cost,
    }
}

/// The load set `F_{k,t}` (Theorem 4): machines whose results for STwig `t`
/// machine `k` must fetch before joining. Empty for the head STwig itself.
pub fn load_set(
    cluster: &ClusterGraph,
    selection: &HeadSelection,
    machine: MachineId,
    stwig_index: usize,
) -> Vec<MachineId> {
    if stwig_index == selection.head_index {
        return Vec::new();
    }
    let d = selection.root_distances[stwig_index];
    cluster.machines_within(machine, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QVid;
    use trinity_sim::cluster_graph::LabelPairCatalog;
    use trinity_sim::ids::LabelId;

    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    /// Path query a(0) - b(1) - c(2) - d(3), decomposed into two STwigs rooted
    /// at b and d.
    fn path_query() -> (QueryGraph, Vec<STwig>) {
        let mut builder = QueryGraph::builder();
        let a = builder.vertex(l(0));
        let b = builder.vertex(l(1));
        let c = builder.vertex(l(2));
        let d = builder.vertex(l(3));
        builder.edge(a, b).edge(b, c).edge(c, d);
        let q = builder.build().unwrap();
        let stwigs = vec![STwig::new(b, vec![a, c]), STwig::new(d, vec![c])];
        (q, stwigs)
    }

    fn chain_cluster(n: usize) -> ClusterGraph {
        // machines 0-1-2-...-n-1 connected in a chain via label pair (0,0)
        let mut cat = LabelPairCatalog::new(n, 1);
        for i in 0..(n - 1) {
            cat.record_edge(MachineId(i as u16), l(0), MachineId(i as u16 + 1), l(0));
            cat.record_edge(MachineId(i as u16 + 1), l(0), MachineId(i as u16), l(0));
        }
        ClusterGraph::build(&cat, &[(l(0), l(0))])
    }

    #[test]
    fn head_minimizes_eccentricity() {
        let (q, stwigs) = path_query();
        let cluster = chain_cluster(4);
        let sel = select_head(&q, &stwigs, &cluster);
        // Roots are b (index 1 in query) and d (index 3). Eccentricities over
        // the root set: ecc(b) = dist(b,d) = 2, ecc(d) = 2 as well (only two
        // roots) — so the head is the first by tie-break.
        assert_eq!(sel.head_index, 0);
        assert_eq!(sel.eccentricity, 2);
        assert_eq!(sel.root_distances, vec![0, 2]);
    }

    #[test]
    fn head_prefers_central_root() {
        // Query: star of 3 paths around center x; STwigs rooted at center and
        // at one leaf end. The center has smaller eccentricity.
        let mut b = QueryGraph::builder();
        let x = b.vertex(l(0));
        let p1 = b.vertex(l(1));
        let p2 = b.vertex(l(2));
        let p3 = b.vertex(l(3));
        let q1 = b.vertex(l(4));
        b.edge(x, p1).edge(x, p2).edge(x, p3).edge(p1, q1);
        let q = b.build().unwrap();
        let stwigs = vec![STwig::new(q1, vec![p1]), STwig::new(x, vec![p1, p2, p3])];
        let cluster = chain_cluster(6);
        let sel = select_head(&q, &stwigs, &cluster);
        // ecc(root=q1) = dist(q1, x) = 2; ecc(root=x) = dist(x, q1) = 2.
        // Equal here, but with the chain cluster cost is equal too → first wins.
        assert_eq!(sel.head_index, 0);

        // Add a third STwig rooted at p2 to break the tie: ecc(x)=2, ecc(q1)=3.
        let stwigs = vec![
            STwig::new(q1, vec![p1]),
            STwig::new(x, vec![p1, p2, p3]),
            STwig::new(p2, vec![x]),
        ];
        let sel = select_head(&q, &stwigs, &cluster);
        assert_eq!(sel.head_index, 1, "central root should win");
        assert_eq!(sel.eccentricity, 2);
    }

    #[test]
    fn load_set_is_empty_for_head_and_bounded_for_others() {
        let (q, stwigs) = path_query();
        let cluster = chain_cluster(4);
        let sel = select_head(&q, &stwigs, &cluster);
        let head = sel.head_index;
        let other = 1 - head;
        for k in 0..4u16 {
            assert!(load_set(&cluster, &sel, MachineId(k), head).is_empty());
        }
        // For the non-head STwig, distance is 2 → machines within 2 hops.
        let f0 = load_set(&cluster, &sel, MachineId(0), other);
        assert_eq!(f0, vec![MachineId(1), MachineId(2)]);
        let f1 = load_set(&cluster, &sel, MachineId(1), other);
        assert_eq!(f1, vec![MachineId(0), MachineId(2), MachineId(3)]);
    }

    #[test]
    fn single_stwig_query_has_trivial_selection() {
        let mut b = QueryGraph::builder();
        let x = b.vertex(l(0));
        let y = b.vertex(l(1));
        b.edge(x, y);
        let q = b.build().unwrap();
        let stwigs = vec![STwig::new(x, vec![y])];
        let cluster = ClusterGraph::complete(4);
        let sel = select_head(&q, &stwigs, &cluster);
        assert_eq!(sel.head_index, 0);
        assert_eq!(sel.eccentricity, 0);
        assert_eq!(sel.communication_cost, 0);
        assert_eq!(sel.root_distances, vec![0]);
        let qvid_check: QVid = stwigs[0].root;
        assert_eq!(qvid_check, x);
    }
}
