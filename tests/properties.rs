//! Property-based tests (proptest) over randomly generated graphs and
//! queries: the STwig pipeline must agree with an independent baseline, its
//! decomposition must be a valid cover within the 2-approximation bound, its
//! distributed execution must be equivalent to the single-machine one, and
//! every returned embedding must verify — under both transports.

use proptest::prelude::*;
use stwig_match::prelude::*;
use trinity_sim::ids::VertexId;

/// A randomly generated small labeled graph described by value (so shrinking
/// works on plain data).
#[derive(Debug, Clone)]
struct RandomGraph {
    num_vertices: u64,
    labels: Vec<u32>,
    edges: Vec<(u64, u64)>,
    num_labels: usize,
}

fn random_graph(max_vertices: u64, max_labels: u32) -> impl Strategy<Value = RandomGraph> {
    (4..=max_vertices, 1..=max_labels).prop_flat_map(move |(n, l)| {
        let labels = proptest::collection::vec(0..l, n as usize);
        let edges = proptest::collection::vec((0..n, 0..n), 3..(n as usize * 3));
        (labels, edges).prop_map(move |(labels, edges)| RandomGraph {
            num_vertices: n,
            labels,
            edges,
            num_labels: l as usize,
        })
    })
}

const MODES: [TransportMode; 2] = [TransportMode::DirectRead, TransportMode::Messages];

fn build_cloud(g: &RandomGraph, machines: usize) -> MemoryCloud {
    SyntheticGraph::unlabeled(g.num_vertices, g.edges.clone())
        .with_labels(g.labels.clone(), g.num_labels)
        .build_cloud(machines, CostModel::default())
}

/// Generates a connected query from the graph via the DFS generator; returns
/// `None` when the graph has no usable component.
fn query_from(cloud: &MemoryCloud, size: usize, seed: u64) -> Option<QueryGraph> {
    dfs_query(cloud, size, seed)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The STwig matcher and the VF2 baseline return exactly the same set of
    /// embeddings, and every embedding verifies against the data graph.
    #[test]
    fn stwig_agrees_with_vf2(g in random_graph(24, 3), qsize in 3usize..6, seed in 0u64..1000) {
        let cloud = build_cloud(&g, 2);
        if let Some(query) = query_from(&cloud, qsize, seed) {
            let reference = canonical_rows(&query, &vf2(&cloud, &query, None));
            for mode in MODES {
                let config = MatchConfig::exhaustive().with_transport_mode(mode);
                let ours = stwig::match_query_distributed(&cloud, &query, &config).unwrap();
                prop_assert_eq!(canonical_rows(&query, &ours.table), reference.clone());
                prop_assert!(verify_all(&cloud, &query, &ours.table).is_ok());
            }
        }
    }

    /// Distributed execution returns the same answers as single-machine
    /// execution regardless of how many machines the graph is partitioned over.
    #[test]
    fn distributed_equals_single(g in random_graph(24, 3), machines in 2usize..6, seed in 0u64..1000) {
        let single_cloud = build_cloud(&g, 1);
        if let Some(query) = query_from(&single_cloud, 4, seed) {
            let multi_cloud = build_cloud(&g, machines);
            for mode in MODES {
                let config = MatchConfig::exhaustive().with_transport_mode(mode);
                let single = stwig::match_query_distributed(&single_cloud, &query, &config).unwrap();
                let multi = stwig::match_query_distributed(&multi_cloud, &query, &config).unwrap();
                prop_assert_eq!(
                    canonical_rows(&query, &single.table),
                    canonical_rows(&query, &multi.table)
                );
            }
        }
    }

    /// Algorithm 2 always produces a valid STwig cover (every query edge in
    /// exactly one STwig) whose size respects the 2-approximation bound,
    /// every non-head STwig root is bound by an earlier STwig, and every
    /// STwig's children are in canonical `(label, id)` order.
    #[test]
    fn decomposition_is_valid_cover(g in random_graph(20, 3), qsize in 3usize..7, seed in 0u64..1000) {
        let cloud = build_cloud(&g, 1);
        if let Some(query) = query_from(&cloud, qsize, seed) {
            let cover = decompose_ordered(&query, &cloud).unwrap();
            stwig::stwig::validate_cover(&query, &cover).unwrap();
            let opt = stwig::decompose::minimum_cover_size_bruteforce(&query);
            prop_assert!(cover.len() <= 2 * opt.max(1));
            // ordering property
            let mut bound = std::collections::HashSet::new();
            for (i, t) in cover.iter().enumerate() {
                if i > 0 {
                    prop_assert!(bound.contains(&t.root));
                }
                bound.extend(t.vertices());
            }
            // Whatever the statistics source — and for the random ablation
            // cover too — the planner hands out a valid cover whose STwigs
            // list their children in canonical (label, id) order.
            for other in [
                decompose_ordered(&query, &PairAwareStats(&cloud)).unwrap(),
                decompose_ordered(&query, &UniformStats).unwrap(),
                decompose_random(&query, seed).unwrap(),
                cover,
            ] {
                stwig::stwig::validate_cover(&query, &other).unwrap();
                for t in &other {
                    prop_assert!(t.has_canonical_children(&query), "{} of {:?}", t, query);
                    let keys: Vec<_> = t.children.iter().map(|&c| (query.label(c), c)).collect();
                    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    /// The result limit never produces more rows than requested and all rows
    /// remain valid embeddings.
    #[test]
    fn result_limit_is_sound(g in random_graph(30, 2), limit in 1usize..20, seed in 0u64..1000) {
        let cloud = build_cloud(&g, 3);
        if let Some(query) = query_from(&cloud, 3, seed) {
            for mode in MODES {
                let config = MatchConfig::exhaustive()
                    .with_result_mode(ResultMode::FirstK(limit))
                    .with_transport_mode(mode);
                let out = stwig::match_query_distributed(&cloud, &query, &config).unwrap();
                prop_assert!(out.num_matches() <= limit);
                prop_assert!(verify_all(&cloud, &query, &out.table).is_ok());
            }
        }
    }

    /// Builder invariants: the cloud reports exactly the deduplicated edges
    /// and every vertex is owned by exactly one machine.
    #[test]
    fn cloud_construction_invariants(g in random_graph(40, 4), machines in 1usize..6) {
        let cloud = build_cloud(&g, machines);
        prop_assert_eq!(cloud.num_vertices(), g.num_vertices);
        let per_machine: usize = cloud.machines().map(|m| cloud.partition(m).num_vertices()).sum();
        prop_assert_eq!(per_machine as u64, g.num_vertices);
        // adjacency is symmetric
        for v in 0..g.num_vertices {
            for n in cloud.neighbors_global(VertexId(v)) {
                prop_assert!(cloud.has_edge_global(n, VertexId(v)));
            }
        }
        // label frequencies sum to the vertex count
        let total: u64 = cloud.labels().iter().map(|(id, _)| cloud.label_frequency(id)).sum();
        prop_assert_eq!(total, g.num_vertices);
    }

    /// The query-specific cluster graph respects Theorem 3: for every data
    /// edge whose labels match a query edge, the owning machines are at
    /// cluster distance ≤ 1.
    #[test]
    fn cluster_graph_theorem3(g in random_graph(30, 3), machines in 2usize..6, seed in 0u64..1000) {
        let cloud = build_cloud(&g, machines);
        if let Some(query) = query_from(&cloud, 4, seed) {
            let plan = stwig::plan_query(&cloud, &query).unwrap();
            let label_edges = query.label_edges();
            for u in 0..g.num_vertices {
                let lu = cloud.label_of_global(VertexId(u)).unwrap();
                for n in cloud.neighbors_global(VertexId(u)) {
                    let ln = cloud.label_of_global(n).unwrap();
                    let matches_query_edge = label_edges
                        .iter()
                        .any(|&(a, b)| (a == lu && b == ln) || (a == ln && b == lu));
                    if matches_query_edge {
                        let mu = cloud.machine_of(VertexId(u));
                        let mn = cloud.machine_of(n);
                        prop_assert!(plan.cluster.distance(mu, mn) <= 1);
                    }
                }
            }
        }
    }
}
