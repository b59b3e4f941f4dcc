//! Ablation studies for the design choices the paper motivates but does not
//! benchmark in isolation (DESIGN.md experiments A1–A3):
//!
//! * **A1 — STwig ordering**: Algorithm 2's f-value-guided, bound-root
//!   ordering versus the plain randomized 2-approximate cover of §5.1.
//! * **A2 — head-STwig selection**: the communication cost `T(s)` of the
//!   selected head versus the worst possible head (Eq. 2).
//! * **A3 — exploration versus joins**: binding-aware exploration versus
//!   matching every STwig independently and leaving all the work to the join
//!   (the strategy §3 argues against).

use crate::harness::{run_suite, Row, Scale};
use graph_gen::prelude::*;
use stwig::bindings::Bindings;
use stwig::decompose::{decompose_ordered, decompose_random};
use stwig::matcher::match_stwig;
use stwig::metrics::ExploreCounters;
use stwig::{MatchConfig, QueryGraph};
use trinity_sim::ids::MachineId;
use trinity_sim::network::{CostModel, Network};
use trinity_sim::MemoryCloud;

/// A1: compares exploration cost (STwig result rows and candidate loads)
/// between Algorithm 2's ordered decomposition and the random 2-approximate
/// cover, on random queries over the Patents-like profile.
pub(crate) fn ablation_order(scale: Scale) -> Vec<Row> {
    let cloud = patents_like(scale.base_vertices(), 0xA11CE).build_cloud(4, CostModel::default());
    // DFS queries: they are guaranteed to have matches, so the exploration
    // cost difference between the two decompositions is actually exercised
    // (random queries on the Patents profile almost always have zero matches
    // and terminate after the first STwig).
    let queries = query_batch(&cloud, scale.queries_per_point(), 8, None, 0xAB1);
    let config = MatchConfig::paper_default();

    let mut rows = Vec::new();
    let mut ordered_rows = 0.0;
    let mut random_rows = 0.0;
    let mut ordered_loads = 0.0;
    let mut random_loads = 0.0;
    for (i, q) in queries.iter().enumerate() {
        if let Some((rows_a, loads_a)) = explore_cost(&cloud, q, &config, Strategy::Ordered) {
            ordered_rows += rows_a as f64;
            ordered_loads += loads_a as f64;
        }
        if let Some((rows_b, loads_b)) =
            explore_cost(&cloud, q, &config, Strategy::Random(i as u64))
        {
            random_rows += rows_b as f64;
            random_loads += loads_b as f64;
        }
    }
    let n = queries.len().max(1) as f64;
    rows.push(Row::new(
        "ablation-order",
        "algorithm2",
        0.0,
        "avg_stwig_rows",
        ordered_rows / n,
    ));
    rows.push(Row::new(
        "ablation-order",
        "random_cover",
        0.0,
        "avg_stwig_rows",
        random_rows / n,
    ));
    rows.push(Row::new(
        "ablation-order",
        "algorithm2",
        0.0,
        "avg_cells_loaded",
        ordered_loads / n,
    ));
    rows.push(Row::new(
        "ablation-order",
        "random_cover",
        0.0,
        "avg_cells_loaded",
        random_loads / n,
    ));
    rows
}

enum Strategy {
    Ordered,
    Random(u64),
}

/// Runs exploration (not the join) for one query under a decomposition
/// strategy and reports (total STwig rows, cells loaded).
fn explore_cost(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    strategy: Strategy,
) -> Option<(u64, u64)> {
    let stwigs = match strategy {
        Strategy::Ordered => decompose_ordered(query, cloud).ok()?,
        Strategy::Random(seed) => decompose_random(query, seed).ok()?,
    };
    let mut bindings = Bindings::new(query.num_vertices());
    let mut counters = ExploreCounters::default();
    let ledger = Network::new(cloud.num_machines());
    for stwig in &stwigs {
        let roots = if config.use_bindings && bindings.is_bound(stwig.root) {
            let mut r: Vec<_> = bindings.get(stwig.root).unwrap().iter().copied().collect();
            r.sort_unstable();
            r
        } else {
            cloud.all_ids_with_label(query.label(stwig.root))
        };
        let table = match_stwig(
            cloud,
            &ledger,
            MachineId(0),
            query,
            stwig,
            &roots,
            &bindings,
            config,
            None,
            &mut counters,
        );
        if config.use_bindings {
            bindings.update_from_table(&table);
        }
        if table.is_empty() {
            break;
        }
    }
    Some((counters.rows_emitted, counters.cells_loaded))
}

/// A2: communication cost `T(s)` (Eq. 2) of the chosen head STwig versus the
/// worst head, over DFS queries on the Patents-like profile partitioned
/// across 8 machines.
pub(crate) fn ablation_head(scale: Scale) -> Vec<Row> {
    let cloud = patents_like(scale.base_vertices(), 0xA11CE).build_cloud(8, CostModel::default());
    let queries = query_batch(&cloud, scale.queries_per_point(), 8, None, 0xAB2);
    let mut best_total = 0.0;
    let mut worst_total = 0.0;
    let mut counted = 0usize;
    for q in &queries {
        let Ok(plan) = stwig::plan_query(&cloud, q) else {
            continue;
        };
        let dist = q.all_pairs_distances();
        let roots: Vec<usize> = plan.stwigs.iter().map(|t| t.root.index()).collect();
        let costs: Vec<u64> = roots
            .iter()
            .map(|&r| {
                let ecc = roots.iter().map(|&s| dist[r][s]).max().unwrap_or(0);
                trinity_sim::cluster_graph::communication_cost(&plan.cluster, ecc)
            })
            .collect();
        best_total += plan.head.communication_cost as f64;
        worst_total += *costs.iter().max().unwrap_or(&0) as f64;
        counted += 1;
    }
    let n = counted.max(1) as f64;
    vec![
        Row::new(
            "ablation-head",
            "selected_head",
            0.0,
            "avg_comm_cost",
            best_total / n,
        ),
        Row::new(
            "ablation-head",
            "worst_head",
            0.0,
            "avg_comm_cost",
            worst_total / n,
        ),
    ]
}

/// A3: binding-aware exploration versus independent STwig matching + join
/// (the §3 comparison), on random queries over the WordNet-like profile where
/// label selectivity is low and the difference is most visible.
pub(crate) fn ablation_explore(scale: Scale) -> Vec<Row> {
    let cloud = wordnet_like(scale.base_vertices(), 0xB0B).build_cloud(4, CostModel::default());
    let queries = query_batch(&cloud, scale.queries_per_point(), 6, Some(9), 0xAB3);
    let with = run_suite(&cloud, &queries, &MatchConfig::paper_default());
    let without = run_suite(
        &cloud,
        &queries,
        &MatchConfig::paper_default().with_bindings(false),
    );
    vec![
        Row::new(
            "ablation-explore",
            "with_bindings",
            0.0,
            "avg_stwig_rows",
            with.avg_stwig_rows,
        ),
        Row::new(
            "ablation-explore",
            "no_bindings",
            0.0,
            "avg_stwig_rows",
            without.avg_stwig_rows,
        ),
        Row::new(
            "ablation-explore",
            "with_bindings",
            0.0,
            "run_time_ms",
            with.avg_wall_ms,
        ),
        Row::new(
            "ablation-explore",
            "no_bindings",
            0.0,
            "run_time_ms",
            without.avg_wall_ms,
        ),
        Row::new(
            "ablation-explore",
            "with_bindings",
            0.0,
            "matches",
            with.avg_matches,
        ),
        Row::new(
            "ablation-explore",
            "no_bindings",
            0.0,
            "matches",
            without.avg_matches,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3 (§3), graph G1: one `a` joined to `b1`, which reaches `c1`
    /// and `c2`, while `b2..bk` all reach `c2` too. The query a-b-c has
    /// exactly 2 answers; the edge-join strategy materializes ~k useless
    /// (b_i, c2) candidates first, exploration does not.
    #[test]
    fn figure3_exploration_beats_edge_join() {
        let k = 50;
        let v = trinity_sim::VertexId;
        let mut g1 = trinity_sim::GraphBuilder::default();
        g1.add_vertex(v(0), "a");
        for i in 0..k {
            g1.add_vertex(v(100 + i), "b");
        }
        g1.add_vertex(v(200), "c");
        g1.add_vertex(v(201), "c");
        g1.add_edge(v(0), v(100));
        g1.add_edge(v(100), v(200));
        g1.add_edge(v(100), v(201));
        for i in 1..k {
            g1.add_edge(v(100 + i), v(201));
        }
        let cloud = g1.build(1, CostModel::free());
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let c = qb.vertex_by_name(&cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c);
        let query = qb.build().unwrap();

        let (_result, stats) = baselines::edge_join(&cloud, &query, None);
        let config = MatchConfig::default();
        let out = stwig::match_query(&cloud, &query, &config, stwig::Run::default()).unwrap();
        let (ej, ex) = (stats.candidate_rows, out.metrics.explore.rows_emitted);
        assert!(
            ej > ex,
            "edge_join candidates {ej} should exceed exploration {ex}"
        );
        assert_eq!(out.num_matches(), 2);
    }

    #[test]
    fn ablation_explore_bindings_reduce_rows() {
        let rows = ablation_explore(Scale::Small);
        let with = rows
            .iter()
            .find(|r| r.series == "with_bindings" && r.metric == "avg_stwig_rows")
            .unwrap()
            .value;
        let without = rows
            .iter()
            .find(|r| r.series == "no_bindings" && r.metric == "avg_stwig_rows")
            .unwrap()
            .value;
        assert!(
            with <= without,
            "bindings should not increase exploration rows"
        );
        // Both strategies must agree on the number of matches.
        let m_with = rows
            .iter()
            .find(|r| r.series == "with_bindings" && r.metric == "matches")
            .unwrap()
            .value;
        let m_without = rows
            .iter()
            .find(|r| r.series == "no_bindings" && r.metric == "matches")
            .unwrap()
            .value;
        assert_eq!(m_with, m_without);
    }

    #[test]
    fn ablation_head_selected_is_no_worse_than_worst() {
        let rows = ablation_head(Scale::Small);
        let best = rows
            .iter()
            .find(|r| r.series == "selected_head")
            .unwrap()
            .value;
        let worst = rows
            .iter()
            .find(|r| r.series == "worst_head")
            .unwrap()
            .value;
        assert!(best <= worst);
    }
}
