//! Query workload generators (§6.1 of the paper).
//!
//! Two query families are used throughout the evaluation:
//!
//! * **DFS queries**: run a DFS from a randomly chosen data vertex, keep the
//!   first `N` visited vertices, and use the induced subgraph (with the data
//!   vertices' labels) as the query. Such queries always have at least one
//!   match.
//! * **Random queries**: `N` vertices with labels drawn from the data graph's
//!   label alphabet, a random spanning tree to guarantee connectivity, plus
//!   random extra edges up to `E` edges in total.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use stwig::query::{QVid, QueryGraph};
use stwig::StwigError;
use trinity_sim::ids::{LabelId, VertexId};
use trinity_sim::MemoryCloud;

/// Generates a DFS query with (up to) `num_nodes` vertices.
///
/// Starts from a random vertex; if the reachable component is smaller than
/// `num_nodes` the generator retries from other starts a few times and
/// finally returns the largest pattern found. Returns `None` only if the
/// graph has no edge at all.
pub fn dfs_query(cloud: &MemoryCloud, num_nodes: usize, seed: u64) -> Option<QueryGraph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best: Option<Vec<VertexId>> = None;
    for _attempt in 0..16 {
        let start = random_vertex(cloud, &mut rng)?;
        let visited = dfs_collect(cloud, start, num_nodes);
        if visited.len() >= num_nodes {
            best = Some(visited);
            break;
        }
        match &best {
            Some(b) if b.len() >= visited.len() => {}
            _ => best = Some(visited),
        }
    }
    let vertices = best?;
    if vertices.len() < 2 {
        return None;
    }
    induced_query(cloud, &vertices).ok()
}

/// Generates a random query with `num_nodes` vertices and (up to) `num_edges`
/// edges; labels are drawn uniformly from the data graph's non-empty labels.
pub fn random_query(
    cloud: &MemoryCloud,
    num_nodes: usize,
    num_edges: usize,
    seed: u64,
) -> Result<QueryGraph, StwigError> {
    assert!(num_nodes >= 2, "random queries need at least two vertices");
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = non_empty_labels(cloud);
    assert!(!labels.is_empty(), "data graph has no labeled vertices");

    let mut qb = QueryGraph::builder();
    let vids: Vec<QVid> = (0..num_nodes)
        .map(|_| {
            let l = *labels.choose(&mut rng).expect("non-empty");
            qb.vertex(l)
        })
        .collect();
    // Spanning tree: connect vertex i to a random earlier vertex.
    let mut edge_set: HashSet<(u16, u16)> = HashSet::new();
    for i in 1..num_nodes {
        let j = rng.gen_range(0..i);
        let key = ordered(vids[i], vids[j]);
        edge_set.insert(key);
        qb.edge(vids[i], vids[j]);
    }
    // Extra random edges up to num_edges total (bounded by the complete graph).
    let max_edges = num_nodes * (num_nodes - 1) / 2;
    let target = num_edges.min(max_edges).max(num_nodes - 1);
    let mut guard = 0;
    while edge_set.len() < target && guard < 100 * target {
        guard += 1;
        let i = rng.gen_range(0..num_nodes);
        let j = rng.gen_range(0..num_nodes);
        if i == j {
            continue;
        }
        let key = ordered(vids[i], vids[j]);
        if edge_set.insert(key) {
            qb.edge(vids[i], vids[j]);
        }
    }
    qb.build()
}

/// A batch of queries with consecutive seeds (the paper evaluates 100 queries
/// per configuration and reports the average).
pub fn query_batch(
    cloud: &MemoryCloud,
    count: usize,
    num_nodes: usize,
    num_edges: Option<usize>,
    base_seed: u64,
) -> Vec<QueryGraph> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let seed = base_seed.wrapping_add(i as u64);
        let q = match num_edges {
            None => dfs_query(cloud, num_nodes, seed),
            Some(e) => random_query(cloud, num_nodes, e, seed).ok(),
        };
        if let Some(q) = q {
            out.push(q);
        }
    }
    out
}

/// Draws `count` indices from `0..pool` under a Zipf distribution with the
/// given `exponent` (`1.0` is the classic rank⁻¹ law): index `i` is drawn
/// with probability proportional to `1 / (i + 1)^exponent`. Deterministic
/// per seed. Used to build skewed multi-query workloads, where a small set
/// of popular queries dominates the traffic — the regime in which
/// cross-query STwig caching pays off.
pub fn zipf_indices(pool: usize, count: usize, exponent: f64, seed: u64) -> Vec<usize> {
    assert!(pool > 0, "Zipf needs a non-empty pool");
    assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
    let mut rng = SmallRng::seed_from_u64(seed);
    // Cumulative weights; inverse-CDF sampling by binary search.
    let mut cumulative = Vec::with_capacity(pool);
    let mut total = 0.0f64;
    for i in 0..pool {
        total += 1.0 / ((i + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    (0..count)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..total);
            cumulative.partition_point(|&c| c <= x).min(pool - 1)
        })
        .collect()
}

/// A Zipf-skewed query workload: a pool of `pool` distinct queries (DFS and
/// random families interleaved, so shapes overlap but are not identical)
/// sampled `count` times with skew `exponent`. Queries in the returned
/// stream repeat according to their popularity rank. Deterministic per seed.
pub fn zipf_workload(
    cloud: &MemoryCloud,
    pool: usize,
    count: usize,
    num_nodes: usize,
    exponent: f64,
    seed: u64,
) -> Vec<QueryGraph> {
    assert!(pool > 0 && count > 0, "workload must be non-empty");
    // Half DFS queries (guaranteed ≥ 1 match), half random queries.
    let dfs = query_batch(cloud, pool.div_ceil(2), num_nodes, None, seed);
    let random = query_batch(
        cloud,
        pool / 2,
        num_nodes,
        Some(num_nodes + 1),
        seed ^ 0x5EED,
    );
    let mut distinct: Vec<QueryGraph> = Vec::with_capacity(pool);
    let mut dfs_iter = dfs.into_iter();
    let mut random_iter = random.into_iter();
    // Interleave the families so popularity ranks mix both.
    loop {
        match (dfs_iter.next(), random_iter.next()) {
            (None, None) => break,
            (a, b) => {
                distinct.extend(a);
                distinct.extend(b);
            }
        }
    }
    assert!(!distinct.is_empty(), "query generation degenerated");
    zipf_indices(distinct.len(), count, exponent, seed ^ 0x21F)
        .into_iter()
        .map(|i| distinct[i].clone())
        .collect()
}

fn ordered(a: QVid, b: QVid) -> (u16, u16) {
    if a.0 < b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Labels that occur at least once in the data graph.
fn non_empty_labels(cloud: &MemoryCloud) -> Vec<LabelId> {
    cloud
        .labels()
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| cloud.label_frequency(id) > 0)
        .collect()
}

/// Picks a uniformly random vertex of the cloud (weighted by partition size).
fn random_vertex(cloud: &MemoryCloud, rng: &mut SmallRng) -> Option<VertexId> {
    let total = cloud.num_vertices();
    if total == 0 {
        return None;
    }
    let target = rng.gen_range(0..total);
    let mut seen = 0u64;
    for m in cloud.machines() {
        let p = cloud.partition(m);
        let n = p.num_vertices() as u64;
        if target < seen + n {
            return p.iter_vertices().nth((target - seen) as usize);
        }
        seen += n;
    }
    None
}

/// DFS from `start`, collecting up to `limit` vertices.
fn dfs_collect(cloud: &MemoryCloud, start: VertexId, limit: usize) -> Vec<VertexId> {
    let mut stack = vec![start];
    let mut visited: Vec<VertexId> = Vec::with_capacity(limit);
    let mut seen: HashSet<VertexId> = HashSet::new();
    seen.insert(start);
    while let Some(v) = stack.pop() {
        visited.push(v);
        if visited.len() >= limit {
            break;
        }
        for n in cloud.neighbors_global(v) {
            if seen.insert(n) {
                stack.push(n);
            }
        }
    }
    visited
}

/// Builds the query graph induced by a set of data vertices (their labels and
/// the data edges among them).
fn induced_query(cloud: &MemoryCloud, vertices: &[VertexId]) -> Result<QueryGraph, StwigError> {
    let mut qb = QueryGraph::builder();
    let mut qvids = Vec::with_capacity(vertices.len());
    for &v in vertices {
        let label = cloud
            .label_of_global(v)
            .ok_or_else(|| StwigError::Internal(format!("vertex {v} not in cloud")))?;
        qvids.push(qb.vertex(label));
    }
    for i in 0..vertices.len() {
        for j in (i + 1)..vertices.len() {
            if cloud.has_edge_global(vertices[i], vertices[j]) {
                qb.edge(qvids[i], qvids[j]);
            }
        }
    }
    // The induced subgraph of a DFS prefix can be disconnected when `limit`
    // cuts a branch; retain the connected component of the start vertex by
    // dropping unreachable vertices.
    match qb.build() {
        Ok(q) => Ok(q),
        Err(StwigError::DisconnectedQuery) | Err(StwigError::IsolatedQueryVertex(_)) => {
            // Keep only vertices reachable from the first one in the induced
            // edge set, then rebuild.
            let reachable = reachable_subset(cloud, vertices);
            if reachable.len() < 2 {
                return Err(StwigError::DisconnectedQuery);
            }
            let mut qb = QueryGraph::builder();
            let mut qvids = Vec::with_capacity(reachable.len());
            for &v in &reachable {
                qvids.push(qb.vertex(cloud.label_of_global(v).expect("checked above")));
            }
            for i in 0..reachable.len() {
                for j in (i + 1)..reachable.len() {
                    if cloud.has_edge_global(reachable[i], reachable[j]) {
                        qb.edge(qvids[i], qvids[j]);
                    }
                }
            }
            qb.build()
        }
        Err(e) => Err(e),
    }
}

fn reachable_subset(cloud: &MemoryCloud, vertices: &[VertexId]) -> Vec<VertexId> {
    let set: HashSet<VertexId> = vertices.iter().copied().collect();
    let mut reachable = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = vec![vertices[0]];
    seen.insert(vertices[0]);
    while let Some(v) = stack.pop() {
        reachable.push(v);
        for n in cloud.neighbors_global(v) {
            if set.contains(&n) && seen.insert(n) {
                stack.push(n);
            }
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelModel;
    use crate::rmat::{rmat, RmatConfig};
    use trinity_sim::network::CostModel;

    fn test_cloud() -> MemoryCloud {
        let g = rmat(&RmatConfig::with_avg_degree(2000, 8.0, 42));
        let labels = LabelModel::Uniform { num_labels: 10 }.assign(2000, 7);
        g.with_labels(labels, 10).build_cloud(2, CostModel::free())
    }

    #[test]
    fn dfs_query_has_requested_size_and_a_match() {
        let cloud = test_cloud();
        let q = dfs_query(&cloud, 6, 1).expect("graph has edges");
        assert!(q.num_vertices() >= 2 && q.num_vertices() <= 6);
        assert!(q.is_connected());
        // A DFS query is an induced subgraph, so it must have ≥ 1 match.
        let out = stwig::match_query(
            &cloud,
            &q,
            &stwig::MatchConfig::paper_default(),
            stwig::Run::default(),
        )
        .unwrap();
        assert!(out.num_matches() >= 1);
    }

    #[test]
    fn dfs_query_deterministic_per_seed() {
        let cloud = test_cloud();
        let a = dfs_query(&cloud, 5, 3).unwrap();
        let b = dfs_query(&cloud, 5, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_query_sizes() {
        let cloud = test_cloud();
        let q = random_query(&cloud, 10, 20, 5).unwrap();
        assert_eq!(q.num_vertices(), 10);
        assert!(q.num_edges() >= 9 && q.num_edges() <= 20);
        assert!(q.is_connected());
    }

    #[test]
    fn random_query_edge_cap_is_complete_graph() {
        let cloud = test_cloud();
        let q = random_query(&cloud, 4, 100, 5).unwrap();
        assert_eq!(q.num_edges(), 6);
    }

    #[test]
    fn query_batch_generates_many() {
        let cloud = test_cloud();
        let dfs = query_batch(&cloud, 10, 5, None, 100);
        assert!(dfs.len() >= 8);
        let random = query_batch(&cloud, 10, 6, Some(9), 100);
        assert_eq!(random.len(), 10);
    }

    #[test]
    fn zipf_indices_are_skewed_and_deterministic() {
        let a = zipf_indices(20, 2_000, 1.0, 7);
        let b = zipf_indices(20, 2_000, 1.0, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 20));
        let count_of = |v: &[usize], i: usize| v.iter().filter(|&&x| x == i).count();
        // Rank 0 must dominate rank 10 by roughly 11× under s = 1; allow
        // generous slack for sampling noise.
        assert!(
            count_of(&a, 0) > 3 * count_of(&a, 10).max(1),
            "rank 0: {}, rank 10: {}",
            count_of(&a, 0),
            count_of(&a, 10)
        );
        // Exponent 0 is uniform: the head must not dominate 10× anymore.
        let u = zipf_indices(20, 2_000, 0.0, 7);
        assert!(count_of(&u, 0) < 10 * count_of(&u, 10).max(1));
    }

    #[test]
    fn zipf_workload_repeats_popular_queries() {
        let cloud = test_cloud();
        let workload = zipf_workload(&cloud, 10, 50, 5, 1.2, 99);
        assert_eq!(workload.len(), 50);
        // Skew means far fewer distinct queries than stream entries.
        let mut distinct: Vec<&QueryGraph> = Vec::new();
        for q in &workload {
            if !distinct.contains(&q) {
                distinct.push(q);
            }
        }
        assert!(distinct.len() <= 10);
        assert!(
            distinct.len() < workload.len() / 2,
            "workload is not skewed: {} distinct of {}",
            distinct.len(),
            workload.len()
        );
        assert_eq!(workload, zipf_workload(&cloud, 10, 50, 5, 1.2, 99));
    }

    #[test]
    fn random_vertex_is_in_cloud() {
        let cloud = test_cloud();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let v = random_vertex(&cloud, &mut rng).unwrap();
            assert!(cloud.contains_vertex(v));
        }
    }
}
