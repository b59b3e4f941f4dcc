//! Distributed scale-out: the same query executed over 1..8 simulated
//! machines, showing how the head-STwig / load-set optimizer bounds
//! communication and how the simulated makespan falls as machines are added
//! (the paper's Figure 9 experiment in miniature).
//!
//! ```text
//! cargo run --release --example distributed_scaleout
//! ```

use stwig_match::prelude::*;
use trinity_sim::ids::MachineId;

fn main() {
    // A Patents-like citation graph (power-law, 418 labels).
    let graph = patents_like(50_000, 0xA11CE);

    println!("machines | matches | simulated ms | speedup | messages | MiB shipped");
    println!("---------+---------+--------------+---------+----------+------------");
    let mut baseline_ms: Option<f64> = None;
    for machines in 1..=8usize {
        let cloud = graph.build_cloud(machines, CostModel::default());
        // The same DFS query workload on every cluster size.
        let queries = query_batch(&cloud, 10, 6, None, 0x5CA1E);
        let config = MatchConfig::paper_default();

        let mut total_ms = 0.0;
        let mut total_matches = 0usize;
        let mut total_msgs = 0u64;
        let mut total_bytes = 0u64;
        for q in &queries {
            let out = match_query(&cloud, q, &config, Run::default()).unwrap();
            total_ms += out.metrics.simulated_ms();
            total_matches += out.num_matches();
            total_msgs += out.metrics.network_messages;
            total_bytes += out.metrics.network_bytes;
        }
        let avg_ms = total_ms / queries.len() as f64;
        let base = *baseline_ms.get_or_insert(avg_ms);
        println!(
            "{machines:>8} | {total_matches:>7} | {avg_ms:>12.2} | {:>7.2} | {total_msgs:>8} | {:>10.2}",
            base / avg_ms,
            total_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    // Show the query plan and load sets for one query on the 4-machine cluster.
    let cloud = graph.build_cloud(4, CostModel::default());
    let query = dfs_query(&cloud, 6, 0x5CA1E).expect("graph has edges");
    let plan = plan_query(&cloud, &query).unwrap();
    println!("\nquery plan on 4 machines ({} STwigs):", plan.stwigs.len());
    for (i, t) in plan.stwigs.iter().enumerate() {
        let marker = if i == plan.head.head_index {
            " [head]"
        } else {
            ""
        };
        println!(
            "  STwig {i}: root {} with {} children, d(head root, root) = {}{marker}",
            query.name(t.root),
            t.children.len(),
            plan.head.root_distances[i]
        );
    }
    for k in 0..4u16 {
        let sets: Vec<String> = (0..plan.stwigs.len())
            .map(|t| {
                let f = load_set(&plan.cluster, &plan.head, MachineId(k), t);
                format!("q{t}:{:?}", f.iter().map(|m| m.0).collect::<Vec<_>>())
            })
            .collect();
        println!("  machine {k} load sets: {}", sets.join("  "));
    }
}
