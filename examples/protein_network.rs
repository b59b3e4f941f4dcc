//! Protein-interaction motif search — the paper's bioinformatics motivation:
//! find small interaction motifs (triangles, forks, bi-fans) in a power-law
//! protein-protein interaction network whose vertices are annotated with
//! functional categories (GO-term-like labels).
//!
//! ```text
//! cargo run --release --example protein_network
//! ```

use stwig_match::prelude::*;

fn main() {
    // A power-law PPI-like network: 30k proteins, preferential attachment,
    // 12 functional categories with skewed sizes.
    let proteins = 30_000u64;
    let graph = preferential_attachment(proteins, 3, 0xB10);
    let labels = LabelModel::Zipf {
        num_labels: 12,
        exponent: 0.9,
    }
    .assign(proteins, 0x60);
    let cloud = graph
        .with_labels(labels, 12)
        .build_cloud(4, CostModel::default());

    let stats = graph_stats(&cloud);
    println!(
        "PPI network: {} proteins, {} interactions, avg degree {:.1}, max degree {}",
        stats.num_vertices, stats.num_edges, stats.avg_degree, stats.max_degree
    );

    let kinase = "L0"; // the most common category
    let ligase = "L1";
    let receptor = "L2";

    let config = MatchConfig::paper_default();

    // Motif 1: regulatory triangle kinase - ligase - receptor.
    let mut qb = QueryGraph::builder();
    let k = qb.vertex_by_name(&cloud, kinase).unwrap();
    let l = qb.vertex_by_name(&cloud, ligase).unwrap();
    let r = qb.vertex_by_name(&cloud, receptor).unwrap();
    qb.edge(k, l).edge(l, r).edge(r, k);
    let triangle = qb.build().unwrap();

    // Motif 2: bi-fan — two kinases each interacting with the same two receptors.
    let mut qb = QueryGraph::builder();
    let k1 = qb.vertex_by_name(&cloud, kinase).unwrap();
    let k2 = qb.vertex_by_name(&cloud, kinase).unwrap();
    let r1 = qb.vertex_by_name(&cloud, receptor).unwrap();
    let r2 = qb.vertex_by_name(&cloud, receptor).unwrap();
    qb.edge(k1, r1).edge(k1, r2).edge(k2, r1).edge(k2, r2);
    let bifan = qb.build().unwrap();

    // Motif 3: hub fork — a kinase interacting with a ligase, a receptor and
    // another kinase simultaneously.
    let mut qb = QueryGraph::builder();
    let hub = qb.vertex_by_name(&cloud, kinase).unwrap();
    let a = qb.vertex_by_name(&cloud, ligase).unwrap();
    let b = qb.vertex_by_name(&cloud, receptor).unwrap();
    let c = qb.vertex_by_name(&cloud, kinase).unwrap();
    qb.edge(hub, a).edge(hub, b).edge(hub, c);
    let fork = qb.build().unwrap();

    for (name, query) in [
        ("triangle", triangle),
        ("bi-fan", bifan),
        ("hub-fork", fork),
    ] {
        let out = stwig::match_query(&cloud, &query, &config, stwig::Run::default()).unwrap();
        // Cross-check a small sample against the VF2 baseline for confidence.
        let sample_ok = verify_all(&cloud, &query, &out.table).is_ok();
        println!(
            "motif {name:>9}: {:>5} occurrences (capped at 1024), {:>7.2} ms simulated, embeddings valid: {}",
            out.num_matches(),
            out.metrics.simulated_ms(),
            sample_ok
        );
    }
}
