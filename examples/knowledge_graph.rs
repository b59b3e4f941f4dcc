//! Knowledge-graph pattern matching — the paper's motivating application
//! (knowledge bases such as Probase/NAGA): a typed entity graph with
//! person / company / city / product entities, queried for multi-entity
//! patterns.
//!
//! ```text
//! cargo run --release --example knowledge_graph
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stwig_match::prelude::*;

/// Entity-id layout: persons 0.., companies 100_000.., cities 200_000..,
/// products 300_000..
const COMPANY_BASE: u64 = 100_000;
const CITY_BASE: u64 = 200_000;
const PRODUCT_BASE: u64 = 300_000;

fn build_knowledge_graph(persons: u64, companies: u64, cities: u64, products: u64) -> MemoryCloud {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut gb = GraphBuilder::new_undirected();
    for p in 0..persons {
        gb.add_vertex(VertexId(p), "person");
    }
    for c in 0..companies {
        gb.add_vertex(VertexId(COMPANY_BASE + c), "company");
    }
    for c in 0..cities {
        gb.add_vertex(VertexId(CITY_BASE + c), "city");
    }
    for p in 0..products {
        gb.add_vertex(VertexId(PRODUCT_BASE + p), "product");
    }
    // works_at: each person works at one company
    for p in 0..persons {
        gb.add_edge(
            VertexId(p),
            VertexId(COMPANY_BASE + rng.gen_range(0..companies)),
        );
    }
    // lives_in: each person lives in one city
    for p in 0..persons {
        gb.add_edge(VertexId(p), VertexId(CITY_BASE + rng.gen_range(0..cities)));
    }
    // headquartered_in: each company sits in a city
    for c in 0..companies {
        gb.add_edge(
            VertexId(COMPANY_BASE + c),
            VertexId(CITY_BASE + rng.gen_range(0..cities)),
        );
    }
    // makes: each product is made by a company
    for p in 0..products {
        gb.add_edge(
            VertexId(PRODUCT_BASE + p),
            VertexId(COMPANY_BASE + rng.gen_range(0..companies)),
        );
    }
    // knows: a sprinkling of person-person edges
    for _ in 0..persons * 2 {
        let a = rng.gen_range(0..persons);
        let b = rng.gen_range(0..persons);
        gb.add_edge(VertexId(a), VertexId(b));
    }
    gb.build(8, CostModel::default())
}

fn main() {
    let cloud = build_knowledge_graph(20_000, 500, 50, 2_000);
    println!(
        "knowledge graph: {} entities, {} facts, {} entity types over {} machines",
        cloud.num_vertices(),
        cloud.num_edges(),
        cloud.labels().len(),
        cloud.num_machines()
    );

    // Pattern 1: "colleagues in the same city" — two persons who work at the
    // same company and live in the same city.
    let mut qb = QueryGraph::builder();
    let p1 = qb.vertex_by_name(&cloud, "person").unwrap();
    let p2 = qb.vertex_by_name(&cloud, "person").unwrap();
    let company = qb.vertex_by_name(&cloud, "company").unwrap();
    let city = qb.vertex_by_name(&cloud, "city").unwrap();
    qb.edge(p1, company)
        .edge(p2, company)
        .edge(p1, city)
        .edge(p2, city);
    let colleagues = qb.build().unwrap();

    // Pattern 2: "local product" — a product made by a company headquartered
    // in the city where some employee lives.
    let mut qb = QueryGraph::builder();
    let person = qb.vertex_by_name(&cloud, "person").unwrap();
    let company = qb.vertex_by_name(&cloud, "company").unwrap();
    let city = qb.vertex_by_name(&cloud, "city").unwrap();
    let product = qb.vertex_by_name(&cloud, "product").unwrap();
    qb.edge(person, company)
        .edge(company, city)
        .edge(person, city)
        .edge(product, company);
    let local_product = qb.build().unwrap();

    let config = MatchConfig::paper_default();
    for (name, query) in [
        ("colleagues-in-city", colleagues),
        ("local-product", local_product),
    ] {
        // Show the query plan the proxy would broadcast.
        let plan = stwig::plan_query(&cloud, &query).unwrap();
        println!(
            "\npattern `{name}`: {} vertices / {} edges",
            query.num_vertices(),
            query.num_edges()
        );
        println!("  decomposition ({} STwigs):", plan.stwigs.len());
        for (i, t) in plan.stwigs.iter().enumerate() {
            let head = if i == plan.head.head_index {
                "  [head]"
            } else {
                ""
            };
            println!(
                "    {i}: root {} children {:?}{head}",
                query.name(t.root),
                t.children.len()
            );
        }

        let out = stwig::match_query(&cloud, &query, &config, stwig::Run::default()).unwrap();
        println!(
            "  {} matches (capped at 1024), simulated time {:.2} ms, {} messages, {} KiB shipped",
            out.num_matches(),
            out.metrics.simulated_ms(),
            out.metrics.network_messages,
            out.metrics.network_bytes / 1024
        );
    }
}
