//! Release-mode scale smoke: a 1M-vertex R-MAT graph is *streamed* into the
//! cloud (no materialized edge list) under both storage tiers, the tiers
//! must agree on every sampled table, the compact tier must hold the
//! adjacency + indexes in at most half the plain tier's bytes, and the
//! acceptance query workload must return identical embeddings on both,
//! under either transport.
//!
//! Ignored by default — it takes minutes in a debug build. CI runs it in
//! release mode (`cargo test --release --test scale_smoke -- --ignored`).

use stwig_match::prelude::*;
use trinity_sim::compact::StorageTier;
use trinity_sim::ids::VertexId;
use trinity_sim::loader::StreamLoader;
use trinity_sim::network::CostModel;

#[test]
#[ignore = "scale smoke: run with --release -- --ignored"]
fn streamed_million_vertex_rmat_is_tier_identical() {
    const N: u64 = 1_000_000;
    let stream = RmatStream::new(RmatConfig::with_avg_degree(N, 8.0, 0x5CA1E));
    let labels = StreamingLabels::new(LabelModel::Uniform { num_labels: 50 }, 0x5CA1E ^ 1);

    let load = |tier| {
        stream_cloud_with(
            &stream,
            &labels,
            StreamLoader::new(8, CostModel::default()).with_storage_tier(tier),
        )
        .expect("streamed load failed")
    };
    let plain = load(StorageTier::Plain);
    let compact = load(StorageTier::Compact);

    // Same tables, sampled across the id space.
    assert_eq!(plain.num_vertices(), N);
    assert_eq!(compact.num_vertices(), N);
    assert_eq!(plain.num_edges(), compact.num_edges());
    assert!(plain.num_edges() > 3 * N / 2, "R-MAT degenerated");
    for v in (0..N).step_by(9_973) {
        let id = VertexId(v);
        assert_eq!(plain.label_of_global(id), compact.label_of_global(id));
        let a: Vec<VertexId> = plain.neighbors_global(id).into_iter().collect();
        let b: Vec<VertexId> = compact.neighbors_global(id).into_iter().collect();
        assert_eq!(a, b, "vertex {v}: adjacency diverges between tiers");
    }

    // The headline claim: at least 2x smaller adjacency + indexes per edge.
    let pb = plain.storage_bytes();
    let cb = compact.storage_bytes();
    let plain_index = pb.adjacency + pb.id_map + pb.postings;
    let compact_index = cb.adjacency + cb.id_map + cb.postings;
    assert!(
        2 * compact_index <= plain_index,
        "compact adjacency+index ({compact_index} B) must be <= half of plain ({plain_index} B)"
    );

    // Acceptance workload: identical embeddings on both tiers, under either
    // transport.
    let queries = query_batch(&compact, 4, 4, None, 0xACCE);
    for mode in [TransportMode::DirectRead, TransportMode::Messages] {
        let config = MatchConfig::paper_default().with_transport_mode(mode);
        let mut total_matches = 0u64;
        for q in &queries {
            let a = stwig::match_query_distributed(&plain, q, &config).expect("plain query");
            let b = stwig::match_query_distributed(&compact, q, &config).expect("compact query");
            assert_eq!(
                canonical_rows(q, &a.table),
                canonical_rows(q, &b.table),
                "tiers returned different embeddings ({mode:?})"
            );
            verify_all(&compact, q, &b.table).expect("embeddings verify");
            total_matches += b.metrics.matches_found;
        }
        assert!(
            total_matches > 0,
            "acceptance workload found no matches ({mode:?})"
        );
    }
}
