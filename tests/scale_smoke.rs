//! Release-mode scale smoke: a 1M-vertex R-MAT graph is *streamed* into the
//! cloud once (no materialized edge list). Sampled vertices must carry the
//! adjacency one pass over the stream itself gives them, the adjacency +
//! indexes must take at most half the bytes of a flat `Vec` CSR, `HashMap`
//! id map and `Vec<Vec<_>>` string index over the same graph, and the
//! acceptance query workload must verify and agree under either transport.
//!
//! Ignored by default — it takes minutes in a debug build. CI runs it in
//! release mode (`cargo test --release --test scale_smoke -- --ignored`).

use std::collections::BTreeMap;
use stwig_match::prelude::*;
use trinity_sim::ids::VertexId;
use trinity_sim::loader::StreamLoader;
use trinity_sim::network::CostModel;

/// Bytes the uncompressed layout would hold for this cloud's adjacency, id
/// map and postings: per machine, a CSR of `usize` offsets and 8-byte ids,
/// the local → global id array plus a `HashMap<VertexId, u32>` (key, value
/// and ~8 bytes of bucket overhead an entry), and one `Vec` header per label
/// plus an 8-byte id per posting.
fn flat_layout_bytes(cloud: &MemoryCloud) -> usize {
    const WORD: usize = 8;
    let (machines, vertices) = (cloud.num_machines(), cloud.num_vertices() as usize);
    let entries = 2 * cloud.num_edges() as usize;
    let adjacency = (vertices + machines) * WORD + entries * WORD;
    let id_map = vertices * WORD + vertices * (WORD + 4 + 8);
    let postings =
        machines * cloud.labels().len() * std::mem::size_of::<Vec<VertexId>>() + vertices * WORD;
    adjacency + id_map + postings
}

#[test]
#[ignore = "scale smoke: run with --release -- --ignored"]
fn streamed_million_vertex_rmat_matches_its_stream() {
    const N: u64 = 1_000_000;
    const SAMPLE_STEP: u64 = 9_973;
    let stream = RmatStream::new(RmatConfig::with_avg_degree(N, 8.0, 0x5CA1E));
    let labels = StreamingLabels::new(LabelModel::Uniform { num_labels: 50 }, 0x5CA1E ^ 1);
    let cloud = stream_cloud_with(&stream, &labels, StreamLoader::new(8, CostModel::default()))
        .expect("streamed load failed");
    assert_eq!(cloud.num_vertices(), N);
    assert!(cloud.num_edges() > 3 * N / 2, "R-MAT degenerated");

    // One pass over the stream recomputes the sampled vertices' neighbors.
    let mut expected: BTreeMap<u64, Vec<VertexId>> = (0..N)
        .step_by(SAMPLE_STEP as usize)
        .map(|v| (v, Vec::new()))
        .collect();
    for (u, w) in stream.edges().filter(|(u, w)| u != w) {
        for (a, b) in [(u, w), (w, u)] {
            if a % SAMPLE_STEP == 0 {
                expected.get_mut(&a).expect("sampled").push(VertexId(b));
            }
        }
    }
    for (v, mut want) in expected {
        want.sort_unstable();
        want.dedup();
        let id = VertexId(v);
        assert_eq!(cloud.label_of_global(id), Some(LabelId(labels.label_of(v))));
        let got: Vec<VertexId> = cloud.neighbors_global(id).into_iter().collect();
        assert_eq!(got, want, "vertex {v}: adjacency diverges from the stream");
    }

    // The headline claim: at least 2x smaller adjacency + indexes.
    let bytes = cloud.storage_bytes();
    let stored = bytes.adjacency + bytes.id_map + bytes.postings;
    let flat = flat_layout_bytes(&cloud);
    assert!(
        2 * stored <= flat,
        "adjacency+index ({stored} B) must be <= half of the flat layout ({flat} B)"
    );

    // Acceptance workload: valid embeddings, the same under either
    // transport.
    let queries = query_batch(&cloud, 4, 4, None, 0xACCE);
    let mut total_matches = 0u64;
    for q in &queries {
        let tables = [TransportMode::DirectRead, TransportMode::Messages].map(|mode| {
            let config = MatchConfig::paper_default().with_transport_mode(mode);
            let out = stwig::match_query(&cloud, q, &config, stwig::Run::default()).expect("query");
            verify_all(&cloud, q, &out.table).expect("embeddings verify");
            total_matches += out.metrics.matches_found;
            canonical_rows(q, &out.table)
        });
        assert_eq!(
            tables[0], tables[1],
            "transports returned different embeddings"
        );
    }
    assert!(total_matches > 0, "acceptance workload found no matches");
}
