//! Acceptance suite for the compact storage representation.
//!
//! * Proptest round-trip: arbitrary adjacency lists (empty vertices,
//!   degree-1 runs, hubs, runs at the block boundaries, ids anywhere in
//!   the `u64` range), sorted, deduplicated and encoded through
//!   `CompactCsrBuilder::push_run`, must decode to exactly those runs, by
//!   the iterator and by the bulk decode alike: runs, degrees and
//!   membership answers. A copy through `push_neighbors` (the seal's)
//!   decodes equal and takes the same bytes.
//! * Differential sweep: transport × cache over compact partitions must
//!   return exactly the VF2 baseline's embedding set.
//! * Label alphabet: resident bytes per edge must not grow with the number
//!   of labels.

mod common;

use common::run_batch;
use proptest::prelude::*;
use stwig_match::prelude::*;
use trinity_sim::compact::CompactCsrBuilder;
use trinity_sim::ids::VertexId;

// ---------------------------------------------------------------------------
// Round-trip: CompactCsr ↔ Vec<Vec<VertexId>>
// ---------------------------------------------------------------------------

fn assert_round_trips(lists: Vec<Vec<VertexId>>) {
    let reference: Vec<Vec<VertexId>> = lists
        .iter()
        .map(|l| {
            let mut l = l.clone();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let mut builder = CompactCsrBuilder::with_capacity(reference.len());
    for run in &reference {
        builder.push_run(run);
    }
    let compact = builder.finish();
    assert_eq!(compact.num_vertices(), reference.len());
    assert_eq!(
        compact.num_entries(),
        reference.iter().map(Vec::len).sum::<usize>()
    );
    let mut sealed = CompactCsrBuilder::with_capacity(reference.len());
    for (local, want) in reference.iter().enumerate() {
        let decoded: Vec<VertexId> = compact.neighbors(local).into_iter().collect();
        assert_eq!(&decoded, want, "vertex {local}: decoded run diverges");
        assert_eq!(compact.degree(local), want.len());
        // The bulk decode agrees, leaving out the id it is told to skip.
        let skip = want.get(want.len() / 2).copied().unwrap_or(VertexId(7));
        let mut bulk = vec![VertexId(3)];
        compact.neighbors(local).decode_into(&mut bulk, skip);
        let kept = want.iter().copied().filter(|&m| m != skip);
        assert_eq!(
            bulk,
            std::iter::once(VertexId(3)).chain(kept).collect::<Vec<_>>()
        );
        for &n in want {
            assert!(compact.has_neighbor(local, n));
        }
        // One past the last neighbor (or an arbitrary id for an empty run)
        // is absent.
        let absent = VertexId(want.last().map_or(7, |v| v.0.wrapping_add(1)));
        assert_eq!(compact.has_neighbor(local, absent), want.contains(&absent));
        sealed.push_neighbors(compact.neighbors(local));
    }
    let sealed = sealed.finish();
    assert_eq!(sealed.memory_bytes(), compact.memory_bytes());
    assert_eq!(sealed.num_entries(), compact.num_entries());
    for (local, want) in reference.iter().enumerate() {
        assert_eq!(
            sealed.neighbors(local),
            want.clone(),
            "sealed vertex {local}"
        );
    }
}

#[test]
fn roundtrip_edge_shapes() {
    // Empty graph, all-empty lists, degree-1 runs, and a hub.
    assert_round_trips(vec![]);
    assert_round_trips(vec![vec![], vec![], vec![]]);
    assert_round_trips(vec![vec![VertexId(9)], vec![], vec![VertexId(0)]]);
    let hub: Vec<VertexId> = (0..5_000).map(|i| VertexId(i * 3 + 1)).collect();
    assert_round_trips(vec![vec![], hub, vec![VertexId(u64::MAX - 1)]]);
    // Run lengths around the eight-gap block, consecutive ids (blocks of
    // width 0), and gaps of 2^56 and more up to the top of the id space.
    let lengths = [1u64, 2, 8, 9, 16, 17]
        .map(|n| (0..n).map(|i| VertexId(10 + i * 5)).collect())
        .to_vec();
    assert_round_trips(lengths);
    let consecutive = [1u64, 9, 17, 64].map(|n| (100..100 + n).map(VertexId).collect());
    assert_round_trips(consecutive.to_vec());
    let wide = vec![
        [0, 1 << 56, (1 << 57) + 3, 1 << 63, u64::MAX]
            .map(VertexId)
            .to_vec(),
        [0, u64::MAX].map(VertexId).to_vec(),
        (0..17)
            .map(|i| VertexId(u64::MAX - (16 - i) * (1 << 58)))
            .collect(),
    ];
    assert_round_trips(wide);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_arbitrary_adjacency(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..40),
            0..30,
        ),
        // Runs over `0..=u64::MAX >> s` for a drawn `s`: gaps of every
        // width, up to 64 bits at `s = 0`.
        wide in proptest::collection::vec(
            (0u32..64).prop_flat_map(|s| proptest::collection::vec(0..=u64::MAX >> s, 0..40)),
            0..6,
        ),
    ) {
        let lists: Vec<Vec<VertexId>> = raw
            .into_iter()
            .chain(wide)
            .map(|l| l.into_iter().map(VertexId).collect())
            .collect();
        assert_round_trips(lists);
    }
}

// ---------------------------------------------------------------------------
// Differential sweep: transport × cache vs VF2
// ---------------------------------------------------------------------------

fn zipf_rmat(vertices: u64, avg_degree: f64, num_labels: usize, seed: u64) -> SyntheticGraph {
    let g = rmat(&RmatConfig::with_avg_degree(vertices, avg_degree, seed));
    let labels = LabelModel::Zipf {
        num_labels,
        exponent: 1.4,
    }
    .assign(vertices, seed ^ 0x5EED);
    g.with_labels(labels, num_labels)
}

#[test]
fn storage_sweep_matches_vf2() {
    let graph = zipf_rmat(300, 5.0, 8, 0x5109);
    let reference_cloud = graph
        .clone()
        .build_cloud(1, trinity_sim::network::CostModel::default());
    let mut queries = query_batch(&reference_cloud, 6, 4, None, 0x51E9);
    queries.extend(query_batch(&reference_cloud, 4, 4, Some(4), 0x51EA));
    let expected: Vec<_> = queries
        .iter()
        .map(|q| canonical_rows(q, &vf2(&reference_cloud, q, None)))
        .collect();

    let cloud = graph
        .to_builder()
        .build(4, trinity_sim::network::CostModel::default());
    for mode in [TransportMode::DirectRead, TransportMode::Messages] {
        for cache_on in [false, true] {
            let config = EngineConfig::default()
                .with_workers(Some(4))
                .with_cache(cache_on.then(CacheConfig::default))
                .with_match_config(
                    MatchConfig::exhaustive()
                        .with_num_threads(Some(1))
                        .with_transport_mode(mode),
                );
            let engine = QueryEngine::new(&cloud, config);
            // Two passes so the second replays through the cache.
            for pass in 0..2 {
                let outputs = run_batch(&engine, &queries);
                for ((q, out), want) in queries.iter().zip(&outputs).zip(&expected) {
                    let out = out.as_ref().expect("query succeeds");
                    assert_eq!(
                        &canonical_rows(q, &out.table),
                        want,
                        "diverged from VF2: mode = {mode:?}, cache = {cache_on}, pass = {pass}"
                    );
                    verify_all(&cloud, q, &out.table).expect("embeddings verify");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Label alphabet: storage per edge does not grow with the label count
// ---------------------------------------------------------------------------

/// Every stored structure is per vertex, per adjacency entry or per posting,
/// so the same 2^14-vertex R-MAT (average degree 16, 8 machines) must cost
/// about the same bytes per edge under 4 labels as under 256: only the
/// postings' per-label overhead may grow with the alphabet. A per-partition
/// statistic over label pairs would grow with its square.
#[test]
fn storage_per_edge_does_not_grow_with_the_label_alphabet() {
    let n = 1u64 << 14;
    let graph = rmat(&RmatConfig::with_avg_degree(n, 16.0, 7));
    let bytes_per_edge = |num_labels: usize| {
        let labels = LabelModel::Uniform { num_labels }.assign(n, 9);
        let cloud = graph
            .clone()
            .with_labels(labels, num_labels)
            .build_cloud(8, trinity_sim::network::CostModel::default());
        cloud.storage_bytes().total() as f64 / cloud.num_edges() as f64
    };
    let (few, many) = (bytes_per_edge(4), bytes_per_edge(256));
    assert!(
        (many - few).abs() < 1.0,
        "4 labels: {few:.3} B/edge, 256 labels: {many:.3} B/edge"
    );
}

// ---------------------------------------------------------------------------
// Id index: dense ids by rank, sparse ids by hash
// ---------------------------------------------------------------------------

/// The benchmark's R-MAT shape: 2^14 vertices, average degree 16.
fn dense_rmat() -> SyntheticGraph {
    let n = 1u64 << 14;
    let labels = LabelModel::Uniform { num_labels: 64 }.assign(n, 11);
    rmat(&RmatConfig::with_avg_degree(n, 16.0, 7)).with_labels(labels, 64)
}

/// Sparse image of a dense id: far apart, and off any common stride.
fn sparse_id(v: u64) -> u64 {
    v * 1_000_003 + v % 7
}

/// Ids `0..n` own one residue class per machine under a power-of-two
/// machine count, and about one id in `m` of their range otherwise: a rank
/// bitmap holds either in at most 1 B a vertex (12 B per 64 slots).
#[test]
fn dense_ids_store_at_most_one_byte_of_id_map_a_vertex() {
    let graph = dense_rmat();
    for machines in [4, 8, 3] {
        let cloud = graph.build_cloud(machines, trinity_sim::network::CostModel::default());
        let id_map = cloud.storage_bytes().id_map as f64 / cloud.num_vertices() as f64;
        assert!(
            id_map <= 1.0,
            "{machines} machines: {id_map:.3} B of id map a vertex"
        );
    }
}

/// The same graph under ids no bitmap can hold keeps the id array and its
/// hash slots, and answers every query exactly as VF2 does on it and as the
/// dense graph does once its ids are mapped back.
#[test]
fn sparse_ids_take_the_hashed_index_and_answer_like_the_dense_graph() {
    let graph = dense_rmat();
    let dense = graph.build_cloud(4, trinity_sim::network::CostModel::default());
    let mut b = GraphBuilder::default();
    for i in 0..graph.num_labels as u32 {
        b.intern_label(&SyntheticGraph::label_name(i));
    }
    for v in 0..graph.num_vertices {
        let label = SyntheticGraph::label_name(graph.labels[v as usize]);
        b.add_vertex(VertexId(sparse_id(v)), &label);
    }
    for &(u, v) in &graph.edges {
        b.add_edge(VertexId(sparse_id(u)), VertexId(sparse_id(v)));
    }
    let sparse = b.build(4, trinity_sim::network::CostModel::default());
    assert_eq!(sparse.num_edges(), dense.num_edges());
    let id_map = sparse.storage_bytes().id_map as f64 / sparse.num_vertices() as f64;
    assert!(
        id_map >= 8.0,
        "sparse ids: {id_map:.3} B of id map a vertex"
    );

    let queries = query_batch(&dense, 6, 4, None, 0x1D5);
    assert!(!queries.is_empty());
    let config = MatchConfig::exhaustive().with_num_threads(Some(1));
    let mut total_rows = 0;
    for q in &queries {
        let on_sparse =
            stwig::match_query(&sparse, q, &config, stwig::Run::default()).expect("query");
        verify_all(&sparse, q, &on_sparse.table).expect("embeddings verify");
        let rows = canonical_rows(q, &on_sparse.table);
        total_rows += rows.len();
        assert_eq!(rows, canonical_rows(q, &vf2(&sparse, q, None)), "vs VF2");
        let mut mapped_back: Vec<Vec<VertexId>> = rows
            .iter()
            .map(|row| row.iter().map(|id| VertexId(id.0 / 1_000_003)).collect())
            .collect();
        mapped_back.sort_unstable();
        let on_dense =
            stwig::match_query(&dense, q, &config, stwig::Run::default()).expect("query");
        assert_eq!(
            mapped_back,
            canonical_rows(q, &on_dense.table),
            "vs the dense graph"
        );
    }
    assert!(total_rows > 0, "the queries matched nothing");
}
