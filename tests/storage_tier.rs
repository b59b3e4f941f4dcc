//! Acceptance suite for the compact storage representation.
//!
//! * Proptest round-trip: a `CompactCsr` built from arbitrary adjacency
//!   lists (empty vertices, degree-1 runs, hubs) must decode to exactly the
//!   sorted, deduplicated `Vec<Vec<VertexId>>` reference: runs, degrees and
//!   membership answers.
//! * Differential sweep: transport × pruning × cache over compact
//!   partitions must return exactly the VF2 baseline's embedding set.

use proptest::prelude::*;
use stwig_match::prelude::*;
use trinity_sim::compact::CompactCsr;
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
    let compact = CompactCsr::from_lists(lists);
    assert_eq!(compact.num_vertices(), reference.len());
    assert_eq!(
        compact.num_entries(),
        reference.iter().map(Vec::len).sum::<usize>()
    );
    for (local, want) in reference.iter().enumerate() {
        let decoded: Vec<VertexId> = compact.neighbors(local).into_iter().collect();
        assert_eq!(&decoded, want, "vertex {local}: decoded run diverges");
        assert_eq!(compact.degree(local), want.len());
        for &n in want {
            assert!(compact.has_neighbor(local, n));
        }
        // One past the last neighbor (or an arbitrary id for an empty run)
        // is absent.
        let absent = VertexId(want.last().map_or(7, |v| v.0 + 1));
        assert!(!compact.has_neighbor(local, absent));
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
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_arbitrary_adjacency(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..40),
            0..30,
        )
    ) {
        let lists: Vec<Vec<VertexId>> = raw
            .into_iter()
            .map(|l| l.into_iter().map(VertexId).collect())
            .collect();
        assert_round_trips(lists);
    }
}

// ---------------------------------------------------------------------------
// Differential sweep: transport × pruning × cache vs VF2
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
        for pruning in [false, true] {
            for cache_on in [false, true] {
                let config = EngineConfig::default()
                    .with_workers(Some(4))
                    .with_cache(cache_on.then(CacheConfig::default))
                    .with_match_config(
                        MatchConfig::exhaustive()
                            .with_num_threads(Some(1))
                            .with_transport_mode(mode)
                            .with_pruning(pruning),
                    );
                let engine = QueryEngine::new(&cloud, config);
                // Two passes so the second replays through the cache.
                for pass in 0..2 {
                    let outputs = engine.run_batch(&queries);
                    for ((q, out), want) in queries.iter().zip(&outputs).zip(&expected) {
                        let out = out.as_ref().expect("query succeeds");
                        assert_eq!(
                            &canonical_rows(q, &out.table),
                            want,
                            "diverged from VF2: mode = {mode:?}, \
                             pruning = {pruning}, cache = {cache_on}, pass = {pass}"
                        );
                        verify_all(&cloud, q, &out.table).expect("embeddings verify");
                    }
                }
            }
        }
    }
}
