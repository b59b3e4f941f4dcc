//! Differential and property tests for dynamic graphs: epoch-versioned
//! snapshots under interleaved update/query schedules.
//!
//! The oracle replays seeded streams of [`UpdateBatch`]es through the
//! engine's `apply_updates` door while querying between (and across) the
//! applies. A [`GraphMirror`] tracks the exact intended graph; at every
//! query point the engine's answer must equal VF2 on a freshly rebuilt
//! reference cloud — an independent matcher on an independently constructed
//! graph, so agreement certifies the whole overlay/snapshot/cache pipeline.
//!
//! The transport is set per test, in code: the oracle rotates it across
//! schedules.

mod common;

use common::run_batch;
use proptest::prelude::*;
use stwig_match::prelude::*;
use trinity_sim::ids::VertexId;

const MACHINES: [usize; 2] = [1, 4];
const SCHEDULE_SEEDS: [u64; 3] = [0xD1A1, 0xD1A2, 0xD1A3];

/// A ~200-vertex Erdős–Rényi base graph with 4 labels, seeded per schedule.
fn base_graph(seed: u64) -> SyntheticGraph {
    let g = gnm(200, 500, seed);
    let labels = LabelModel::Uniform { num_labels: 4 }.assign(200, seed ^ 0x5EED);
    g.with_labels(labels, 4)
}

fn stream_config(seed: u64) -> UpdateStreamConfig {
    UpdateStreamConfig {
        num_batches: 5,
        ops_per_batch: 12,
        seed,
        ..UpdateStreamConfig::default()
    }
}

/// The interleaved differential oracle. For every schedule seed × machine
/// count × cache setting, with the transport rotating:
///
/// 1. a probe query is admitted at epoch `N`, an update batch is then
///    admitted behind it, and both drain together — the probe must match
///    VF2 on the *pre*-update reference (admission pins the snapshot);
/// 2. after the batch lands, a fresh workload generated from the current
///    snapshot must match VF2 on the *post*-update reference.
#[test]
fn interleaved_updates_match_vf2_on_the_mutated_reference() {
    let mut query_points = 0usize;
    for (i, &seed) in SCHEDULE_SEEDS.iter().enumerate() {
        // Rotate the transport across schedules.
        let mode = if i % 2 == 0 {
            TransportMode::DirectRead
        } else {
            TransportMode::Messages
        };
        for machines in MACHINES {
            for cache_on in [false, true] {
                let base = base_graph(seed)
                    .build_cloud(machines, trinity_sim::network::CostModel::default());
                let batches = update_stream(&base, &stream_config(seed));
                let mut mirror = GraphMirror::from_cloud(&base);
                let epochs = GraphEpochs::new(base);
                let config = EngineConfig::default()
                    .with_workers(Some(1))
                    .with_cache(cache_on.then(CacheConfig::default))
                    .with_match_config(
                        MatchConfig::exhaustive()
                            .with_num_threads(Some(1))
                            .with_transport_mode(mode),
                    );
                let engine = QueryEngine::for_epochs(&epochs, config);
                let ctx = move |batch_no: usize| {
                    format!(
                        "seed = {seed:#x}, machines = {machines}, cache = {cache_on}, \
                         mode = {mode:?}, batch = {batch_no}"
                    )
                };

                for (b, batch) in batches.iter().enumerate() {
                    // -- Probe: admitted before the update, served after. --
                    let pre_reference =
                        mirror.build_cloud(1, trinity_sim::network::CostModel::default());
                    let probe = dfs_query(&epochs.pin(), 3, seed ^ (b as u64) << 8);
                    let probe_handle = probe.clone().map(|q| {
                        (
                            q.clone(),
                            engine.submit(QueryRequest::new(q)).expect_accepted(),
                        )
                    });
                    let update = engine.apply_updates(batch.clone()).expect_accepted();
                    engine.drain();
                    update
                        .wait()
                        .unwrap_or_else(|e| panic!("generated batch refused ({}): {e}", ctx(b)));
                    mirror.apply(batch);
                    if let Some((q, handle)) = probe_handle {
                        let response = handle.wait().expect("probe query succeeds");
                        let want = canonical_rows(&q, &vf2(&pre_reference, &q, None));
                        assert_eq!(
                            canonical_rows(&q, response.table.as_ref().unwrap()),
                            want,
                            "probe admitted pre-update diverged from the \
                             pre-update reference: {}",
                            ctx(b)
                        );
                        query_points += 1;
                    }

                    // -- Post-update workload vs the mutated reference. --
                    let reference =
                        mirror.build_cloud(1, trinity_sim::network::CostModel::default());
                    let snapshot = epochs.pin();
                    let mut queries = query_batch(&snapshot, 3, 3, None, seed ^ (b as u64));
                    queries.extend(query_batch(
                        &snapshot,
                        2,
                        3,
                        Some(3),
                        seed ^ 0xF00 ^ (b as u64),
                    ));
                    for q in &queries {
                        let out = run_batch(&engine, std::slice::from_ref(q))
                            .remove(0)
                            .expect("post-update query succeeds");
                        let want = canonical_rows(q, &vf2(&reference, q, None));
                        assert_eq!(
                            canonical_rows(q, &out.table),
                            want,
                            "post-update embedding set diverged from VF2: {}",
                            ctx(b)
                        );
                        verify_all(&snapshot, q, &out.table)
                            .unwrap_or_else(|r| panic!("invalid row {r}: {}", ctx(b)));
                        query_points += 1;
                    }
                }
            }
        }
    }
    assert!(
        query_points >= 200,
        "interleaved oracle degenerated to {query_points} query points"
    );
}

/// Engine level: an entry cached at epoch `N` is never served as-is at
/// `N + 1` after an update that touches one of the shape's label pairs — and
/// *is* still served (revalidated in place) after an update that provably
/// doesn't.
#[test]
fn cache_survives_label_disjoint_updates_and_never_serves_stale_entries() {
    let base = base_graph(0xCAC4E).build_cloud(2, trinity_sim::network::CostModel::default());
    let query = dfs_query(&base, 3, 7).expect("base graph yields a query");
    let epochs = GraphEpochs::new(base);
    let engine = QueryEngine::for_epochs(
        &epochs,
        EngineConfig::default()
            .with_workers(Some(1))
            .with_cache(Some(CacheConfig::default()))
            .with_match_config(MatchConfig::exhaustive().with_num_threads(Some(1))),
    );

    // Warm the cache, then hit it.
    run_batch(&engine, std::slice::from_ref(&query))
        .remove(0)
        .unwrap();
    run_batch(&engine, std::slice::from_ref(&query))
        .remove(0)
        .unwrap();
    let warm = engine.cache_stats().unwrap();
    assert!(warm.hits > 0, "second pass must hit the warm cache");
    assert_eq!(warm.stale_evictions, 0);

    // A label-disjoint update: an isolated island of fresh vertices whose
    // labels are brand new. The epoch advances, but the touch log proves the
    // cached shapes unaffected — hits keep landing, nothing is evicted.
    let island = UpdateBatch::new()
        .add_vertex(VertexId(9_000), "zz-island")
        .add_vertex(VertexId(9_001), "zz-island")
        .add_edge(VertexId(9_000), VertexId(9_001));
    let before = epochs.epoch();
    engine.apply_updates(island).expect_accepted();
    engine.drain();
    assert_eq!(epochs.epoch(), before + 1);
    run_batch(&engine, std::slice::from_ref(&query))
        .remove(0)
        .unwrap();
    let disjoint = engine.cache_stats().unwrap();
    assert!(
        disjoint.hits > warm.hits,
        "label-disjoint update must not cost the cache its hits"
    );
    assert_eq!(
        disjoint.stale_evictions, 0,
        "label-disjoint update must not evict"
    );

    // Now remove a vertex taken from a match row: the data edges that row
    // maps the query's edges onto go with it, so a (root label, child label)
    // pair of a cached shape is provably touched. The stale entry must not
    // be served as-is — it is repaired at the touched roots — and the
    // re-computed answer must match VF2 on the mutated reference.
    let mut mirror = GraphMirror::from_cloud(&epochs.pin());
    let target = run_batch(&engine, std::slice::from_ref(&query))
        .remove(0)
        .unwrap()
        .table
        .row(0)[0];
    let before = engine.cache_stats().unwrap();
    let batch = UpdateBatch::new().remove_vertex(target);
    engine.apply_updates(batch.clone()).expect_accepted();
    engine.drain();
    mirror.apply(&batch);

    let out = run_batch(&engine, std::slice::from_ref(&query))
        .remove(0)
        .unwrap();
    let stale = engine.cache_stats().unwrap();
    assert!(
        stale.repairs > before.repairs,
        "touching update must send the stale entry to repair, not serve it"
    );
    assert!(
        stale.misses - before.misses >= stale.repairs - before.repairs,
        "a repaired probe counts as a miss, never as a hit"
    );
    assert_eq!(
        stale.stale_evictions, 0,
        "a repairable entry is not dropped"
    );
    let reference = mirror.build_cloud(1, trinity_sim::network::CostModel::default());
    assert_eq!(
        canonical_rows(&query, &out.table),
        canonical_rows(&query, &vf2(&reference, &query, None)),
        "post-eviction recompute diverged from VF2"
    );
}

/// Long-running behaviour of the touched-entry log and the cache that reads
/// it: 10,000 applies (sealed every 128) with queries every 50 batches. The
/// log stays a bounded ring, warm-cache answers stay equal to VF2 on the
/// mirror throughout, and an entry last probed before the ring's horizon is
/// evicted — the log can no longer vouch for it — never served.
/// Admission prices a query on the snapshot it will run on, not on the
/// epoch-0 cloud the engine was built over: after a batch that multiplies a
/// label's frequency, a calibrated engine's too-late prediction for a query
/// on that label rises by exactly the added work units, at the price of a
/// unit the engine learned.
#[test]
fn admission_prices_queries_on_the_current_epoch() {
    const ADDED: u64 = 400;
    let base = base_graph(0xAD41).build_cloud(2, trinity_sim::network::CostModel::default());
    let mut qb = QueryGraph::builder();
    let a = qb.vertex_by_name(&base, "L0").unwrap();
    let b = qb.vertex_by_name(&base, "L1").unwrap();
    qb.edge(a, b);
    let query = qb.build().unwrap();
    // Both query vertices have degree 1: a carrier of either label is
    // 1 + 1 work units.
    let frequency = |name| base.label_frequency(base.labels().get(name).unwrap());
    let units = 2.0 * (frequency("L0") + frequency("L1")) as f64;
    let epochs = GraphEpochs::new(base);
    let engine = QueryEngine::for_epochs(&epochs, EngineConfig::default());
    // Calibrate the estimator on served completions.
    for _ in 0..16 {
        let handle = engine
            .submit(QueryRequest::new(query.clone()))
            .expect_accepted();
        engine.drain();
        assert_eq!(
            handle.wait().unwrap().metrics.outcome,
            QueryOutcome::Complete
        );
    }
    let predicted = || {
        let hopeless = std::time::Duration::from_nanos(1);
        match engine.submit(QueryRequest::new(query.clone()).with_deadline(hopeless)) {
            Submit::Rejected(RejectReason::EstimatedTooLate { predicted_us, .. }) => predicted_us,
            other => panic!("expected EstimatedTooLate, got {other:?}"),
        }
    };
    let before = predicted();
    let mut batch = UpdateBatch::new();
    for i in 0..ADDED {
        batch = batch.add_vertex(VertexId(50_000 + i), "L0");
    }
    engine.apply_updates(batch).expect_accepted();
    engine.drain();
    // Each new `L0` vertex is 1 + 1 work units more, at the same price.
    let ratio = predicted() / before;
    let expected = (units + 2.0 * ADDED as f64) / units;
    assert!(
        (ratio - expected).abs() < 1e-9,
        "{ADDED} more `L0` vertices scaled the prediction by {ratio}, not {expected}"
    );
}

#[test]
fn soak_keeps_the_touch_log_bounded_and_the_cache_exact() {
    const APPLIES: usize = 10_000;
    // 2^16 triples of 16 bytes: `LOG_TRIPLE_CAP` in `trinity_sim::epoch`.
    const LOG_BYTES_CAP: usize = 1 << 20;
    let cost = trinity_sim::network::CostModel::default;
    let base = base_graph(0x50A4).build_cloud(2, cost());
    let queries: Vec<QueryGraph> = (0..3).filter_map(|j| dfs_query(&base, 3, 40 + j)).collect();
    assert!(!queries.is_empty());
    let epochs = GraphEpochs::new(base);
    let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
    let config = MatchConfig::exhaustive().with_num_threads(Some(1));
    let mut mirror = GraphMirror::from_cloud(epochs.base_cloud());

    // An island under labels of its own, matched once at epoch 1 and then
    // left alone: no generated query reads its shape again.
    let island = UpdateBatch::new()
        .add_vertex(VertexId(9_000), "soak-x")
        .add_vertex(VertexId(9_001), "soak-y")
        .add_edge(VertexId(9_000), VertexId(9_001));
    epochs.apply(&island).unwrap();
    mirror.apply(&island);
    let first = epochs.pin();
    let rare = {
        let mut qb = QueryGraph::builder();
        let x = qb.vertex_by_name(&first, "soak-x").unwrap();
        let y = qb.vertex_by_name(&first, "soak-y").unwrap();
        qb.edge(x, y);
        qb.build().unwrap()
    };
    let rare_shapes: Vec<StwigShape> = plan_query(&first, &rare)
        .unwrap()
        .stwigs
        .iter()
        .map(|s| StwigShape::of(&rare, s, false))
        .collect();
    stwig::match_query(
        &first,
        &rare,
        &config,
        stwig::Run {
            cache: Some(&cache),
            ..stwig::Run::default()
        },
    )
    .unwrap();
    let log = first.epoch_touch_log().expect("managed cloud has a log");

    let mut applied = 1usize;
    let mut checks = 0usize;
    while applied < APPLIES {
        // Streams are generated against the snapshot they start from.
        let stream = update_stream(
            &epochs.pin(),
            &UpdateStreamConfig {
                num_batches: 50,
                ops_per_batch: 12,
                seed: applied as u64,
                ..UpdateStreamConfig::default()
            },
        );
        for batch in &stream {
            epochs.apply(batch).unwrap();
            mirror.apply(batch);
            applied += 1;
            if applied.is_multiple_of(128) {
                epochs.seal_epoch();
            }
        }
        assert!(log.memory_bytes() <= LOG_BYTES_CAP);
        assert!(log.len() <= epochs.epoch() as usize);
        let snap = epochs.pin();
        let reference = mirror.build_cloud(1, cost());
        for q in &queries {
            let out = stwig::match_query(
                &snap,
                q,
                &config,
                stwig::Run {
                    cache: Some(&cache),
                    ..stwig::Run::default()
                },
            )
            .unwrap();
            assert_eq!(
                canonical_rows(q, &out.table),
                canonical_rows(q, &vf2(&reference, q, None)),
                "warm cache diverged from VF2 after {applied} applies"
            );
            checks += 1;
        }
    }
    assert!(checks >= 3 * (APPLIES / 50 - 1) / 2, "too few query points");
    let stats = cache.stats();
    assert!(stats.repairs > 0, "{stats:?}");

    // The ring dropped its oldest epochs, the island's among them.
    let snap = epochs.pin();
    assert!(log.len() < snap.epoch() as usize, "the ring never wrapped");
    for shape in &rare_shapes {
        assert!(
            matches!(cache.lookup(shape, &snap), CacheLookup::Miss),
            "an entry from behind the ring's horizon must not be served"
        );
    }
    assert_eq!(
        cache.stats().stale_evictions - stats.stale_evictions,
        rare_shapes.len() as u64
    );
    let reference = mirror.build_cloud(1, cost());
    let out = stwig::match_query(
        &snap,
        &rare,
        &config,
        stwig::Run {
            cache: Some(&cache),
            ..stwig::Run::default()
        },
    )
    .unwrap();
    assert_eq!(
        canonical_rows(&rare, &out.table),
        canonical_rows(&rare, &vf2(&reference, &rare, None))
    );
}

/// A repair makes a new cache entry, so the join indexes memoized beside
/// the old tables go with them — and only with them: after a batch that
/// touches one of a query's two shapes, the untouched shape's index is hit,
/// not rebuilt, a second query over other labels indexes nothing at all,
/// and the answers equal VF2 on the mirror throughout.
#[test]
fn a_repair_reindexes_the_repaired_shape_only() {
    let v = VertexId;
    // Twenty chains e – f – g with two d's on every e, and a disjoint copy
    // under labels p, r, s, t. One machine, so every query is one join whose
    // build side is the larger table: (e; d, f), 40 rows against 20.
    let mut builder = trinity_sim::builder::GraphBuilder::default();
    for (labels, base) in [(["d", "e", "f", "g"], 0u64), (["p", "r", "s", "t"], 10_000)] {
        for i in 0..20 {
            let [d, e, f, g] = [0, 1_000, 2_000, 3_000].map(|row| v(base + row + i));
            let d2 = v(base + 500 + i);
            for (id, label) in [d, e, f, g].into_iter().zip(labels) {
                builder.add_vertex(id, label);
            }
            builder.add_vertex(d2, labels[0]);
            for (x, y) in [(d, e), (d2, e), (e, f), (f, g)] {
                builder.add_edge(x, y);
            }
        }
    }
    let cloud = builder.build(1, trinity_sim::network::CostModel::default());
    let path = |labels: [&str; 4]| {
        let mut qb = QueryGraph::builder();
        let [a, b, c, d] = labels.map(|l| qb.vertex_by_name(&cloud, l).unwrap());
        qb.edge(a, b).edge(b, c).edge(c, d);
        qb.build().unwrap()
    };
    let (churned, quiet) = (path(["d", "e", "f", "g"]), path(["p", "r", "s", "t"]));
    let config = MatchConfig::exhaustive()
        .with_num_threads(Some(1))
        .with_transport_mode(TransportMode::DirectRead);
    let plan = plan_query(&cloud, &churned).unwrap();
    assert_eq!(plan.stwigs.len(), 2, "one join");

    let mut mirror = GraphMirror::from_cloud(&cloud);
    let epochs = GraphEpochs::new(cloud);
    let engine = QueryEngine::for_epochs(
        &epochs,
        EngineConfig::default()
            .with_workers(Some(1))
            .with_match_config(config),
    );
    let ask = |query: &QueryGraph, mirror: &GraphMirror| {
        let out = run_batch(&engine, std::slice::from_ref(query))
            .remove(0)
            .unwrap();
        let reference = mirror.build_cloud(1, trinity_sim::network::CostModel::default());
        assert_eq!(
            canonical_rows(query, &out.table),
            canonical_rows(query, &vf2(&reference, query, None))
        );
        (out.metrics.join.build_rows, engine.cache_stats().unwrap())
    };
    // Cold: each query builds its one index; warm: each hits it.
    assert_eq!(ask(&churned, &mirror).0, 40);
    assert_eq!(ask(&quiet, &mirror).0, 40);
    let (built, warm) = ask(&churned, &mirror);
    assert_eq!((built, warm.index_builds, warm.index_hits), (0, 2, 1));

    // A new f – g edge touches the driver's shape alone: it is repaired,
    // and the build side's index serves the grown driver as it stands.
    let batch = UpdateBatch::new()
        .add_vertex(v(3_500), "g")
        .add_edge(v(2_000), v(3_500));
    engine.apply_updates(batch.clone()).expect_accepted();
    engine.drain();
    mirror.apply(&batch);
    let (built, stats) = ask(&churned, &mirror);
    assert_eq!(stats.repairs, 1);
    assert_eq!((built, stats.index_builds, stats.index_hits), (0, 2, 2));

    // A new d – e edge touches the build side's shape: its repair starts
    // from an empty memo, so the next query — and only that one — indexes
    // the new table, 41 rows now.
    let batch = UpdateBatch::new()
        .add_vertex(v(700), "d")
        .add_edge(v(700), v(1_000));
    engine.apply_updates(batch.clone()).expect_accepted();
    engine.drain();
    mirror.apply(&batch);
    let (built, stats) = ask(&churned, &mirror);
    assert_eq!(stats.repairs, 2);
    assert_eq!((built, stats.index_builds, stats.index_hits), (41, 3, 2));
    let (built, stats) = ask(&churned, &mirror);
    assert_eq!((built, stats.index_builds, stats.index_hits), (0, 3, 3));
    // The other labels' entries never noticed.
    let (built, stats) = ask(&quiet, &mirror);
    assert_eq!((built, stats.index_builds, stats.index_hits), (0, 3, 4));
    assert_eq!((stats.stale_evictions, stats.evictions), (0, 0));
    assert!(stats.index_bytes > 0 && stats.index_bytes < stats.bytes_resident);
}

/// Builds a cloud from raw vertex labels and edges.
fn small_cloud(
    num_vertices: u64,
    labels: &[u32],
    edges: &[(u64, u64)],
    machines: usize,
) -> MemoryCloud {
    let mut gb = GraphBuilder::default();
    for (i, &l) in labels.iter().enumerate().take(num_vertices as usize) {
        gb.add_vertex(VertexId(i as u64), &format!("l{l}"));
    }
    for &(u, v) in edges {
        gb.add_edge(VertexId(u % num_vertices), VertexId(v % num_vertices));
    }
    gb.build(machines, CostModel::default())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Satellite 2: a reader pinned before a churn of applies and a
    /// `seal_epoch` sees bit-identical query results throughout. Also
    /// checks seal itself is observationally invisible to the *current*
    /// snapshot (same epoch, same answers).
    #[test]
    fn pinned_readers_are_bit_identical_across_applies_and_seal(
        n in 8u64..40,
        labels in proptest::collection::vec(0u32..3, 40),
        edges in proptest::collection::vec((0u64..40, 0u64..40), 8..60),
        machines in 1usize..4,
        seed in 0u64..500,
    ) {
        let cloud = small_cloud(n, &labels, &edges, machines);
        if let Some(query) = dfs_query(&cloud, 3, seed) {
            let batches = update_stream(&cloud, &UpdateStreamConfig {
                num_batches: 3,
                ops_per_batch: 6,
                seed,
                ..UpdateStreamConfig::default()
            });
            let epochs = GraphEpochs::new(cloud);

            let pinned = epochs.pin();
            let config = MatchConfig::exhaustive().with_num_threads(Some(1));
            let before = stwig::match_query(&pinned, &query, &config, stwig::Run::default()).unwrap();

            for batch in &batches {
                epochs.apply(batch).expect("generated batches are valid");
            }
            let current = epochs.pin();
            let pre_seal = stwig::match_query(&current, &query, &config, stwig::Run::default()).unwrap();
            let sealed_epoch = epochs.seal_epoch();
            prop_assert_eq!(
                sealed_epoch, current.epoch(),
                "seal must keep the epoch number"
            );

            // The old pinned reader: bit-identical to its pre-churn answer.
            let after = stwig::match_query(&pinned, &query, &config, stwig::Run::default()).unwrap();
            prop_assert_eq!(
                &before.table, &after.table,
                "pinned reader's table changed across applies + seal"
            );

            // The pre-seal current snapshot: bit-identical across the seal,
            // and a fresh pin agrees too (seal is observationally invisible).
            let post_seal = stwig::match_query(&current, &query, &config, stwig::Run::default()).unwrap();
            prop_assert_eq!(&pre_seal.table, &post_seal.table,
                "pre-seal snapshot changed across seal");
            let fresh = epochs.pin();
            let fresh_out = stwig::match_query(&fresh, &query, &config, stwig::Run::default()).unwrap();
            prop_assert_eq!(&pre_seal.table, &fresh_out.table,
                "sealed base diverged from the overlay it replaced");
        }
    }

    /// A seal re-encodes the merged view and carries signatures over
    /// instead of recounting them, so query answers alone would not show a
    /// drifted signature. After arbitrary churn — hub
    /// removals, relabels, an edge added and removed inside one batch
    /// (`churn_batch`), a deleted base vertex re-added, a label the lineage
    /// never saw — every seal must leave a cloud equal to a
    /// `GraphBuilder` rebuild of the mirrored graph *component by
    /// component*. Before each seal the unsealed snapshot's stored
    /// `storage_bytes()` is read too: debug builds check it there against
    /// a fresh walk of the overlay.
    #[test]
    fn sealed_cloud_equals_a_rebuild_component_by_component(
        n in 8u64..40,
        labels in proptest::collection::vec(0u32..3, 40),
        edges in proptest::collection::vec((0u64..40, 0u64..40), 8..60),
        machines in 1usize..4,
        seed in 0u64..500,
    ) {
        let cloud = small_cloud(n, &labels, &edges, machines);
        let mut mirror = GraphMirror::from_cloud(&cloud);
        let epochs = GraphEpochs::new(cloud);
        for step in 0..6u64 {
            let snap = epochs.pin();
            let mut batch = churn_batch(&snap, &mirror, seed, step);
            let mut after = mirror.clone();
            after.apply(&batch);
            let anchor = snap.iter_vertices().find(|&id| after.label_of(id).is_some());
            if let Some(anchor) = anchor {
                // A base vertex an earlier batch deleted comes back,
                // under the label no earlier epoch interned at step 2.
                let gone = (0..n).map(VertexId).find(|&id| after.label_of(id).is_none());
                let label = if step == 2 { "brand-new" } else { "l0" };
                if let Some(gone) = gone {
                    batch = batch.add_vertex(gone, label).add_edge(gone, anchor);
                } else if step == 2 {
                    batch = batch.add_vertex(VertexId(1_000), label).add_edge(VertexId(1_000), anchor);
                }
            }
            epochs.apply(&batch).expect("churn batches are valid");
            mirror.apply(&batch);
            let unsealed = epochs.pin();
            let overlay_bytes = unsealed.storage_bytes();
            if step % 2 == 0 {
                continue;
            }
            epochs.seal_epoch();
            let sealed = epochs.pin();
            let rebuilt = mirror.build_cloud(machines, CostModel::default());
            let ctx = format!("step {step}");
            // The pinned pre-seal snapshot's accounting does not move.
            prop_assert_eq!(unsealed.storage_bytes(), overlay_bytes, "{}", ctx);
            prop_assert_eq!(sealed.num_vertices(), rebuilt.num_vertices(), "{}", ctx);
            prop_assert_eq!(sealed.num_edges(), rebuilt.num_edges(), "{}", ctx);
            let all_labels: Vec<LabelId> =
                (0..rebuilt.labels().len() as u32).map(LabelId).collect();
            prop_assert_eq!(sealed.labels().len(), all_labels.len(), "{}", ctx);
            for k in sealed.machines() {
                let (s, r) = (sealed.partition(k), rebuilt.partition(k));
                prop_assert!(!s.has_overlay());
                let ids: Vec<VertexId> = r.iter_vertices().collect();
                prop_assert_eq!(&s.iter_vertices().collect::<Vec<_>>(), &ids, "{}", ctx);
                prop_assert_eq!(s.num_vertices(), ids.len());
                prop_assert_eq!(s.num_edge_entries(), r.num_edge_entries(), "{}", ctx);
                for (id, (a, b)) in ids.iter().zip(s.iter_cells().zip(r.iter_cells())) {
                    prop_assert_eq!((a.id, b.id), (*id, *id));
                    prop_assert_eq!(a.label, b.label, "{} label of {}", ctx, id);
                    prop_assert_eq!(a.neighbors.to_vec(), b.neighbors.to_vec(), "{} run of {}", ctx, id);
                    prop_assert_eq!(s.load(*id), Some(a));
                    prop_assert_eq!(s.degree_of(*id), r.degree_of(*id));
                    prop_assert_eq!(
                        s.signature_of(*id), r.signature_of(*id),
                        "{} signature of {}", ctx, id
                    );
                }
                for &a in &all_labels {
                    prop_assert_eq!(
                        s.vertices_with_label(a).to_vec(), r.vertices_with_label(a).to_vec(),
                        "{} postings of {:?} on {}", ctx, a, k
                    );
                    prop_assert_eq!(s.label_frequency(a), r.label_frequency(a));
                }
                let (mut sb, mut rb) = (s.storage_bytes(), r.storage_bytes());
                if !unsealed.partition(k).has_overlay() {
                    // Shared as it was, so its postings keep one slot
                    // per label interned when its base was built.
                    (sb.postings, rb.postings) = (0, 0);
                }
                prop_assert_eq!(sb, rb, "{} storage of {}", ctx, k);
            }
            for &l in &all_labels {
                prop_assert_eq!(sealed.label_frequency(l), rebuilt.label_frequency(l));
            }
        }
    }

    /// `Index.getID` and `Index.hasLabel` describe the same thing: on every
    /// machine, for every label, the postings list exactly the owned
    /// vertices whose label look-up names it — on a static
    /// base, on an overlay after relabel / delete / add batches, and on the
    /// sealed base that replaces it — and the cloud-wide `label_frequency`
    /// is their total. This is what lets `Messages` exploration resolve a
    /// child label from either operator and choose between them by count.
    #[test]
    fn postings_list_exactly_the_vertices_that_carry_the_label(
        n in 8u64..40,
        labels in proptest::collection::vec(0u32..3, 40),
        edges in proptest::collection::vec((0u64..40, 0u64..40), 8..60),
        machines in 1usize..4,
        seed in 0u64..500,
    ) {
        let cloud = small_cloud(n, &labels, &edges, machines);
        let batches = update_stream(&cloud, &UpdateStreamConfig {
            num_batches: 4,
            ops_per_batch: 8,
            seed,
            relabel_bias: 0.5,
            ..UpdateStreamConfig::default()
        });
        let check = |cloud: &MemoryCloud, state: &str| {
            for l in (0..cloud.labels().len() as u32).map(LabelId) {
                let mut carriers = 0;
                for k in cloud.machines() {
                    let partition = cloud.partition(k);
                    let listed = partition.vertices_with_label(l).to_vec();
                    let labelled: Vec<_> = partition
                        .iter_vertices()
                        .filter(|&v| partition.label_of(v) == Some(l))
                        .collect();
                    assert_eq!(listed, labelled,
                        "{state}: label {l:?} on machine {k}");
                    carriers += listed.len() as u64;
                }
                assert_eq!(cloud.label_frequency(l), carriers,
                    "{state}: frequency of {l:?}");
            }
        };
        check(&cloud, "base");
        let epochs = GraphEpochs::new(cloud);
        for (i, batch) in batches.iter().enumerate() {
            epochs.apply(batch).expect("generated batches are valid");
            check(&epochs.pin(), &format!("overlay after batch {i}"));
            if i % 2 == 1 {
                epochs.seal_epoch();
                check(&epochs.pin(), &format!("sealed after batch {i}"));
            }
        }
    }
}

/// One step of churn for the repair proptest: a generated batch (edge
/// add/remove, random `RemoveVertex`, relabel, add-vertex-plus-edge) that
/// also adds and removes one edge inside the batch and, every third step,
/// removes the current hub.
fn churn_batch(snap: &MemoryCloud, mirror: &GraphMirror, seed: u64, step: u64) -> UpdateBatch {
    let mut batch = update_stream(
        snap,
        &UpdateStreamConfig {
            num_batches: 1,
            ops_per_batch: 5,
            seed: seed ^ (step << 32),
            relabel_bias: 0.4,
            ..UpdateStreamConfig::default()
        },
    )
    .pop()
    .expect("one batch");
    let mut after = mirror.clone();
    after.apply(&batch);
    let mut survivors: Vec<VertexId> = snap
        .iter_vertices()
        .filter(|&id| after.label_of(id).is_some())
        .collect();
    survivors.sort_unstable_by_key(|&id| std::cmp::Reverse(snap.degree_global(id)));
    if let [hub, a, b, ..] = survivors[..] {
        if !after.has_edge(a, b) {
            batch = batch.add_edge(a, b).remove_edge(a, b);
        }
        if step % 3 == 1 {
            batch = batch.remove_vertex(hub);
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// `repaired == repopulated`: under random churn, every table a warm
    /// cache serves — revalidated or repaired across one epoch or (queries
    /// skip steps) a gap of several, with a reader still pinned to an older
    /// epoch probing the same cache — is bit-identical to what a cold cache
    /// populates on the same snapshot, under either transport; a repair's counters and traffic never exceed a populate's; and
    /// the answers equal VF2 on the mirrored graph.
    #[test]
    fn repaired_tables_equal_a_cold_populate(
        n in 12u64..40,
        labels in proptest::collection::vec(0u32..3, 40),
        edges in proptest::collection::vec((0u64..40, 0u64..40), 20..80),
        machines in 1usize..=4,
        seed in 0u64..500,
    ) {
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let cloud = small_cloud(n, &labels, &edges, machines);
            let queries: Vec<QueryGraph> =
                (0..4u64).filter_map(|j| dfs_query(&cloud, 3 + (j as usize % 2), seed + j)).collect();
            let config = MatchConfig::exhaustive()
                .with_num_threads(Some(1))
                .with_transport_mode(mode);
            let mut mirror = GraphMirror::from_cloud(&cloud);
            let epochs = GraphEpochs::new(cloud);
            let warm = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
            let mut pinned: Option<(SnapshotRef, Vec<ResultTable>)> = None;
            for step in 0..6u64 {
                let batch = churn_batch(&epochs.pin(), &mirror, seed, step);
                epochs.apply(&batch).expect("churn batches are valid");
                mirror.apply(&batch);
                let snap = epochs.pin();
                let reference = mirror.build_cloud(1, CostModel::default());
                let cold = StwigCache::new(&snap, CacheConfig::default());
                for (j, q) in queries.iter().enumerate() {
                    if (step as usize + j) % 3 == 2 {
                        continue;
                    }
                    let w = stwig::match_query(&snap, q, &config, stwig::Run { cache: Some(&warm), ..stwig::Run::default() }).unwrap();
                    let p = stwig::match_query(&snap, q, &config, stwig::Run { cache: Some(&cold), ..stwig::Run::default() }).unwrap();
                    prop_assert_eq!(&w.table, &p.table);
                    prop_assert_eq!(
                        canonical_rows(q, &w.table),
                        canonical_rows(q, &vf2(&reference, q, None)),
                        "warm cache diverged from VF2 (step {}, query {})", step, j
                    );
                    for stwig in &plan_query(&snap, q).unwrap().stwigs {
                        let shape = StwigShape::of(q, stwig, false);
                        match (warm.lookup(&shape, &snap), cold.lookup(&shape, &snap)) {
                            (CacheLookup::Hit(a), CacheLookup::Hit(b)) => prop_assert_eq!(
                                a, b, "repaired {} != repopulated (step {})", stwig, step
                            ),
                            (CacheLookup::Bypass, CacheLookup::Bypass) => {}
                            // An STwig after one that matched nowhere is
                            // never explored, by either cache.
                            (_, CacheLookup::Miss) => {}
                            (a, b) => prop_assert!(false, "warm {:?} vs cold {:?}", a, b),
                        }
                    }
                    let (we, pe) = (&w.metrics.explore, &p.metrics.explore);
                    prop_assert!(we.roots_scanned <= pe.roots_scanned);
                    prop_assert!(we.cells_loaded <= pe.cells_loaded);
                    prop_assert!(we.label_probes <= pe.label_probes);
                    prop_assert!(we.rows_emitted <= pe.rows_emitted);
                    prop_assert!(w.metrics.network_messages <= p.metrics.network_messages);
                    prop_assert!(w.metrics.network_bytes <= p.metrics.network_bytes);
                }
                match &pinned {
                    // A reader pinned three epochs back shares the warm
                    // cache and still gets its own epoch's answers (the
                    // cache-free run's rows; a cached join orders them its
                    // own way).
                    Some((old, answers)) => for (q, want) in queries.iter().zip(answers) {
                        let got = stwig::match_query(old, q, &config, stwig::Run { cache: Some(&warm), ..stwig::Run::default() }).unwrap();
                        let same = same_answer(old, q, &got.table, want, config.result_limit());
                        prop_assert!(same.is_ok(), "pinned reader saw another epoch: {:?}", same);
                    },
                    None if step == 2 => {
                        let answers = queries.iter()
                            .map(|q| stwig::match_query(&snap, q, &config, stwig::Run::default()).unwrap().table)
                            .collect();
                        pinned = Some((snap.clone(), answers));
                    }
                    None => {}
                }
            }
            prop_assert!(queries.is_empty() || warm.stats().hits > 0);
        }
    }
}
