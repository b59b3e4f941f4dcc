//! Acceptance and soundness suite for neighborhood-signature root pruning,
//! which every exploration applies.
//!
//! * Differential: the engine returns exactly the VF2 baseline's embedding
//!   set across both transports and cache on/off, and the default config
//!   prunes roots on the Zipf fixture — signatures over-approximate, so the
//!   prune may only skip roots that provably cannot anchor a match.
//! * Prune on/off: the pruning engine ("on") agrees with VF2, which never
//!   prunes ("off"), across machines {1, 4} × threads {1, 4} and on random
//!   graphs, every row verifying, and is bit-identical with itself across
//!   thread counts.
//! * Proptest soundness: any root the prune predicate would skip is a root
//!   VF2 finds no embedding at.
//! * The headline claim: on a skewed-label (Zipf) R-MAT workload, pruning
//!   cuts `DirectRead` exploration bytes at least 2× against Algorithm 1
//!   walked unpruned, at equal results, with `roots_pruned` surfaced through
//!   the metrics. Under `Messages` rare child labels are resolved from their
//!   postings, so pruning saves root decodes there rather than bytes.

use proptest::prelude::*;
use stwig::stwig::STwig;
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
            // Two passes so the second one replays through the cache.
            for pass in 0..2 {
                let outputs = engine.run_batch(&queries);
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

    // The default config prunes roots too.
    let mut roots_pruned = 0;
    for (q, want) in queries.iter().zip(&expected) {
        let out = stwig::match_query_distributed(&cloud, q, &MatchConfig::default()).unwrap();
        assert_eq!(&canonical_rows(q, &out.table), want, "default config");
        roots_pruned += out.metrics.explore.roots_pruned;
    }
    assert!(roots_pruned > 0, "the default config must prune here");
}

#[test]
fn prune_on_off_is_consistent_across_machines_and_threads() {
    let graph = zipf_rmat(300, 5.0, 8, 0x71A9);
    let reference_cloud = graph
        .clone()
        .build_cloud(1, trinity_sim::network::CostModel::default());
    let queries = workload(&reference_cloud);

    for (qi, query) in queries.iter().enumerate() {
        // "Off": VF2 never prunes; its embedding set is the one every
        // configuration of the pruning engine must produce.
        let off = vf2(&reference_cloud, query, None);
        verify_all(&reference_cloud, query, &off).expect("VF2 embeddings verify");
        let want = canonical_rows(query, &off);

        for machines in [1usize, 4] {
            let cloud = graph
                .clone()
                .build_cloud(machines, trinity_sim::network::CostModel::default());
            // "On": the engine, which prunes roots on their signatures. It
            // must additionally be bit-identical with itself across thread
            // counts (same rows, same order, same prunes) — row order is
            // only machine-count-dependent, like the rest of the engine.
            let mut reference: Option<stwig::MatchOutput> = None;
            for threads in [1usize, 4] {
                let config = MatchConfig::exhaustive().with_num_threads(Some(threads));
                let on = stwig::match_query_distributed(&cloud, query, &config).unwrap();
                let ctx = format!("query {qi}: machines = {machines}, threads = {threads}");
                assert_eq!(canonical_rows(query, &on.table), want, "{ctx}");
                verify_all(&cloud, query, &on.table).expect("embeddings verify");
                match &reference {
                    None => reference = Some(on),
                    Some(reference) => {
                        assert_eq!(
                            on.table, reference.table,
                            "{ctx}: the table must be bit-identical across thread counts"
                        );
                        assert_eq!(
                            on.metrics.explore.roots_pruned, reference.metrics.explore.roots_pruned,
                            "{ctx}: prune decisions must not depend on the thread count"
                        );
                    }
                }
            }
        }
    }
}

/// Algorithm 1 over every machine's postings with bindings off, each
/// `Index.hasLabel` probe charged as it is made, with or without the
/// signature prune: the exploration bytes and messages it costs.
fn algorithm1_explore_traffic(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    stwigs: &[STwig],
    prune: bool,
) -> (u64, u64) {
    cloud.reset_traffic();
    for stwig in stwigs {
        let required = required_mask(stwig.children.iter().map(|&c| query.label(c)));
        for k in cloud.machines() {
            for n in cloud.get_ids(k, query.label(stwig.root)).iter() {
                let cell = cloud.load(k, n).expect("a local posting loads");
                let dead = cell.neighbors.len() < stwig.children.len()
                    || cloud
                        .signature_of(n)
                        .is_some_and(|s| !NeighborLabelIndex::covers(s, required));
                if prune && dead {
                    continue;
                }
                for &child in &stwig.children {
                    let mut found = false;
                    for m in cell.neighbors.iter() {
                        found |= cloud.has_label(k, m, query.label(child));
                    }
                    if !found {
                        break;
                    }
                }
            }
        }
    }
    let traffic = cloud.traffic();
    (traffic.total_bytes(), traffic.total_messages())
}

#[test]
fn pruning_cuts_explore_traffic_at_least_2x_on_zipf_rmat() {
    // A star query rooted at a mid-frequency label whose children carry rare
    // labels: most candidate roots have no rare-labeled neighbor, so their
    // signatures fail coverage and their neighborhoods are never probed.
    // Bindings off so every STwig scans its full label posting — the
    // configuration the pruning index is built for.
    let graph = zipf_rmat(600, 6.0, 12, 0xACCE);
    let cloud = graph.build_cloud(4, trinity_sim::network::CostModel::default());
    let mut qb = QueryGraph::builder();
    let r = qb.vertex_by_name(&cloud, "L1").unwrap();
    let c1 = qb.vertex_by_name(&cloud, "L8").unwrap();
    let c2 = qb.vertex_by_name(&cloud, "L9").unwrap();
    qb.edge(r, c1).edge(r, c2);
    let query = qb.build().unwrap();
    let want = canonical_rows(&query, &vf2(&cloud, &query, None));

    let config = MatchConfig::exhaustive()
        .with_num_threads(Some(1))
        .with_bindings(false);
    let stwigs = plan_query(&cloud, &query).unwrap().stwigs;
    let unpruned = algorithm1_explore_traffic(&cloud, &query, &stwigs, false);
    let pruned = algorithm1_explore_traffic(&cloud, &query, &stwigs, true);
    let run = |mode| {
        let config = config.clone().with_transport_mode(mode);
        stwig::match_query_distributed(&cloud, &query, &config).unwrap()
    };
    let direct = run(TransportMode::DirectRead);
    let messages = run(TransportMode::Messages);
    for out in [&direct, &messages] {
        assert_eq!(canonical_rows(&query, &out.table), want, "wrong answer");
        assert!(
            out.metrics.explore.roots_pruned > 0,
            "the skewed workload must actually prune"
        );
    }
    assert_eq!(
        cloud.storage_bytes().signatures,
        8 * cloud.num_vertices() as usize
    );

    // `DirectRead` charges Algorithm 1's probes as if made one at a time:
    // the engine costs what the pruned walk costs, and every probe of a
    // pruned root is saved — at least half the bytes.
    let phases = direct.metrics.phase_traffic;
    assert_eq!((phases.explore_bytes, phases.explore_messages), pruned);
    assert!(
        unpruned.0 >= 2 * pruned.0,
        "expected >= 2x exploration-byte reduction: unpruned = {}, pruned = {}",
        unpruned.0,
        pruned.0
    );
    // `Messages` resolves labels about the smaller side. The children carry
    // rare labels, so an exploration fetches their small postings instead of
    // asking about the neighbors of every root; what pruning saves there is
    // the decode of the dead roots. 2,619 B is what this fixture shipped
    // when every collected neighbor was asked about.
    let bytes = messages.metrics.phase_traffic.explore_bytes;
    assert!(
        bytes < 2619,
        "rare child labels must be resolved from their postings: {bytes} B"
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

    /// Prune on/off full-query equivalence on random graphs: the pruning
    /// engine ("on") and VF2, which never prunes ("off"), return the same
    /// embedding set, and every embedding of both verifies.
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
            let config = MatchConfig::exhaustive().with_num_threads(Some(1));
            let on = stwig::match_query_distributed(&cloud, &query, &config).unwrap();
            let off = vf2(&cloud, &query, None);
            prop_assert_eq!(canonical_rows(&query, &on.table), canonical_rows(&query, &off));
            prop_assert!(verify_all(&cloud, &query, &off).is_ok());
            prop_assert!(verify_all(&cloud, &query, &on.table).is_ok());
        }
    }
}
