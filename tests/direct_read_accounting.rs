//! The `DirectRead` matcher's bulk-tallied traffic accounting against its
//! reference: Algorithm 1 walked literally after the signature prune every
//! exploration applies, one `MemoryCloud::has_label` probe per (child,
//! neighbor), each remote probe charging its direct remote read, request and
//! reply on the spot.
//!
//! [`match_stwig`] decodes every root into an arena up front, labels it in
//! one pass (in place, or from the STwig's postings), charges as emission
//! reaches each root and flushes the probes once per exploration; nothing
//! observable may tell the two apart — the `Network` matrix cell for cell
//! (messages and bytes), `direct_remote_reads`, the table row for row, every
//! [`ExploreCounters`] field — also when the exploration stops early, where
//! only what was probed before the stop may be charged.

use proptest::prelude::*;
use std::time::Instant;
use stwig::bindings::Bindings;
use stwig::compat::produce_stwig_tables;
use stwig::distributed::plan_query;
use stwig::matcher::match_stwig;
use stwig::metrics::{ExploreCounters, MachineMetrics, QueryMetrics};
use stwig::stream::{CancelToken, QueryControl, QueryOptions};
use stwig::stwig::STwig;
use stwig::table::ResultTable;
use stwig_match::prelude::*;
use trinity_sim::ids::{MachineId, VertexId};
use trinity_sim::neighbor_index::required_mask;

/// Algorithm 1 with `Index.hasLabel` called per probe. Mirrors the
/// matcher's stop conditions (row cap before each root and each row, the
/// interrupt check every 32 roots) and its counters, and nothing of its
/// structure.
#[allow(clippy::too_many_arguments)]
fn reference_explore(
    cloud: &MemoryCloud,
    machine: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    roots: &[VertexId],
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    counters: &mut ExploreCounters,
) -> ResultTable {
    let mut table = ResultTable::new(stwig.vertices().collect());
    let full = |t: &ResultTable| config.max_stwig_rows.is_some_and(|cap| t.num_rows() >= cap);
    let admits = |q, v| !config.use_bindings || bindings.admits(q, v);
    let required = required_mask(stwig.children.iter().map(|&c| query.label(c)));
    for (i, &n) in roots.iter().enumerate() {
        if full(&table) || (i % 32 == 0 && control.is_some_and(QueryControl::interrupted)) {
            break;
        }
        counters.roots_scanned += 1;
        if !admits(stwig.root, n) {
            counters.rows_pruned_by_bindings += 1;
            continue;
        }
        let Some(cell) = cloud.load(machine, n) else {
            continue;
        };
        counters.cells_loaded += 1;
        if cell.label != query.label(stwig.root) {
            continue;
        }
        if cell.neighbors.len() < stwig.children.len()
            || cloud
                .signature_of(n)
                .is_some_and(|s| s & required != required)
        {
            counters.roots_pruned += 1;
            continue;
        }
        let mut candidates: Vec<Vec<VertexId>> = Vec::new();
        for &child in &stwig.children {
            let mut found = Vec::new();
            for m in cell.neighbors.iter().filter(|&m| m != n) {
                counters.label_probes += 1;
                if !cloud.has_label(machine, m, query.label(child)) {
                    continue;
                }
                if admits(child, m) {
                    found.push(m);
                } else {
                    counters.rows_pruned_by_bindings += 1;
                }
            }
            if found.is_empty() {
                break;
            }
            candidates.push(found);
        }
        if candidates.len() < stwig.children.len() {
            continue;
        }
        // Injective cross product, first child outermost.
        let mut rows = vec![vec![n]];
        for found in &candidates {
            rows = rows
                .iter()
                .flat_map(|row| {
                    found.iter().filter(|m| !row.contains(m)).map(|&m| {
                        let mut row = row.clone();
                        row.push(m);
                        row
                    })
                })
                .collect();
        }
        for row in rows {
            if full(&table) {
                break;
            }
            table.push_row(&row);
            counters.rows_emitted += 1;
        }
    }
    table
}

/// Everything the accounting of one exploration leaves behind.
type Observed = (ResultTable, ExploreCounters, TrafficSnapshot, u64);

/// Runs `explore` on a freshly reset network and collects what it left.
fn observe(
    cloud: &MemoryCloud,
    explore: impl FnOnce(&mut ExploreCounters) -> ResultTable,
) -> Observed {
    cloud.network().reset();
    let mut counters = ExploreCounters::default();
    let table = explore(&mut counters);
    (
        table,
        counters,
        cloud.traffic(),
        cloud.direct_remote_reads(),
    )
}

/// Explores every (machine, STwig) pair of the query's cover both ways under
/// `config`, unbound for the first STwig and bound by the earlier tables for
/// the rest, and requires equal observations. Returns how many pairs probed
/// a remote vertex.
fn check_explorations(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    control: Option<&QueryControl>,
) -> usize {
    let mut remote = 0;
    let mut bindings = Bindings::new(query.num_vertices());
    for stwig in decompose_ordered(query, cloud).unwrap() {
        let mut merged = ResultTable::new(stwig.vertices().collect());
        for k in cloud.machines() {
            // Every local posting, not only the bound ones: the matcher's
            // own root-admission branch then runs too.
            let roots = cloud.get_ids(k, query.label(stwig.root)).to_vec();
            let tallied = observe(cloud, |c| {
                match_stwig(
                    cloud, k, query, &stwig, &roots, &bindings, config, control, c,
                )
            });
            let probed = observe(cloud, |c| {
                reference_explore(
                    cloud, k, query, &stwig, &roots, &bindings, config, control, c,
                )
            });
            assert_eq!(tallied, probed, "machine {k}, STwig {stwig:?}, {config:?}");
            remote += usize::from(tallied.3 > 0);
            merged.append(&tallied.0);
        }
        bindings.update_from_table(&merged);
    }
    remote
}

fn pre_cancelled() -> QueryControl {
    let token = CancelToken::new();
    token.cancel();
    QueryControl::new(&QueryOptions::none().with_cancel(token), Instant::now())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn bulk_tally_equals_per_probe_accounting(
        n in 6u64..40,
        labels in proptest::collection::vec(0u32..3, 40),
        edges in proptest::collection::vec((0u64..40, 0u64..40), 12..160),
        machines in 1usize..5,
        seed in 0u64..1000,
        cap in 1usize..6,
    ) {
        // `(u, u)` pairs survive the modulo and the builder drops them: no
        // cloud holds a self-loop, so the matcher's "a root is not its own
        // child" guard is pinned on its own (`matcher::tests`).
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let labels = labels[..n as usize].to_vec();
        let cloud = SyntheticGraph::unlabeled(n, edges)
            .with_labels(labels, 3)
            .build_cloud(machines, CostModel::default());
        if let Some(query) = dfs_query(&cloud, 4, seed) {
            check_case(&cloud, &query, cap);
        }
    }
}

fn check_case(cloud: &MemoryCloud, query: &QueryGraph, cap: usize) {
    let config = MatchConfig::exhaustive().with_transport_mode(TransportMode::DirectRead);
    // Whole explorations, unbound then bound.
    check_explorations(cloud, query, &config, None);
    // Bindings carried but ignored.
    check_explorations(cloud, query, &config.clone().with_bindings(false), None);
    // A row cap that lands inside a root's cross product: the root's
    // probes were all made, later roots' were not.
    let capped = config.clone().with_max_stwig_rows(Some(cap));
    check_explorations(cloud, query, &capped, None);
    // Cancelled before the first root: nothing probed, nothing charged.
    let control = pre_cancelled();
    let remote = check_explorations(cloud, query, &config, Some(&control));
    assert_eq!(remote, 0);
}

/// A hub whose neighbours are spread over every machine, so that every
/// owner's tally is non-trivial, the early exit of a childless root is
/// charged for the child it did scan, and a cap lands mid-root.
#[test]
fn early_exits_charge_exactly_what_was_probed() {
    // 0..4 are `a` roots; 4..12 `b`; 12..20 `c`. Roots 0 and 1 see both
    // child labels, root 2 only `b`, root 3 only `c`: their signatures prune
    // both. With `collide`, root 2 also sees vertex 20 and root 3 vertex 21,
    // whose labels sit 64 above `c`'s and `b`'s and so set the missing bit:
    // both pass the prune, root 2's second child scan comes up empty, and
    // root 3's first does (the second is never made).
    let labels: Vec<u32> = (0..22u32)
        .map(|v| match v {
            0..=3 => 0,
            4..=11 => 1,
            12..=19 => 2,
            20 => 66,
            _ => 65,
        })
        .collect();
    for (machines, collide) in (1..=4usize).flat_map(|m| [(m, false), (m, true)]) {
        let mut edges = Vec::new();
        for m in 4..20u64 {
            edges.extend([(0, m), (1, m)]);
        }
        edges.extend((4..12u64).map(|m| (2, m)));
        edges.extend((12..20u64).map(|m| (3, m)));
        if collide {
            edges.extend([(2, 20), (3, 21)]);
        }
        let cloud = SyntheticGraph::unlabeled(22, edges)
            .with_labels(labels.clone(), 67)
            .build_cloud(machines, CostModel::default());
        let labels_of = |v: u64| cloud.label_of_global(VertexId(v)).unwrap();
        let mut qb = QueryGraph::builder();
        let (a, b, c) = (
            qb.vertex(labels_of(0)),
            qb.vertex(labels_of(4)),
            qb.vertex(labels_of(12)),
        );
        qb.edge(a, b).edge(a, c);
        let query = qb.build().unwrap();
        let stwig = STwig::new(a, vec![b, c]);
        let bindings = Bindings::new(query.num_vertices());
        let base = MatchConfig::exhaustive().with_transport_mode(TransportMode::DirectRead);
        // 64 rows per live root: 10 stops inside root 0, 64 at its end, 70
        // inside root 1.
        for cap in [None, Some(1), Some(10), Some(64), Some(70)] {
            let config = base.clone().with_max_stwig_rows(cap);
            // The coordinator's view: every root from machine 0, so remote
            // roots are loaded (and charged) in place too.
            let roots: Vec<VertexId> = (0..4).map(VertexId).collect();
            let k = MachineId(0);
            let tallied = observe(&cloud, |counters| {
                match_stwig(
                    &cloud, k, &query, &stwig, &roots, &bindings, &config, None, counters,
                )
            });
            let probed = observe(&cloud, |counters| {
                reference_explore(
                    &cloud, k, &query, &stwig, &roots, &bindings, &config, None, counters,
                )
            });
            assert_eq!(
                tallied, probed,
                "{machines} machines, {collide}, {config:?}"
            );
            if cap.is_none() {
                assert_eq!(tallied.0.num_rows(), 128);
                // Roots 0 and 1 probe 16 neighbours twice; let through,
                // root 2 probes 9 twice and root 3 probes 9 once.
                let (probes, pruned) = if collide { (64 + 18 + 9, 0) } else { (64, 2) };
                assert_eq!(tallied.1.label_probes, probes);
                assert_eq!(tallied.1.roots_pruned, pruned);
            }
            if machines > 1 {
                assert!(tallied.3 > 0, "some neighbour is remote to machine 0");
            }
        }
    }
}

/// A root without the STwig root's label emits nothing, but Algorithm 1
/// loaded it to find that out: a remote one is charged its read, although
/// the arena keeps no span for it.
#[test]
fn remote_roots_of_the_wrong_label_are_charged_their_read() {
    // 0..8 are `b`, 8..12 `a`, each `b` adjacent to one `a`; every root
    // passed is a `b`. Four machines: an id's owner is its residue mod 4.
    let edges = (0..8u64).map(|b| (b, 8 + b % 4)).collect();
    let labels = (0..12u32).map(|v| u32::from(v >= 8)).collect();
    let cloud = SyntheticGraph::unlabeled(12, edges)
        .with_labels(labels, 2)
        .build_cloud(4, CostModel::default());
    let mut qb = QueryGraph::builder();
    let a = qb.vertex(cloud.label_of_global(VertexId(8)).unwrap());
    let b = qb.vertex(cloud.label_of_global(VertexId(0)).unwrap());
    qb.edge(a, b);
    let query = qb.build().unwrap();
    let stwig = STwig::new(a, vec![b]);
    let bindings = Bindings::new(query.num_vertices());
    let roots: Vec<VertexId> = (0..8).map(VertexId).collect();
    let k = MachineId(0);
    let remote = roots.iter().filter(|&&n| cloud.machine_of(n) != k).count() as u64;
    assert_eq!(remote, 6);
    let config = MatchConfig::exhaustive().with_transport_mode(TransportMode::DirectRead);
    let tallied = observe(&cloud, |counters| {
        match_stwig(
            &cloud, k, &query, &stwig, &roots, &bindings, &config, None, counters,
        )
    });
    let probed = observe(&cloud, |counters| {
        reference_explore(
            &cloud, k, &query, &stwig, &roots, &bindings, &config, None, counters,
        )
    });
    assert_eq!(tallied, probed, "{config:?}");
    let (table, counters, traffic, reads) = tallied;
    assert!(table.is_empty());
    assert_eq!((counters.cells_loaded, counters.label_probes), (8, 0));
    // Per remote root: the request, the reply, one direct remote read.
    assert_eq!((traffic.total_messages(), reads), (2 * remote, remote));
}

/// The whole exploration phase through `produce_stwig_tables`: equal under 1
/// and 4 worker threads, and equal — tables, counters, the explore share of
/// the traffic, `direct_remote_reads` — to the reference explorer driven
/// through the same plan.
#[test]
fn exploration_phase_accounts_like_the_reference_on_any_thread_count() {
    let graph = rmat(&RmatConfig::with_avg_degree(2_000, 8.0, 7));
    let labels = LabelModel::Uniform { num_labels: 6 }.assign(graph.num_vertices, 7);
    let graph = graph.with_labels(labels, 6);
    for machines in [1usize, 3, 4] {
        let cloud = graph.build_cloud(machines, CostModel::default());
        for seed in [1u64, 2, 3] {
            let Some(query) = dfs_query(&cloud, 5, seed) else {
                continue;
            };
            let config = MatchConfig::exhaustive().with_transport_mode(TransportMode::DirectRead);
            let plan = plan_query(&cloud, &query).unwrap();
            let run = |threads: usize| {
                cloud.network().reset();
                let config = config.clone().with_num_threads(Some(threads));
                let mut metrics = QueryMetrics::default();
                let mut per_machine = vec![MachineMetrics::default(); machines];
                let tables = produce_stwig_tables(
                    &cloud,
                    &query,
                    &plan,
                    &config,
                    None,
                    None,
                    &mut metrics,
                    &mut per_machine,
                )
                .unwrap()
                .map(|set| -> Vec<Vec<ResultTable>> {
                    (0..machines)
                        .map(|k| {
                            (0..set.num_stwigs())
                                .map(|t| set.table(k, t).clone())
                                .collect()
                        })
                        .collect()
                });
                (
                    tables,
                    metrics.explore,
                    metrics.phase_traffic,
                    cloud.traffic(),
                    cloud.direct_remote_reads(),
                )
            };
            let serial = run(1);
            assert_eq!(serial, run(4), "{machines} machines, seed {seed}");

            // The reference, STwig by STwig under the same binding barrier.
            cloud.network().reset();
            let mut counters = ExploreCounters::default();
            let mut bindings = Bindings::new(query.num_vertices());
            let mut reference: Vec<Vec<ResultTable>> = vec![Vec::new(); machines];
            for stwig in &plan.stwigs {
                let mut merged = ResultTable::new(stwig.vertices().collect());
                for k in cloud.machines() {
                    let bound = bindings.get(stwig.root);
                    let roots: Vec<VertexId> = cloud
                        .get_ids(k, query.label(stwig.root))
                        .iter()
                        .filter(|v| bound.is_none_or(|set| set.contains(v)))
                        .collect();
                    let table = reference_explore(
                        &cloud,
                        k,
                        &query,
                        stwig,
                        &roots,
                        &bindings,
                        &config,
                        None,
                        &mut counters,
                    );
                    merged.append(&table);
                    reference[k.index()].push(table);
                }
                if merged.is_empty() {
                    break;
                }
                bindings.update_from_table(&merged);
            }
            let (tables, explore, phases, _, reads) = serial;
            if let Some(tables) = tables {
                assert_eq!(tables, reference, "{machines} machines, seed {seed}");
            }
            assert_eq!(explore, counters);
            let traffic = cloud.traffic();
            assert_eq!(
                (phases.explore_messages, phases.explore_bytes),
                (traffic.total_messages(), traffic.total_bytes())
            );
            assert_eq!(reads, cloud.direct_remote_reads());
        }
    }
}
