//! Property tests of the `Messages`-mode exploration against the
//! `DirectRead` matcher, at the level of one machine × STwig exploration.
//! Both modes run one core — the same frontier arena, collected once and
//! replayed by the same emission pass — and differ in how the arena is
//! labeled: `Messages` fetches postings or asks the owners over the
//! transport, `DirectRead` reads in place or from the STwig's shared postings
//! map. The `Messages` frontier must reproduce the `DirectRead` one **bit for
//! bit** — table rows in order and every [`ExploreCounters`] field — on both
//! sides of its resolution rule (child-label postings fetched, or neighbors
//! asked about), also on the paths that end an exploration early (row cap,
//! interrupt) or thin it out (signature pruning, bindings), and under
//! `FailurePolicy::Degrade` a lost owner may only remove the rows that
//! needed its labels. Sharing the arena makes this a check of the
//! resolutions, not of the core: the independent anchor is Algorithm 1
//! walked literally, `reference_explore` in `tests/direct_read_accounting.rs`.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use stwig::bindings::Bindings;
use stwig::distributed::LOAD_BATCH_IDS;
use stwig::matcher::{match_stwig, match_stwig_batched};
use stwig::metrics::{ExploreCounters, FaultCounters};
use stwig::stream::{CancelToken, QueryControl, QueryOptions};
use stwig::table::ResultTable;
use stwig_match::prelude::*;
use trinity_sim::fault::{FaultPlan, FaultyTransport};
use trinity_sim::ids::{MachineId, VertexId};
use trinity_sim::transport::{ChannelTransport, Envelope, Message, Transport, TransportError};

/// Requests the sweep's explorations sent, by kind: a `GetIdsRequest` is the
/// postings side of the resolution rule at work, a `LoadRequest` the asking
/// side.
static POSTINGS_REQUESTS: AtomicU64 = AtomicU64::new(0);
static LOAD_REQUESTS: AtomicU64 = AtomicU64::new(0);

/// Roots the sweep's equal explorations admitted, decoded and found empty:
/// `roots_admitted_empty` is only compared if some exploration counts one.
static ADMITTED_EMPTY: AtomicU64 = AtomicU64::new(0);

/// Passes everything through and records the kind of every request.
struct Recording<'a>(&'a dyn Transport);

impl Transport for Recording<'_> {
    fn exchange(
        &self,
        src: MachineId,
        dst: MachineId,
        msg: Message,
    ) -> Result<Message, TransportError> {
        match msg {
            Message::GetIdsRequest { .. } => POSTINGS_REQUESTS.fetch_add(1, Ordering::Relaxed),
            _ => LOAD_REQUESTS.fetch_add(1, Ordering::Relaxed),
        };
        self.0.exchange(src, dst, msg)
    }
    fn alloc_seq(&self, src: MachineId, dst: MachineId) -> u64 {
        self.0.alloc_seq(src, dst)
    }
    fn post_envelope(&self, dst: MachineId, env: Envelope) {
        self.0.post_envelope(dst, env)
    }
    fn drain(&self, dst: MachineId) -> Vec<Envelope> {
        self.0.drain(dst)
    }
}

/// A random labeled graph over `machines` machines plus a query sampled from
/// it, or `None` when the graph has no usable component.
fn cloud_and_query(
    n: u64,
    labels: Vec<u32>,
    edges: Vec<(u64, u64)>,
    machines: usize,
    seed: u64,
) -> Option<(MemoryCloud, QueryGraph)> {
    let num_labels = labels.iter().max().map_or(1, |&l| l as usize + 1);
    let cloud = SyntheticGraph::unlabeled(n, edges)
        .with_labels(labels, num_labels)
        .build_cloud(machines, CostModel::default());
    let query = dfs_query(&cloud, 4, seed)?;
    Some((cloud, query))
}

/// Explores every (machine, STwig) pair of the query's cover both ways —
/// `Messages` in `Load` envelopes of at most `batch` ids — and hands each
/// pair of outcomes to `check`. `down` names a crashed machine: the
/// transport then fails every exchange with it, and it explores nothing
/// itself.
#[allow(clippy::too_many_arguments)]
fn for_each_exploration(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    batch: usize,
    control: Option<&QueryControl>,
    down: Option<MachineId>,
    mut check: impl FnMut(
        &ResultTable,
        &ExploreCounters,
        &ResultTable,
        &ExploreCounters,
        &FaultCounters,
    ),
) {
    let plain = ChannelTransport::new(cloud);
    let faulty = down.map(|m| {
        let plan = FaultPlan::default().with_crash(m.0, 0);
        FaultyTransport::new(ChannelTransport::new(cloud), plan)
    });
    let transport = Recording(match &faulty {
        Some(tp) => tp,
        None => &plain,
    });
    let mut bindings = Bindings::new(query.num_vertices());
    for stwig in decompose_ordered(query, cloud).unwrap() {
        let mut merged = ResultTable::new(stwig.vertices().collect());
        for k in cloud.machines().filter(|&k| Some(k) != down) {
            let roots = cloud.get_ids(k, query.label(stwig.root)).to_vec();
            let mut direct_counters = ExploreCounters::default();
            let direct = match_stwig(
                cloud,
                &Network::new(cloud.num_machines()),
                k,
                query,
                &stwig,
                &roots,
                &bindings,
                config,
                control,
                &mut direct_counters,
            );
            let mut counters = ExploreCounters::default();
            let mut faults = FaultCounters::default();
            let batched = match_stwig_batched(
                cloud,
                &transport,
                k,
                query,
                &stwig,
                &roots,
                &bindings,
                config,
                batch,
                control,
                &mut counters,
                &mut faults,
            )
            .unwrap();
            check(&direct, &direct_counters, &batched, &counters, &faults);
            merged.append(&direct);
        }
        // Later STwigs explore under the bindings of the earlier ones, so
        // the binding filters of both passes are exercised.
        bindings.update_from_table(&merged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    fn sweep(
        n in 6u64..40,
        labels in proptest::collection::vec(0u32..3, 40),
        edges in proptest::collection::vec((0u64..40, 0u64..40), 12..160),
        machines in 2usize..6,
        seed in 0u64..1000,
        cap in 1usize..5,
        batch in 1usize..4,
    ) {
        let edges = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let labels = labels[..n as usize].to_vec();
        if let Some((cloud, query)) = cloud_and_query(n, labels, edges, machines, seed) {
            check_case(&cloud, &query, machines, seed, cap, batch);
        }
    }
}

#[test]
fn frontier_reproduces_direct_reads_bit_for_bit() {
    sweep();
    // The sweep is only an oracle for the rule if it lands on both sides.
    let postings = POSTINGS_REQUESTS.load(Ordering::Relaxed);
    let loads = LOAD_REQUESTS.load(Ordering::Relaxed);
    assert!(
        postings > 0 && loads > 0,
        "one resolution was never exercised: {postings} postings fetches, {loads} projected loads"
    );
    assert!(
        ADMITTED_EMPTY.load(Ordering::Relaxed) > 0,
        "no exploration admitted a root that emitted nothing"
    );
}

fn check_case(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    machines: usize,
    seed: u64,
    cap: usize,
    batch: usize,
) {
    let base = MatchConfig::exhaustive();
    let same = |direct: &ResultTable,
                dc: &ExploreCounters,
                batched: &ResultTable,
                bc: &ExploreCounters,
                faults: &FaultCounters| {
        assert_eq!(direct, batched);
        assert_eq!(dc, bc);
        assert!(!faults.any());
        ADMITTED_EMPTY.fetch_add(bc.roots_admitted_empty, Ordering::Relaxed);
    };

    // A tiny row cap: emission stops mid-root, long before the frontier
    // pass (which cannot know where the cap lands) ran out of roots.
    let capped = MatchConfig {
        max_stwig_rows: Some(cap),
        ..base.clone()
    };
    for_each_exploration(cloud, query, &capped, batch, None, None, same);

    // A query cancelled before it starts: nothing is loaded, requested
    // or emitted on either path.
    let token = CancelToken::new();
    token.cancel();
    let control = QueryControl::new(&QueryOptions::none().with_cancel(token), Instant::now());
    for_each_exploration(
        cloud,
        query,
        &base,
        batch,
        Some(&control),
        None,
        |d, dc, b, bc, f| {
            same(d, dc, b, bc, f);
            assert!(b.is_empty());
            assert_eq!(*bc, ExploreCounters::default());
        },
    );

    // One owner down under `Degrade`: its labels stay unknown, so exactly
    // the rows with a child it owns disappear — none is invented — and
    // the root-side work is untouched.
    let down = MachineId((seed % machines as u64) as u16);
    let degrade = QueryOptions::none().with_faults(Faults {
        on_loss: FailurePolicy::Degrade,
        ..Faults::new(FaultPlan::default().with_crash(down.0, 0))
    });
    let degrade = QueryControl::new(&degrade, Instant::now());
    for_each_exploration(
        cloud,
        query,
        &base,
        batch,
        Some(&degrade),
        Some(down),
        |d, dc, b, bc, faults| {
            let mut survivors = d.clone();
            survivors.retain_rows(|row| row[1..].iter().all(|&m| cloud.machine_of(m) != down));
            assert_eq!(&survivors, b);
            assert_eq!(
                (dc.roots_scanned, dc.cells_loaded, dc.roots_pruned),
                (bc.roots_scanned, bc.cells_loaded, bc.roots_pruned)
            );
            // Rows lost with the owner can only leave more roots empty.
            assert!(bc.roots_admitted_empty >= dc.roots_admitted_empty);
            assert_eq!(bc.rows_emitted, b.num_rows() as u64);
            assert!(faults.machines_lost.is_empty() || faults.machines_lost == [down.0]);
        },
    );
}

/// One exploration of the star a → b from the machine that owns the most
/// hubs: six a-hubs (0..6), each adjacent to all six b-vertices (6..12), over
/// three machines — some machine owns at least two hubs, and they share
/// every neighbor — plus `extra_b` isolated b-vertices (12..), which only
/// make the child label more frequent.
struct HubStar {
    traffic: trinity_sim::network::TrafficSnapshot,
    /// The hubs' neighbors that live on the other machines.
    remote: u64,
    /// How many of the other machines own one.
    owners: u64,
}

fn explore_hub_star(extra_b: u64) -> HubStar {
    let n = 12 + extra_b;
    let edges = (0..6u64)
        .flat_map(|hub| (6..12u64).map(move |m| (hub, m)))
        .collect();
    let labels = (0..n).map(|v| u32::from(v >= 6)).collect();
    let cloud = SyntheticGraph::unlabeled(n, edges)
        .with_labels(labels, 2)
        .build_cloud(3, CostModel::default());
    let cloud = &cloud;
    let hubs_of = |k| {
        (0..6u64)
            .map(VertexId)
            .filter(move |&h| cloud.machine_of(h) == k)
    };
    let machine = cloud
        .machines()
        .max_by_key(|&k| hubs_of(k).count())
        .unwrap();
    let roots: Vec<_> = hubs_of(machine).collect();
    assert!(roots.len() >= 2, "pigeonhole");
    let remote: Vec<_> = (6..12u64)
        .map(|m| cloud.machine_of(VertexId(m)))
        .filter(|&owner| owner != machine)
        .collect();
    let owners: std::collections::BTreeSet<_> = remote.iter().collect();

    let mut qb = QueryGraph::builder();
    let a = qb.vertex(cloud.label_of_global(VertexId(0)).unwrap());
    let b = qb.vertex(cloud.label_of_global(VertexId(6)).unwrap());
    qb.edge(a, b);
    let query = qb.build().unwrap();
    let stwig = stwig::stwig::STwig::new(a, vec![b]);
    let ledger = Network::new(cloud.num_machines());
    let transport = ChannelTransport::new(cloud).with_ledger(&ledger);
    let table = match_stwig_batched(
        cloud,
        &transport,
        machine,
        &query,
        &stwig,
        &roots,
        &Bindings::new(query.num_vertices()),
        &MatchConfig::exhaustive(),
        LOAD_BATCH_IDS,
        None,
        &mut ExploreCounters::default(),
        &mut FaultCounters::default(),
    )
    .unwrap();
    assert_eq!(table.num_rows(), 6 * roots.len());
    HubStar {
        traffic: ledger.snapshot(),
        remote: remote.len() as u64,
        owners: owners.len() as u64,
    }
}

/// The asking side of the rule (36 b-vertices, at most 36 neighbors
/// collected): the frontier ships each distinct remote neighbor once, however
/// many roots share it, and only to machines that own one.
#[test]
fn frontier_requests_each_remote_neighbor_once() {
    let HubStar {
        traffic,
        remote,
        owners,
    } = explore_hub_star(30);
    // One request and one reply per owner; each remote id costs 8 B out and
    // 4 B back on top of the 17 B + 16 B of the two headers.
    assert_eq!(traffic.total_messages(), 2 * owners);
    assert_eq!(traffic.total_bytes(), 33 * owners + 12 * remote);
}

/// The postings side (6 b-vertices, at least 12 neighbors collected): no
/// owner is asked about any neighbor; each of the two other machines is sent
/// the one child label and lists the b-vertices it owns — here exactly the
/// hubs' remote neighbors.
#[test]
fn frontier_fetches_rare_child_postings_once_per_owner() {
    let HubStar {
        traffic, remote, ..
    } = explore_hub_star(0);
    // One request and one reply per other machine, whether it owns a b or
    // not: 4 B per label out and 8 B per listed id back on top of the two
    // 16 B headers.
    assert_eq!(traffic.total_messages(), 2 * 2);
    assert_eq!(traffic.total_bytes(), 2 * (16 + 4 + 16) + 8 * remote);
}

/// A graph over `ids` with five labels and a rare sixth, each vertex joined
/// to three others by index arithmetic, built over four machines.
fn labeled_ring(ids: &[VertexId]) -> MemoryCloud {
    let n = ids.len() as u64;
    let mut b = GraphBuilder::default();
    for (i, &id) in (0u64..).zip(ids) {
        let name = if i % 37 == 0 {
            "rare"
        } else {
            ["a", "b", "c", "d", "e"][(i % 5) as usize]
        };
        b.add_vertex(id, name);
    }
    for i in 0..n {
        for j in [i + 1, i * 7 + 3, i * 13 + 5] {
            b.add_edge(ids[i as usize], ids[(j % n) as usize]);
        }
    }
    b.build(4, CostModel::default())
}

/// `cloud`'s content loaded anew onto one machine, under the same label
/// ids: the VF2 reference.
fn rebuilt(cloud: &MemoryCloud) -> MemoryCloud {
    let ids: Vec<VertexId> = cloud.iter_vertices().collect();
    let vertices = ids
        .iter()
        .map(|&id| (id, cloud.label_of_global(id).unwrap()));
    let edges: Vec<(VertexId, VertexId)> = ids
        .iter()
        .flat_map(|&id| cloud.neighbors_global(id).iter().map(move |n| (id, n)))
        .collect();
    StreamLoader::new(1, CostModel::default())
        .load(cloud.labels().clone(), vertices, || edges.iter().copied())
        .unwrap()
}

/// Every workload explores freshly loaded partitions whose ids fill their
/// strided range, so a label read there is a range check, a shift and a
/// byte. Exploration also has to hold on the other id layouts, and both
/// are explored here under both transports — `Messages` on both sides of
/// its rule — against VF2:
///
/// * a churned cloud whose overlays are not sealed: added, deleted and
///   relabelled ids read through the overlay before the base;
/// * a cloud of sparse ids, every partition on the hashed id index.
#[test]
fn exploration_matches_vf2_on_churned_and_sparse_clouds() {
    let v = VertexId;
    let dense: Vec<VertexId> = (0..400).map(v).collect();
    let epochs = GraphEpochs::new(labeled_ring(&dense));
    let batch = UpdateBatch::new()
        .remove_vertex(v(5))
        .remove_vertex(v(74))
        .add_vertex(v(1_000), "b")
        .add_edge(v(1_000), v(10))
        .add_edge(v(1_000), v(11))
        .add_edge(v(1_000), v(37))
        .add_vertex(v(1_003), "rare")
        .add_edge(v(1_003), v(1_000))
        .add_edge(v(1_003), v(20))
        .add_vertex(v(30), "rare")
        .add_vertex(v(31), "a")
        .remove_edge(v(40), v(41))
        .add_edge(v(60), v(90));
    epochs.apply(&batch).unwrap();
    let churned = epochs.pin();
    assert!(churned
        .machines()
        .any(|m| churned.partition(m).has_overlay()));
    let sparse_ids: Vec<VertexId> = (0..400u64).map(|i| v(i * 1_000_003 + i % 7)).collect();
    let sparse = labeled_ring(&sparse_ids);
    assert!(
        sparse.storage_bytes().id_map > 400 * 8,
        "hashed ids keep their array"
    );

    for (name, cloud) in [("churned", churned.cloud()), ("sparse", &sparse)] {
        let reference = rebuilt(cloud);
        let (mut from_postings, mut by_asking) = (0, 0);
        for seed in 0..24 {
            let Some(query) = dfs_query(cloud, 3 + (seed % 3) as usize, seed) else {
                continue;
            };
            let want = vf2(&reference, &query, None);
            for mode in [TransportMode::DirectRead, TransportMode::Messages] {
                let config = MatchConfig::exhaustive()
                    .with_num_threads(Some(1))
                    .with_transport_mode(mode);
                let out = match_query(cloud, &query, &config, Run::default()).unwrap();
                same_answer(cloud, &query, &out.table, &want, None)
                    .unwrap_or_else(|e| panic!("{name}, {mode:?}, seed {seed}: {e}"));
                if mode == TransportMode::Messages {
                    from_postings += out.metrics.explore_from_postings;
                    by_asking += out.metrics.explore_by_probing;
                }
            }
        }
        assert!(
            from_postings > 0 && by_asking > 0,
            "{name}: {from_postings} explorations from postings, {by_asking} by asking"
        );
    }
}
