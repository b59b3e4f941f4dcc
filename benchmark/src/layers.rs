//! The traced run (`--trace 1`): per-layer numbers and spans.
//!
//! Never used for end-to-end numbers. One set-up, then passes that alternate
//! between untraced and traced (heap counting on, spans kept), so the two
//! throughputs are taken under the same host conditions and their ratio is
//! the tracing overhead. After that, fixed-size probes of single layers:
//! the request sequence replayed outside the engine as
//! `plan → explore → join`, storage scan loops on both tiers, a transport
//! round trip, cache lookups, and the same replay under both transport
//! modes. Layer = module name.

use crate::alloc;
use crate::digest::Digest;
use crate::e2e::{prepare, Estimators};
use crate::report::{Outcome, Values};
use crate::runner::{run_ops, set_up, PassLog, Stage};
use crate::stats::{median_of, percentile, PositionMin};
use crate::trace::Trace;
use crate::workload::{Delivery, GraphInput, Inputs, Op, Spec, MACHINES};
use std::hint::black_box;
use std::time::{Duration, Instant};
use stwig::cache::{CacheLookup, StwigShape};
use stwig::metrics::{CacheStats, MachineMetrics, QueryMetrics};
use stwig::prelude::*;
use trinity_sim::epoch::GraphEpochs;
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::prelude::{ChannelTransport, Message, StorageTier, Transport};
use trinity_sim::MemoryCloud;

/// Measured replays of the sequence outside the engine (after one warm one);
/// each position keeps its fastest.
const REPLAYS: usize = 3;
/// Repetitions of every storage and transport probe loop; the fastest counts.
const PROBE_REPS: usize = 5;
/// Ids per batched `Load` round trip of the transport probe.
const EXCHANGE_IDS: usize = 4096;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Fastest of `reps` runs of `f`, ns.
fn fastest_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ns(t.elapsed()) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A fixed integer loop, timed: how fast this host runs today, ms.
fn calibrate() -> f64 {
    fastest_ns(3, || {
        let mut x = 0x5157_u64;
        for i in 0..20_000_000u64 {
            x = crate::rng::splitmix64(x ^ i);
        }
        black_box(x);
    }) / 1e6
}

// ---------------------------------------------------------------------
// Engine passes: counters and spans at the request boundary
// ---------------------------------------------------------------------

/// Everything summed over the traced passes' answers.
#[derive(Default)]
struct Tally {
    queries: u64,
    metrics: QueryMetrics,
    peak_table_bytes: u64,
    rows: u64,
    submit_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    overhead_us: Vec<f64>,
    engine_first_row_us: Vec<f64>,
    deliver_us: Vec<f64>,
    apply_ms: Vec<f64>,
    seal_ms: Vec<f64>,
    batches_applied: u64,
    batches_refused: u64,
    busy_ns: f64,
    wall_ns: f64,
    cache: CacheStats,
    peak_queue_depth: u64,
    rejected: u64,
    shed: u64,
    unsealed_bytes_per_edge: f64,
}

impl Tally {
    fn observe(&mut self, inputs: &Inputs, log: &PassLog) {
        self.wall_ns += log.wall_ns as f64;
        for (op, answer) in inputs.ops.iter().zip(&log.answers) {
            match op {
                Op::Query { .. } => {
                    let m = &answer.metrics;
                    self.queries += 1;
                    self.metrics.num_stwigs += m.num_stwigs;
                    self.metrics.explore.merge(&m.explore);
                    self.metrics.join.merge(&m.join);
                    self.metrics.phase_traffic.merge(&m.phase_traffic);
                    self.metrics.network_messages += m.network_messages;
                    self.metrics.network_bytes += m.network_bytes;
                    self.metrics.matches_found += m.matches_found;
                    self.metrics.explore_rounds += m.explore_rounds;
                    self.metrics.fault.retries += m.fault.retries;
                    self.metrics.fault.timeouts += m.fault.timeouts;
                    self.peak_table_bytes = self.peak_table_bytes.max(m.peak_table_bytes);
                    self.rows += answer.digest.rows;
                    self.busy_ns += m.wall_us * 1e3;
                    self.submit_us.push(answer.submit_ns as f64 / 1e3);
                    self.queue_wait_us.push(answer.queue_wait_us);
                    self.overhead_us
                        .push(answer.total_ns as f64 / 1e3 - answer.queue_wait_us - m.wall_us);
                    self.engine_first_row_us
                        .push(m.time_to_first_result_us.unwrap_or(0.0));
                    self.deliver_us
                        .push((answer.total_ns - answer.first_row_ns) as f64 / 1e3);
                }
                Op::Update(_) => {
                    self.apply_ms.push(answer.total_ns as f64 / 1e6);
                    self.batches_applied += u64::from(answer.ok);
                    self.batches_refused += u64::from(!answer.ok);
                }
                Op::Seal => self.seal_ms.push(answer.total_ns as f64 / 1e6),
            }
        }
    }

    /// Adds what `engine` counted since `since` (its counters at the start
    /// of the pass; zero for a fresh per-pass engine).
    fn observe_engine(&mut self, engine: &QueryEngine<'_>, since: &CacheStats) {
        if let Some(now) = engine.cache_stats() {
            self.cache.hits += now.hits - since.hits;
            self.cache.misses += now.misses - since.misses;
            self.cache.bypasses += now.bypasses - since.bypasses;
            self.cache.evictions += now.evictions - since.evictions;
            self.cache.stale_evictions += now.stale_evictions - since.stale_evictions;
            self.cache.bytes_resident = now.bytes_resident;
        }
        let scheduler = engine.metrics_snapshot().scheduler;
        self.peak_queue_depth = self.peak_queue_depth.max(scheduler.peak_queue_depth);
        self.rejected = self.rejected.max(scheduler.rejected());
        self.shed = self.shed.max(scheduler.shed());
    }
}

/// Appends the spans of one pass: `request ⊃ submit, queue, serve, deliver`
/// for queries, `apply ⊃ submit, queue` and `seal` for the rest. The engine
/// reports durations, not instants, so `queue` is laid from the call and
/// `serve` after it; whatever the children leave uncovered is the request's
/// self time (hand-offs between the two threads).
fn record_pass(
    trace: &mut Trace,
    spec: &Spec,
    inputs: &Inputs,
    log: &PassLog,
    pass: u32,
    at_ns: u64,
) {
    let len = inputs.ops.len() as u32;
    for (i, (op, answer)) in inputs.ops.iter().zip(&log.answers).enumerate() {
        let query = pass * len + i as u32;
        let start = at_ns + log.start_ns[i];
        let end = start + answer.total_ns;
        let queue_end = start + (answer.queue_wait_us * 1e3) as u64;
        match op {
            Op::Query { .. } => {
                let serve_end = queue_end + (answer.metrics.wall_us * 1e3) as u64;
                let request = trace.record(None, query, "request", start, end);
                trace.record(
                    Some(request),
                    query,
                    "submit",
                    start,
                    start + answer.submit_ns,
                );
                trace.record(Some(request), query, "queue", start, queue_end);
                trace.record(Some(request), query, "serve", queue_end, serve_end);
                // Collect delivery hands the table over in `wait()`; only a
                // stream has a delivery interval the client can observe.
                if spec.delivery == Delivery::Stream {
                    let first_row = start + answer.first_row_ns;
                    trace.record(Some(request), query, "deliver", first_row, end);
                }
            }
            Op::Update(_) => {
                let apply = trace.record(None, query, "apply", start, end);
                trace.record(
                    Some(apply),
                    query,
                    "submit",
                    start,
                    start + answer.submit_ns,
                );
                trace.record(Some(apply), query, "queue", start, queue_end);
            }
            Op::Seal => {
                trace.record(None, query, "seal", start, end);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Layer replay: plan → explore → join outside the engine
// ---------------------------------------------------------------------

/// Fastest time of each phase at each query position of the sequence.
struct Replay {
    plan: PositionMin,
    explore: PositionMin,
    join: PositionMin,
    whole: PositionMin,
}

/// Replays the sequence's queries on `cloud` through the public phase
/// functions, timing each; spans of the last replay go to `trace`.
fn replay_layers(
    spec: &Spec,
    cloud: &MemoryCloud,
    inputs: &Inputs,
    origin: Instant,
    trace: &mut Trace,
    first_query_id: u32,
) -> Result<Replay, String> {
    let config = spec.match_config();
    let cache = spec
        .cache
        .then(|| StwigCache::new(cloud, CacheConfig::default()));
    let positions: Vec<usize> = inputs
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Query { query, .. } => Some(*query),
            _ => None,
        })
        .collect();
    let n = positions.len();
    let mut replay = Replay {
        plan: PositionMin::new(n),
        explore: PositionMin::new(n),
        join: PositionMin::new(n),
        whole: PositionMin::new(n),
    };
    // Replay 0 warms the replay's own cache and is not kept.
    for round in 0..=REPLAYS {
        for (slot, &q) in positions.iter().enumerate() {
            let query = &inputs.queries[q];
            let mut metrics = QueryMetrics::default();
            let mut machines = vec![MachineMetrics::default(); MACHINES];
            let t0 = Instant::now();
            cloud.reset_traffic();
            let plan = plan_query_with_config(cloud, query, &config).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let tables = produce_stwig_tables(
                cloud,
                query,
                &plan,
                &config,
                cache.as_ref(),
                None,
                &mut metrics,
                &mut machines,
            )
            .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let rows = match &tables {
                Some(tables) => join_stwig_tables(
                    cloud,
                    query,
                    &plan,
                    tables,
                    &config,
                    &mut metrics,
                    &mut machines,
                )
                .map_err(|e| e.to_string())?
                .num_rows(),
                None => 0,
            };
            let t3 = Instant::now();
            black_box(rows);
            if round == 0 {
                continue;
            }
            replay.plan.observe(slot, ns(t1 - t0) as f64);
            replay.explore.observe(slot, ns(t2 - t1) as f64);
            replay.join.observe(slot, ns(t3 - t2) as f64);
            replay.whole.observe(slot, ns(t3 - t0) as f64);
            if round == REPLAYS {
                let id = first_query_id + slot as u32;
                let at = |t: Instant| ns(t - origin);
                let root = trace.record(None, id, "query", at(t0), at(t3));
                trace.record(Some(root), id, "plan", at(t0), at(t1));
                trace.record(Some(root), id, "explore", at(t1), at(t2));
                trace.record(Some(root), id, "join", at(t2), at(t3));
            }
        }
    }
    Ok(replay)
}

/// Total time to answer every distinct query once under `mode`, cache off,
/// each query's fastest of two.
fn replay_under(
    spec: &Spec,
    cloud: &MemoryCloud,
    inputs: &Inputs,
    mode: TransportMode,
) -> Result<f64, String> {
    let config = spec.match_config().with_transport_mode(mode);
    let mut total = 0.0;
    for query in &inputs.queries {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            let out = match_query_distributed(cloud, query, &config).map_err(|e| e.to_string())?;
            best = best.min(ns(t.elapsed()) as f64);
            black_box(out.table.num_rows());
        }
        total += best;
    }
    Ok(total)
}

// ---------------------------------------------------------------------
// Storage, transport, cache and epoch probes
// ---------------------------------------------------------------------

/// ns per adjacency entry of scanning every vertex's neighbours once.
fn neighbor_scan_ns_per_edge(cloud: &MemoryCloud) -> f64 {
    let ids: Vec<Vec<VertexId>> = cloud
        .machines()
        .map(|m| cloud.partition(m).iter_vertices().collect())
        .collect();
    let mut entries = 0u64;
    let ns = fastest_ns(PROBE_REPS, || {
        let mut sum = 0u64;
        entries = 0;
        for (m, ids) in cloud.machines().zip(&ids) {
            let partition = cloud.partition(m);
            for &id in ids {
                if let Some(cell) = partition.load(id) {
                    for n in cell.neighbors.iter() {
                        sum = sum.wrapping_add(n.raw());
                        entries += 1;
                    }
                }
            }
        }
        black_box(sum);
    });
    ns / entries.max(1) as f64
}

/// ns per `cloud.load` of 65,536 vertices in a scattered order.
fn cell_load_ns(cloud: &MemoryCloud) -> f64 {
    let mut ids: Vec<VertexId> = cloud.iter_vertices().collect();
    let mut rng = crate::rng::SplitMix(0xCE11);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    ids.truncate(1 << 16);
    let ns = fastest_ns(PROBE_REPS, || {
        let mut sum = 0u64;
        for &id in &ids {
            if let Some(cell) = cloud.load(cloud.machine_of(id), id) {
                sum = sum.wrapping_add(u64::from(cell.label.raw()) + cell.neighbors.len() as u64);
            }
        }
        black_box(sum);
    });
    ns / ids.len() as f64
}

/// ns per posting of scanning every label's postings on every machine.
fn postings_scan_ns_per_id(cloud: &MemoryCloud) -> f64 {
    let mut postings = 0u64;
    let ns = fastest_ns(PROBE_REPS, || {
        let mut sum = 0u64;
        postings = 0;
        for m in cloud.machines() {
            for label in 0..cloud.labels().len() as u32 {
                for id in cloud.get_ids(m, LabelId(label)).iter() {
                    sum = sum.wrapping_add(id.raw());
                    postings += 1;
                }
            }
        }
        black_box(sum);
    });
    ns / postings.max(1) as f64
}

/// µs per batched `Load` round trip of [`EXCHANGE_IDS`] ids, machine 0 → 1.
fn load_exchange_us(cloud: &MemoryCloud) -> Result<f64, String> {
    let dst = MachineId(1);
    let ids: Vec<VertexId> = cloud
        .partition(dst)
        .iter_vertices()
        .take(EXCHANGE_IDS)
        .collect();
    let transport = ChannelTransport::new(cloud);
    let mut failed = None;
    let ns = fastest_ns(4 * PROBE_REPS, || {
        let request = Message::LoadRequest {
            ids: ids.clone(),
            with_neighbors: false,
        };
        match transport.exchange(MachineId(0), dst, request) {
            Ok(reply) => {
                black_box(reply.wire_bytes());
            }
            Err(e) => failed = Some(e.to_string()),
        }
    });
    failed.map_or(Ok(ns / 1e3), Err)
}

/// ns per hit of looking every STwig shape of the pool up in a warm cache.
fn cache_lookup_hit_ns(spec: &Spec, cloud: &MemoryCloud, inputs: &Inputs) -> Result<f64, String> {
    let config = spec.match_config();
    let cache = StwigCache::new(cloud, CacheConfig::default());
    let mut shapes = Vec::new();
    for query in &inputs.queries {
        match_query_distributed_with_cache(cloud, query, &config, Some(&cache))
            .map_err(|e| e.to_string())?;
        let plan = plan_query_with_config(cloud, query, &config).map_err(|e| e.to_string())?;
        shapes.extend(
            plan.stwigs
                .iter()
                .map(|s| StwigShape::of(query, s, config.pruning)),
        );
    }
    let mut hits = 0u64;
    let ns = fastest_ns(PROBE_REPS, || {
        hits = 0;
        for shape in &shapes {
            if let CacheLookup::Hit(tables) = cache.lookup(shape, cloud) {
                hits += 1;
                black_box(tables.len());
            }
        }
    });
    Ok(ns / hits.max(1) as f64)
}

/// Hit ratio of one pass on an engine whose cache holds a quarter of what
/// the default engine kept resident.
fn hit_ratio_tight(
    spec: &Spec,
    cloud: &MemoryCloud,
    inputs: &Inputs,
    expected: &[Digest],
    resident: u64,
) -> f64 {
    let budget = CacheConfig::default().with_budget_bytes((resident / 4).max(1) as usize);
    let stage = Stage::new(spec, cloud, spec.engine_config_with_cache(Some(budget)));
    let mut ratio = 0.0;
    // A static engine's first pass fills the cache; the second is measured.
    // A dynamic stage starts every pass cold, as the measured passes do.
    for _ in 0..if spec.churn.is_some() { 1 } else { 2 } {
        stage.pass(|engine, _| {
            let before = engine.cache_stats().unwrap_or_default();
            run_ops(engine, spec, inputs, Some(expected));
            let after = engine.cache_stats().unwrap_or_default();
            let hits = after.hits - before.hits;
            let probes = hits + after.misses - before.misses + after.bypasses - before.bypasses;
            ratio = hits as f64 / probes.max(1) as f64;
        });
    }
    ratio
}

/// ns per `GraphEpochs::pin`.
fn pin_ns(base: &MemoryCloud) -> f64 {
    const PINS: usize = 100_000;
    let epochs = GraphEpochs::new(base.clone());
    fastest_ns(PROBE_REPS, || {
        for _ in 0..PINS {
            black_box(epochs.pin().epoch());
        }
    }) / PINS as f64
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median_of(values.to_vec())
    }
}

/// The whole traced run of one workload. Writes the spans to
/// `benchmark/out/trace_<workload>.json` under the current directory.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    crate::host::pin_to_first_processor();
    let origin = Instant::now();
    let calib_ms = calibrate();
    let graph = GraphInput::generate(spec);
    let (inputs, expected) = prepare(spec, seed, &graph)?;
    println!("sequence_hash {:016x} hash", inputs.sequence_hash);

    let mut values = Values::default();
    let mut trace = Trace::default();
    let mut plain = Estimators::new(&inputs);
    let mut traced = Estimators::new(&inputs);
    let mut tally = Tally::default();
    let mut heap = alloc::HeapCounters::default();
    // Request ids from here on belong to the layer replay.
    let mut first_replay_id = 0;

    let probes: Result<(), String> = set_up(spec, &graph, &inputs, &expected, |stage, timing| {
        let cloud = stage.cloud();
        plain.count_only(&timing.warm);
        values.set("loader.load_s", timing.load_s);
        values.set(
            "loader.edges_per_s",
            cloud.num_edges() as f64 / timing.load_s,
        );
        let bytes = cloud.storage_bytes();
        values.set("storage.adjacency_bytes", bytes.adjacency as f64);
        values.set("storage.postings_bytes", bytes.postings as f64);
        values.set("storage.id_map_bytes", bytes.id_map as f64);
        values.set("storage.signature_bytes", bytes.signatures as f64);

        // Alternate untraced and traced passes until the time is up. Both
        // kinds only stash their log between passes — folding it into spans
        // touches megabytes, and whichever pass came next would start with
        // colder caches than the other kind.
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut logs: Vec<(PassLog, u64)> = Vec::new();
        let mut pass = 0;
        while pass < 6 || Instant::now() < deadline {
            let tracing = pass % 2 == 1;
            stage.pass(|engine, epochs| {
                // A dynamic stage's engine is new each pass; a static one's
                // counters run on from the pass before.
                let cache_mark = engine
                    .cache_stats()
                    .filter(|_| epochs.is_none())
                    .unwrap_or_default();
                let at_ns = ns(origin.elapsed());
                let before = alloc::counters();
                alloc::set_counting(tracing);
                let log = run_ops(engine, spec, &inputs, Some(&expected));
                alloc::set_counting(false);
                if tracing {
                    let after = alloc::counters();
                    heap.allocs += after.allocs - before.allocs;
                    heap.bytes += after.bytes - before.bytes;
                    heap.peak_live = after.peak_live;
                    tally.observe_engine(engine, &cache_mark);
                }
                logs.push((log, at_ns));
            });
            pass += 1;
        }
        for (i, (log, at_ns)) in logs.iter().enumerate() {
            if i % 2 == 0 {
                plain.observe(log);
            } else {
                traced.observe(log);
                tally.observe(&inputs, log);
                record_pass(&mut trace, spec, &inputs, log, (i / 2) as u32, *at_ns);
            }
        }
        drop(logs);
        if spec.churn.is_some() {
            // What the overlays since the last seal cost per edge: one more
            // pass, sized before and after sealing what it left.
            stage.pass(|engine, epochs| {
                run_ops(engine, spec, &inputs, Some(&expected));
                let epochs = epochs.expect("a dynamic stage has an epoch manager");
                let unsealed = crate::e2e::bytes_per_edge(&epochs.pin());
                epochs.seal_epoch();
                tally.unsealed_bytes_per_edge =
                    unsealed - crate::e2e::bytes_per_edge(&epochs.pin());
            });
        }

        // Layer probes on the same cloud.
        first_replay_id = (pass / 2 + 1) * inputs.ops.len() as u32;
        let replay = replay_layers(spec, cloud, &inputs, origin, &mut trace, first_replay_id)?;
        let total = |p: &PositionMin| p.sorted().iter().sum::<f64>();
        let whole = total(&replay.whole);
        values.set("plan.us_p50", percentile(&replay.plan.sorted(), 0.5) / 1e3);
        values.set(
            "explore.ms_p50",
            percentile(&replay.explore.sorted(), 0.5) / 1e6,
        );
        values.set("explore.share", total(&replay.explore) / whole);
        values.set("join.ms_p50", percentile(&replay.join.sorted(), 0.5) / 1e6);
        values.set("join.share", total(&replay.join) / whole);

        let compact_scan = neighbor_scan_ns_per_edge(cloud);
        values.set("storage.neighbor_scan_ns_per_edge", compact_scan);
        values.set("storage.cell_load_ns", cell_load_ns(cloud));
        values.set(
            "storage.postings_scan_ns_per_id",
            postings_scan_ns_per_id(cloud),
        );
        let plain_cloud = graph.build_cloud(StorageTier::Plain);
        values.set(
            "storage.compact_over_plain_scan_ratio",
            compact_scan / neighbor_scan_ns_per_edge(&plain_cloud),
        );
        drop(plain_cloud);

        values.set("transport.load_exchange_us", load_exchange_us(cloud)?);
        values.set(
            "transport.messages_over_direct_ratio",
            replay_under(spec, cloud, &inputs, TransportMode::Messages)?
                / replay_under(spec, cloud, &inputs, TransportMode::DirectRead)?,
        );

        if spec.cache {
            values.set(
                "cache.lookup_hit_ns",
                cache_lookup_hit_ns(spec, cloud, &inputs)?,
            );
            values.set(
                "cache.hit_ratio_tight",
                hit_ratio_tight(spec, cloud, &inputs, &expected, tally.cache.bytes_resident),
            );
        } else {
            values.set("cache.lookup_hit_ns", 0.0);
            values.set("cache.hit_ratio_tight", 0.0);
        }
        values.set(
            "epoch.pin_ns",
            if spec.churn.is_some() {
                pin_ns(cloud)
            } else {
                0.0
            },
        );
        Ok(())
    });
    probes?;

    let per_query = |x: u64| x as f64 / tally.queries.max(1) as f64;
    let m = &tally.metrics;
    values.set(
        "transport.messages_per_query",
        per_query(m.network_messages),
    );
    values.set("transport.bytes_per_query", per_query(m.network_bytes));
    values.set(
        "transport.explore_bytes_per_query",
        per_query(m.phase_traffic.explore_bytes),
    );
    values.set(
        "transport.sync_bytes_per_query",
        per_query(m.phase_traffic.binding_sync_bytes),
    );
    values.set(
        "transport.join_ship_bytes_per_query",
        per_query(m.phase_traffic.join_ship_bytes),
    );
    values.set("transport.retries", m.fault.retries as f64);
    values.set("transport.timeouts", m.fault.timeouts as f64);
    values.set("plan.stwigs_per_query", per_query(m.num_stwigs as u64));
    values.set("explore.roots_scanned", per_query(m.explore.roots_scanned));
    values.set("explore.cells_loaded", per_query(m.explore.cells_loaded));
    values.set("explore.label_probes", per_query(m.explore.label_probes));
    values.set("explore.rows_emitted", per_query(m.explore.rows_emitted));
    values.set(
        "explore.rows_pruned_by_bindings",
        per_query(m.explore.rows_pruned_by_bindings),
    );
    values.set("explore.rounds", per_query(m.explore_rounds));
    values.set(
        "explore.rows_per_cell",
        m.explore.rows_emitted as f64 / m.explore.cells_loaded.max(1) as f64,
    );
    values.set(
        "join.intermediate_rows",
        per_query(m.join.intermediate_rows),
    );
    values.set("join.joins_performed", per_query(m.join.joins_performed));
    values.set(
        "join.rows_pruned_injective",
        per_query(m.join.rows_pruned_injective),
    );
    values.set("join.pipeline_rounds", per_query(m.join.pipeline_rounds));
    values.set(
        "join.useful_ratio",
        m.matches_found as f64 / m.join.intermediate_rows.max(1) as f64,
    );
    values.set("join.peak_table_bytes", tally.peak_table_bytes as f64);

    // Per pass, so that a longer run does not read as more evictions.
    let traced_passes = traced.passes().max(1) as f64;
    let cache = &tally.cache;
    let probes = (cache.hits + cache.misses + cache.bypasses).max(1) as f64;
    values.set("cache.hit_ratio", cache.hits as f64 / probes);
    values.set("cache.bypass_ratio", cache.bypasses as f64 / probes);
    values.set("cache.evictions", cache.evictions as f64 / traced_passes);
    values.set(
        "cache.stale_evictions",
        cache.stale_evictions as f64 / traced_passes,
    );
    values.set("cache.bytes_resident", cache.bytes_resident as f64);

    values.set("serve.submit_us_p50", p50(&tally.submit_us));
    values.set("serve.queue_wait_us_p50", p50(&tally.queue_wait_us));
    values.set("serve.peak_queue_depth", tally.peak_queue_depth as f64);
    values.set("serve.rejected", tally.rejected as f64);
    values.set("serve.shed", tally.shed as f64);
    values.set("engine.overhead_us_p50", p50(&tally.overhead_us));
    values.set("engine.busy_frac", tally.busy_ns / tally.wall_ns.max(1.0));
    values.set("stream.first_row_us_p50", p50(&tally.engine_first_row_us));
    values.set("stream.deliver_us_p50", p50(&tally.deliver_us));
    values.set("stream.rows_per_query", per_query(tally.rows));

    let mut apply_sorted = tally.apply_ms.clone();
    apply_sorted.sort_by(f64::total_cmp);
    let apply = |q: f64| {
        if apply_sorted.is_empty() {
            0.0
        } else {
            percentile(&apply_sorted, q)
        }
    };
    values.set("epoch.apply_ms_p50", apply(0.5));
    values.set("epoch.apply_ms_p95", apply(0.95));
    values.set("epoch.seal_ms_p50", p50(&tally.seal_ms));
    values.set(
        "epoch.batches_applied",
        tally.batches_applied as f64 / traced_passes,
    );
    values.set(
        "epoch.batches_refused",
        tally.batches_refused as f64 / traced_passes,
    );
    values.set(
        "epoch.unsealed_bytes_per_edge",
        tally.unsealed_bytes_per_edge,
    );

    values.set("heap.allocs_per_query", per_query(heap.allocs));
    values.set("heap.alloc_bytes_per_query", per_query(heap.bytes));
    values.set(
        "heap.peak_live_mb",
        heap.peak_live as f64 / (1 << 20) as f64,
    );

    values.set("host.noise_frac", plain.noise_frac());
    values.set("host.calib_ms", calib_ms);
    values.set("host.passes", (plain.passes() + traced.passes()) as f64);
    values.set("host.latency_positions", plain.positions() as f64);
    values.set(
        "trace.overhead_frac",
        1.0 - traced.throughput_qps() / plain.throughput_qps(),
    );
    let summary = trace.summarize();
    let coverage = ["request", "query"]
        .iter()
        .filter_map(|root| summary.coverage(root))
        .fold(1.0, f64::min);
    values.set("trace.coverage_min", coverage);

    let out = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace_{}.json", spec.name));
    // The first traced pass and the last layer replay, with self times; the
    // totals cover every span kept.
    let first_pass = inputs.ops.len() as u32;
    let json = trace.to_json(&summary, spec.name, first_pass, first_replay_id);
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace_file {} path", path.display());

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}
