//! Allocation audits of the two hot paths, on one counting allocator.
//!
//! * Join: with exactly one shared column, `hash_join` must perform **zero
//!   per-row heap allocations** — the key is a bare `u64`, the build index is
//!   a pre-sized chained index, and output rows are built in place. The test
//!   counts allocator calls around a large join and asserts the total stays
//!   far below the row count (only setup costs and the output buffer
//!   remain).
//! * Join output: a materialized pipelined join allocates the table it
//!   returns and O(1) more — no driver-block copy, no table between two
//!   joins — and a round of a streamed one allocates nothing. A whole query
//!   into the executor's table output likewise: its answer table's growth
//!   on top of what the same query costs into a counting closure — no
//!   per-machine joined table, no union.
//! * Exploration: a `Messages`-mode exploration on a warm scratch allocates
//!   its output table and its message payloads, nothing else.
//! * Warm repeat: a query whose STwigs the cache serves allocates the
//!   assembled R_k copies the join reads and O(1) more — no per-table bound
//!   copy, no binding set, and (the index memo being warm too) no index.
//! * Delivery: streaming a warm cache-hit first-1024 answer into a
//!   `ChannelSink` costs the serving thread a few blocks per *batch* on top
//!   of what the same query costs into a counting closure — not one per row.
//!
//! Counters are **per thread**: cargo runs the tests of this file on parallel
//! threads, and a process-global counter would charge each test with its
//! neighbours' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stwig::bindings::Bindings;
use stwig::cache::{CacheConfig, CacheLookup, StwigCache, StwigShape};
use stwig::distributed::{match_query, plan_query, Run};
use stwig::head::load_set;
use stwig::join::{hash_join, PreparedJoin};
use stwig::matcher::match_stwig_batched;
use stwig::metrics::{ExploreCounters, FaultCounters, JoinCounters};
use stwig::pipeline::pipelined_join;
use stwig::query::{QVid, QueryGraph, QueryGraphBuilder};
use stwig::stwig::STwig;
use stwig::table::ResultTable;
use stwig::{ChannelSink, MatchConfig, ResultMode, RowStream};
use trinity_sim::builder::GraphBuilder;
use trinity_sim::ids::VertexId;
use trinity_sim::network::CostModel;
use trinity_sim::transport::ChannelTransport;

struct CountingAllocator;

thread_local! {
    // Const-initialized and without destructors, so touching them from
    // inside the allocator neither allocates nor runs into a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    ALLOCATED_BYTES.with(|b| b.set(b.get() + size as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocator calls the calling thread makes while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((calls, _), result) = allocated_during(f);
    (calls, result)
}

/// Bytes the calling thread requests from the allocator while running `f`.
fn allocated_bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((_, bytes), result) = allocated_during(f);
    (bytes, result)
}

/// Both: `(calls, bytes)`.
fn allocated_during<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (ALLOCATIONS.get(), ALLOCATED_BYTES.get());
    let result = f();
    let after = (ALLOCATIONS.get(), ALLOCATED_BYTES.get());
    ((after.0 - before.0, after.1 - before.1), result)
}

/// `rows`-row tables sharing exactly column 1, joining 1:1.
fn single_key_tables(rows: u64) -> (ResultTable, ResultTable) {
    let mut left = ResultTable::new(vec![QVid(0), QVid(1)]);
    let mut right = ResultTable::new(vec![QVid(1), QVid(2)]);
    for i in 0..rows {
        left.push_row(&[VertexId(i), VertexId(1_000_000 + i)]);
        right.push_row(&[VertexId(1_000_000 + i), VertexId(2_000_000 + i)]);
    }
    (left, right)
}

#[test]
fn single_shared_column_join_does_not_allocate_per_row() {
    const ROWS: u64 = 65_536;
    let (left, right) = single_key_tables(ROWS);
    let mut counters = JoinCounters::default();
    let (allocs, joined) = allocations_during(|| hash_join(&left, &right, None, &mut counters));
    assert_eq!(joined.num_rows() as u64, ROWS);
    // Setup (schema vectors, index map + chain array) and the output buffer,
    // reserved up front; anything per-row would add tens of thousands.
    assert!(
        allocs < 100,
        "expected O(1) + O(log rows) allocations for {ROWS} rows, got {allocs}"
    );
}

#[test]
fn pipelined_join_memory_is_bounded_by_the_block() {
    // §4.2: pipeline memory must stay bounded by the driver block. The
    // regression this pins down: the pipeline used to clone every rest table
    // and rebuild its hash index on every round, which over `rounds` rounds
    // allocates `rounds × |rest|` bytes — here 64 rounds × ~1.5 MB of rest
    // table (plus its rebuilt index) ≈ 200+ MB. With the indexes prepared
    // once outside the block loop, total allocation is one index build plus
    // the output table: a few MB.
    const ROWS: u64 = 65_536;
    let (left, right) = single_key_tables(ROWS);
    let tables = vec![left, right];
    let cfg = MatchConfig {
        block_rows: 1024,
        ..MatchConfig::default()
    };
    let mut counters = JoinCounters::default();
    // The given order keeps the measured figure about the pipeline itself.
    let (bytes, joined) =
        allocated_bytes_during(|| pipelined_join(&tables, &cfg, &[0, 1], &mut counters));
    assert_eq!(joined.num_rows() as u64, ROWS);
    assert_eq!(counters.pipeline_rounds, 64);
    const MB: u64 = 1 << 20;
    assert!(
        bytes < 32 * MB,
        "pipelined join allocated {bytes} bytes over {} rounds — rest tables \
         are being copied or re-indexed per round",
        counters.pipeline_rounds
    );
}

#[test]
fn materialized_join_allocates_its_output_and_little_else() {
    // A three-table `ResultMode::All` join through `pipelined_join` extends
    // one row buffer depth-first and pushes each finished row into the table
    // it returns. Beyond the two build indexes it allocates that table —
    // its geometric growth, under 2x the output's bytes — and a handful of
    // small vectors: no copy of a driver block, no table between the joins
    // (which alone would be three quarters of the output again), nothing
    // per round.
    const ROWS: u64 = 65_536;
    let (left, mid) = single_key_tables(ROWS);
    let mut right = ResultTable::new(vec![QVid(2), QVid(3)]);
    for i in 0..ROWS {
        right.push_row(&[VertexId(2_000_000 + i), VertexId(3_000_000 + i)]);
    }
    let cfg = MatchConfig::default();
    let mut counters = JoinCounters::default();
    let ((index_allocs, index_bytes), _) = allocated_during(|| {
        let first = PreparedJoin::new(left.columns(), &mid, &mut counters);
        let schema = first.output_columns(left.columns());
        (PreparedJoin::new(&schema, &right, &mut counters), first)
    });
    let tables = vec![left, mid, right];
    let mut counters = JoinCounters::default();
    let ((allocs, bytes), joined) =
        allocated_during(|| pipelined_join(&tables, &cfg, &[0, 1, 2], &mut counters));
    assert_eq!(joined.num_rows() as u64, ROWS);
    assert_eq!(
        (counters.pipeline_rounds, counters.joins_performed),
        (16, 32)
    );
    let output = joined.memory_bytes() as u64;
    let beyond = bytes - index_bytes;
    assert!(
        beyond <= 2 * output + 4096,
        "a {output}-byte answer cost {beyond} bytes of allocation beyond the build \
         indexes ({index_bytes}): {:.2}x, limit 2x",
        beyond as f64 / output as f64
    );
    // The output's doublings (16 from one row to 65,536) plus setup.
    assert!(
        allocs - index_allocs <= 32,
        "{} allocations beyond the indexes' {index_allocs} over {} rounds",
        allocs - index_allocs,
        counters.pipeline_rounds
    );
}

#[test]
fn single_table_pipeline_with_limit_copies_at_most_limit_rows() {
    // Regression: the single-table path used to clone the entire driver and
    // then truncate, so a 1M-row table under `FirstK(1)` allocated the full
    // 16 MB buffer for one surviving row. It must now copy at most `limit`
    // rows.
    const ROWS: u64 = 1_000_000;
    let mut table = ResultTable::new(vec![QVid(0), QVid(1)]);
    for i in 0..ROWS {
        table.push_row(&[VertexId(i), VertexId(ROWS + i)]);
    }
    let tables = vec![table];
    let cfg = MatchConfig::default().with_result_mode(stwig::config::ResultMode::FirstK(1));
    let mut counters = JoinCounters::default();
    let (bytes, out) =
        allocated_bytes_during(|| pipelined_join(&tables, &cfg, &[0], &mut counters));
    assert_eq!(out.num_rows(), 1);
    assert!(
        bytes < 64 << 10,
        "single-table FirstK(1) allocated {bytes} bytes — the driver is being \
         cloned wholesale before truncation"
    );
}

#[test]
fn wide_key_fallback_demonstrates_the_counter_works() {
    // Five shared columns exceed the inline-key width and fall back to
    // heap-allocated `Vec` keys — at least one allocation per build and per
    // probe row. This is the contrast proving the counter actually measures
    // the join (and why the fallback is reserved for >4 shared columns).
    const ROWS: u64 = 4_096;
    let cols: Vec<QVid> = (0..5).map(QVid).collect();
    let mut left = ResultTable::new(cols.clone());
    let mut right = ResultTable::new(cols);
    for i in 0..ROWS {
        let row: Vec<VertexId> = (0..5).map(|c| VertexId(i * 8 + c)).collect();
        left.push_row(&row);
        right.push_row(&row);
    }
    let mut counters = JoinCounters::default();
    let (allocs, joined) = allocations_during(|| hash_join(&left, &right, None, &mut counters));
    assert_eq!(joined.num_rows() as u64, ROWS);
    assert!(
        allocs > ROWS,
        "Vec-keyed fallback must allocate per row ({ROWS} rows, {allocs} allocations)"
    );
}

/// 3000 vertices, 3 labels, ~8 pseudo-random edges each, over 4 machines
/// (three quarters of every vertex's neighbors are remote), and the star
/// query a → {b, c} over it with its three query vertices.
fn star_over_random_graph() -> (trinity_sim::MemoryCloud, QueryGraph, [QVid; 3]) {
    let (cloud, [qa, qb, qc], mut builder) = random_graph_and_vertices();
    builder.edge(qa, qb).edge(qa, qc);
    let query = builder.build().unwrap();
    (cloud, query, [qa, qb, qc])
}

/// That graph, and a query builder holding one vertex per label.
fn random_graph_and_vertices() -> (trinity_sim::MemoryCloud, [QVid; 3], QueryGraphBuilder) {
    const N: u64 = 3000;
    let mut b = GraphBuilder::new_undirected();
    for i in 0..N {
        b.add_vertex(VertexId(i), ["a", "b", "c"][(i % 3) as usize]);
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..N {
        for _ in 0..4 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.add_edge(VertexId(i), VertexId((x >> 33) % N));
        }
    }
    let cloud = b.build(4, CostModel::default());
    let mut builder = QueryGraph::builder();
    let qa = builder.vertex_by_name(&cloud, "a").unwrap();
    let qb = builder.vertex_by_name(&cloud, "b").unwrap();
    let qc = builder.vertex_by_name(&cloud, "c").unwrap();
    (cloud, [qa, qb, qc], builder)
}

#[test]
fn warm_exploration_allocates_only_its_table_and_its_messages() {
    // Remote neighbors exercise the frontier, the slot map and every
    // per-owner batch.
    let (cloud, query, [qa, qb, qc]) = star_over_random_graph();
    let stwig = STwig::new(qa, vec![qb, qc]);
    let bindings = Bindings::new(query.num_vertices());
    let config = MatchConfig::default();
    // Several envelopes per owner, so payload allocations are visible.
    let batch_ids = 256;
    let transport = ChannelTransport::new(&cloud);
    let machine = cloud.machines().next().unwrap();
    let roots = cloud.get_ids(machine, query.label(qa)).to_vec();
    let explore = || {
        match_stwig_batched(
            &cloud,
            &transport,
            machine,
            &query,
            &stwig,
            &roots,
            &bindings,
            &config,
            batch_ids,
            None,
            &mut ExploreCounters::default(),
            &mut FaultCounters::default(),
        )
        .unwrap()
    };

    // This test's thread starts with an empty scratch: the first exploration
    // grows it, the second finds it warm.
    let (cold, first) = allocations_during(explore);
    cloud.network().reset();
    let (warm, second) = allocations_during(explore);
    let envelopes = cloud.traffic().total_messages() / 2;
    assert_eq!(first, second);
    assert!(second.num_rows() > 1000, "a table worth growing");
    assert!(envelopes > 3, "more than one envelope per owner");

    // What the output table alone costs: its column vector plus the
    // geometric growth of its row buffer.
    let (table_allocs, _) = allocations_during(|| {
        let mut table = ResultTable::new(second.columns().to_vec());
        second.rows().for_each(|row| table.push_row(row));
        table
    });
    // Each envelope owns two payloads the transport hands over: the request's
    // id vector and the reply's label vector.
    assert_eq!(
        warm,
        table_allocs + 2 * envelopes,
        "a warm exploration must allocate only its table ({table_allocs}) and \
         two payloads per envelope ({envelopes} envelopes); cold run: {cold}"
    );
    assert!(
        cold > warm,
        "the counter sees the scratch grow ({cold} vs {warm})"
    );
}

#[test]
fn channel_delivery_allocates_per_batch_not_per_row() {
    const K: u64 = 1024;
    let (cloud, query, _) = star_over_random_graph();
    let cache = StwigCache::new(&cloud, CacheConfig::default());
    let config = MatchConfig::default()
        .with_num_threads(Some(1))
        .with_result_mode(ResultMode::FirstK(K as usize));
    let run = |sink: &mut dyn stwig::ResultSink| {
        let metrics = match_query(
            &cloud,
            &query,
            &config,
            Run {
                cache: Some(&cache),
                sink: Some(sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(metrics.rows_streamed, K);
    };
    // Populate the cache, then measure warm hits only.
    let mut rows = 0u64;
    run(&mut |_row: &[VertexId]| rows += 1);
    assert_eq!(cache.stats().insertions, 1);
    let (into_closure, ()) = allocations_during(|| run(&mut |_row: &[VertexId]| rows += 1));
    assert_eq!(rows, 2 * K);

    let (tx, rx) = std::sync::mpsc::channel();
    let (into_channel, ()) = allocations_during(|| run(&mut ChannelSink::new(tx)));
    assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));
    let batches = RowStream::new(rx).batches().count() as u64;
    assert!(
        (K / 256..=K / 256 + 2).contains(&batches),
        "{batches} batches"
    );
    // Per batch: its buffer and, now and then, a block of the channel's
    // queue. One `Vec` per row — what this replaced — would be K more.
    assert!(
        into_channel <= into_closure + 64,
        "delivering {K} rows in {batches} batches cost {} allocations more than \
         counting them in a closure ({into_channel} vs {into_closure})",
        into_channel - into_closure.min(into_channel)
    );
}

#[test]
fn table_output_allocates_its_answer_and_no_joined_tables() {
    // The path a – b – c – a' over four machines: every machine joins, so a
    // per-machine joined table plus their union would cost about three times
    // the answer where the table output's own growth costs under two.
    let (cloud, [qa, qb, qc], mut builder) = random_graph_and_vertices();
    let qa2 = builder.vertex_by_name(&cloud, "a").unwrap();
    builder.edge(qa, qb).edge(qb, qc).edge(qc, qa2);
    let query = builder.build().unwrap();
    let cache = StwigCache::new(&cloud, CacheConfig::default());
    let config = MatchConfig::default().with_num_threads(Some(1));
    let into_table = || {
        match_query(
            &cloud,
            &query,
            &config,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap()
    };
    let answer = into_table().table; // populates the cache
    assert!(answer.num_rows() > 10_000, "an answer worth growing");
    let mut rows = 0usize;
    let mut count = |_row: &[VertexId]| rows += 1;
    let ((closure_allocs, closure_bytes), _) = allocated_during(|| {
        let cache = Some(&cache);
        match_query(
            &cloud,
            &query,
            &config,
            Run {
                cache,
                sink: Some(&mut count),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics
    });
    assert_eq!(rows, answer.num_rows());
    let ((allocs, bytes), out) = allocated_during(into_table);
    assert_eq!(out.table, answer);
    // What the answer table alone costs: its column vector plus the
    // geometric growth of its row buffer.
    let ((table_allocs, table_bytes), _) = allocated_during(|| {
        let mut table = ResultTable::new(answer.columns().to_vec());
        answer.rows().for_each(|row| table.push_row(row));
        table
    });
    assert!(
        bytes <= closure_bytes + table_bytes + 4096,
        "a table of {table_bytes} bytes of growth cost {} bytes more than a closure",
        bytes - closure_bytes.min(bytes)
    );
    assert!(
        allocs <= closure_allocs + table_allocs + 8,
        "{allocs} allocations into a table ({table_allocs} its own), {closure_allocs} into a closure"
    );
}

#[test]
fn a_warm_repeat_allocates_its_assembled_tables_and_little_else() {
    // The path a – b – c – a' again: two STwigs or more over four machines,
    // every row of the answer counted by a closure, so there is no output.
    let (cloud, [qa, qb, qc], mut builder) = random_graph_and_vertices();
    let qa2 = builder.vertex_by_name(&cloud, "a").unwrap();
    builder.edge(qa, qb).edge(qb, qc).edge(qc, qa2);
    let query = builder.build().unwrap();
    let cache = StwigCache::new(&cloud, CacheConfig::default());
    let config = MatchConfig::default()
        .with_num_threads(Some(1))
        .with_transport_mode(stwig::TransportMode::DirectRead);
    let mut rows = 0usize;
    let mut run = || {
        let mut count = |_row: &[VertexId]| rows += 1;
        let cache = Some(&cache);
        allocated_during(|| {
            match_query(
                &cloud,
                &query,
                &config,
                Run {
                    cache,
                    sink: Some(&mut count),
                    ..Run::default()
                },
            )
            .unwrap()
            .metrics
        })
    };
    let ((_, cold_bytes), cold) = run();
    let ((allocs, bytes), warm) = run();
    assert!(rows > 20_000 && cold.join.build_rows > 10_000);
    assert_eq!(warm.join.build_rows, 0);
    assert_eq!(warm.phase_traffic.binding_sync_bytes, 0);
    // What the join reads: per machine and STwig, the machine's own served
    // table and its load set's, copied into one table under the query's
    // column names.
    let plan = plan_query(&cloud, &query).unwrap();
    let mut assembled = 0u64;
    for (t, stwig) in plan.stwigs.iter().enumerate() {
        let shape = StwigShape::of(&query, stwig, false);
        let CacheLookup::Hit(entry) = cache.lookup(&shape, &cloud) else {
            panic!("every shape of the plan is resident");
        };
        for k in cloud.machines() {
            let parts = std::iter::once(k).chain(load_set(&plan.cluster, &plan.head, k, t));
            let values = parts.map(|j| entry[j.index()].num_rows() * entry[j.index()].width());
            assembled += (values.sum::<usize>() * std::mem::size_of::<VertexId>()) as u64;
        }
    }
    assert!(assembled > 200_000, "copies worth measuring ({assembled})");
    assert!(
        bytes <= assembled + 16_384,
        "a warm repeat allocated {bytes} bytes for {assembled} bytes of assembled tables"
    );
    // A handful of blocks per (machine, STwig) — the table, its columns, the
    // load set, the join's schema — and none per row.
    let steps = (cloud.num_machines() * plan.stwigs.len()) as u64;
    assert!(allocs <= 20 * steps + 32, "{allocs} allocations");
    // The populating run is the one that paid for the indexes (and for
    // exploring); its tables it moved into the cache.
    let index_bytes = cache.stats().index_bytes;
    assert!(index_bytes > 0);
    assert!(cold_bytes >= bytes + index_bytes);
}

#[test]
fn a_round_of_a_streamed_join_allocates_nothing() {
    // The path a – b – c – a' takes two STwigs, so its warm first-1024 answer
    // goes through the probe chain. With one driver row per round the join
    // runs hundreds of rounds, with 4096 one per machine: the allocator must
    // not see the difference — no per-round table, block copy or schema.
    const K: u64 = 1024;
    let (cloud, [qa, qb, qc], mut builder) = random_graph_and_vertices();
    let qa2 = builder.vertex_by_name(&cloud, "a").unwrap();
    builder.edge(qa, qb).edge(qb, qc).edge(qc, qa2);
    let query = builder.build().unwrap();
    let cache = StwigCache::new(&cloud, CacheConfig::default());
    let run = |block_rows: usize| {
        let config = MatchConfig {
            block_rows,
            ..MatchConfig::default()
                .with_num_threads(Some(1))
                .with_result_mode(ResultMode::FirstK(K as usize))
        };
        let mut rows = 0u64;
        let mut sink = |_row: &[VertexId]| rows += 1;
        let (allocs, metrics) = allocations_during(|| {
            let cache = Some(&cache);
            match_query(
                &cloud,
                &query,
                &config,
                Run {
                    cache,
                    sink: Some(&mut sink),
                    ..Run::default()
                },
            )
            .unwrap()
            .metrics
        });
        assert_eq!((rows, metrics.rows_streamed), (K, K));
        assert!(metrics.join.joins_performed > 0, "a joined answer");
        (allocs, metrics.join.pipeline_rounds)
    };
    run(4096); // populates the cache
    let (few_allocs, few_rounds) = run(4096);
    let (many_allocs, many_rounds) = run(1);
    assert!(
        many_rounds > 100 * few_rounds.max(1),
        "{many_rounds} rounds"
    );
    assert_eq!(
        many_allocs, few_allocs,
        "{many_rounds} rounds against {few_rounds}"
    );
}
