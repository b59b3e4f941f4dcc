//! Distributed, parallel subgraph matching (§4.3).
//!
//! Execution model (one logical *machine* per graph partition):
//!
//! 1. The proxy decomposes the query and orders the STwigs (Algorithm 2),
//!    builds the query-specific cluster graph, selects the head STwig and
//!    computes per-machine load sets (§5.3). This happens once, centrally —
//!    and with a [`StwigCache`], once per query and snapshot epoch: the
//!    cache keeps the plan (see "Served STwigs" below).
//! 2. **Exploration.** Every machine matches each STwig in order with root
//!    candidates restricted to *locally-owned* vertices (`Index.getID` is a
//!    local index). After each STwig, binding sets are synchronized across
//!    machines (a broadcast whose volume is charged to the query's ledger).
//!    Ownership-restricted roots keep per-machine result sets
//!    disjoint by root and make Theorem 4's load sets sound; global binding
//!    synchronization keeps the pruning lossless. This is the substitution we
//!    document in DESIGN.md for the paper's informally-specified binding
//!    exchange.
//! 3. **Join.** Every machine fetches, for each non-head STwig, the partial
//!    results of the machines in its load set (Theorem 4), unions them with
//!    its own, and runs the pipelined join locally. Because head-STwig
//!    results are never fetched remotely and the graph is disjointly
//!    partitioned, per-machine answers are disjoint and the final union needs
//!    no deduplication.
//!
//! **Traffic.** A query charges one ledger of its own ([`Network`]) and
//! nothing else; each charge names its phase where it is made. When the query
//! retires, its metrics read the ledger — priced with the cloud's cost model
//! into the simulated makespan over machines of (measured compute time +
//! simulated communication time) — and the ledger is added to the cloud's
//! aggregate. Per-query traffic is exact whatever runs beside it.
//!
//! **Transport modes.** Under [`TransportMode::DirectRead`] a machine may
//! dereference remote partitions in place (the legacy simulation shortcut;
//! traffic is a per-access estimate). Under [`TransportMode::Messages`] every
//! machine is strictly partition-local: exploration runs frontier/superstep
//! style over a [`trinity_sim::transport::Transport`] (per owner either the
//! child labels' postings or batched projected `Load` requests → owned
//! label replies, whichever side is smaller), binding synchronization posts
//! `BindingDelta` messages, the join phase ships load-set tables as
//! `JoinRows` messages, and single-vertex queries gather postings with
//! `GetIds` exchanges. Result tables and `matches_found` are bit-identical
//! across modes (swept by `tests/parallel_equality.rs` and the VF2
//! differential); only the traffic differs — the envelopes actually sent —
//! and `Messages` performs **zero** direct cross-partition reads.
//!
//! **Threading model.** Logical machines explore in parallel: each
//! machine's exploration step (per STwig) is a work item fanned out over
//! `MatchConfig::num_threads` worker threads via [`std::thread::scope`],
//! with dynamic work-stealing over the machine list. Binding synchronization
//! stays a barrier between STwigs, as the algorithm requires. Per-machine
//! counters and rows are produced thread-locally and merged on the
//! coordinating thread in machine order. The join then runs the machines'
//! load-set joins in machine order on the query's thread, each row delivered
//! as it is joined. Results and metrics totals are therefore identical for
//! every thread count. See DESIGN.md for the full determinism argument.
//!
//! **One executor, two outputs.** Every entry point — this module's
//! [`match_query`] and the engine's `submit` / `submit_streaming` — runs the
//! same function, `execute_query`, which differs only in where rows go: a
//! table it fills and hands back, or the caller's
//! [`crate::stream::ResultSink`]. Everywhere, rows are in **canonical column
//! order** (query vertices ascending) whichever machine produced them and
//! whatever join order it chose, and `FirstK(k)` / `Exists` mean the
//! **slab-bounded early stop**: k genuine embeddings, not a prefix of the
//! full enumeration. A request's [`QueryOptions::result_mode`] overrides the
//! config's, in that one function.
//!
//! **Served STwigs.** With a [`StwigCache`], an STwig the cache serves — a
//! hit, a repair, or the populate a miss performs — skips step 2 whole: its
//! complete unbound tables enter the join shared, with no binding filter,
//! row cap or synchronization, and the index the join builds over them is
//! kept beside them in the cache entry for the next query
//! ([`crate::cache`], "What a served STwig contributes" and "The join-index
//! memo"). Binding sets are folded lazily: only when a later STwig of the
//! query has to explore are the served tables before it run through the
//! binding filter and synchronized, so that STwig is pruned exactly as
//! without a cache. The answer is the cache-free executor's — the same row
//! set under `All`, `k` distinct valid embeddings under `FirstK(k)`, the
//! same rows every time at one cache state — but not its choice of
//! witnesses or its row order. The cache also keeps the query's plan, made
//! once per snapshot epoch, and each machine's join order over served
//! tables, selected once per set of entries ([`crate::cache`], "The plan
//! and join-order memo"): a warm request neither plans nor selects, and
//! runs exactly the plan and orders it would have computed.
//!
//! **The phases on their own.** The repo benchmark times exploration and
//! the join separately through the hidden `compat` module, whose wrappers call
//! `produce_stwig_tables` (exploration with binding synchronization into a
//! [`StwigTableSet`]) and `join_stwig_tables` (the executor's join pass over
//! one, into a table).

use crate::bindings::Bindings;
use crate::cache::{
    canonicalize_table, splice_roots, CacheLookup, CachedStwig, CachedTables, PlanMemo, RkMemo,
    StwigCache, StwigShape,
};
use crate::config::{MatchConfig, TransportMode};
use crate::decompose::decompose_ordered;
use crate::error::StwigError;
use crate::hash::VertexSet;
use crate::head::{load_set, select_head, HeadSelection};
use crate::matcher::{explore, Mode, Resolution, SharedPostings};
use crate::metrics::{
    ExploreCounters, FaultCounters, JoinCounters, MachineMetrics, PhaseTraffic, QueryMetrics,
    QueryOutcome,
};
use crate::pipeline::{join_order, pipelined_join_streaming, RoundSink};
use crate::query::{QVid, QueryGraph};
use crate::retry::{degraded_loss, fetch_postings, Faults};
use crate::stream::{Interrupt, QueryControl, QueryOptions, ResultSink};
use crate::stwig::STwig;
use crate::table::ResultTable;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trinity_sim::cluster_graph::ClusterGraph;
use trinity_sim::fault::FaultyTransport;
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::network::{Network, Phase};
use trinity_sim::transport::{ChannelTransport, Message, Transport, TransportError};
use trinity_sim::MemoryCloud;

/// Runs `work` once per index in `0..num_items`, fanning the items out over
/// `threads` worker threads with dynamic work-stealing (an atomic cursor over
/// the item list, so unevenly-sized items balance). Results are returned in
/// item order regardless of scheduling, which is what lets callers merge
/// them deterministically. `threads <= 1` runs inline on the calling thread —
/// the exact serial execution.
///
/// Used at machine granularity by this module and at query granularity by
/// the [`crate::engine::QueryEngine`] worker pool.
///
/// A panic on any worker propagates to the caller.
pub(crate) fn run_work_stealing<R, F>(num_items: usize, threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || num_items <= 1 {
        return (0..num_items).map(work).collect();
    }
    let workers = threads.min(num_items);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(num_items);
    slots.resize_with(num_items, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let work = &work;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= num_items {
                            break;
                        }
                        done.push((i, work(i)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index was processed"))
        .collect()
}

/// Maximum vertex ids per batched `Load` request envelope under
/// [`TransportMode::Messages`]: a destination's frontier larger than this is
/// split into several envelopes. Moves message counts, never results.
pub const LOAD_BATCH_IDS: usize = 4096;

/// How one phase of a query reaches the other machines, charging the
/// query's ledger: a transport stack under `Messages` (its envelopes charge
/// themselves), the ledger alone under `DirectRead`.
pub(crate) struct Link<'c> {
    ledger: &'c Network,
    stack: Option<Stack<'c>>,
}

/// The transport stack of `Messages` mode: a [`ChannelTransport`] charging
/// the query's ledger, wrapped in a [`FaultyTransport`] when the request
/// armed [`Faults`]. The wrapper is an enum rather than a boxed trait object
/// so the fault-free path stays allocation-free.
enum Stack<'c> {
    /// Fault-free mailboxes.
    Plain(ChannelTransport<'c>),
    /// Seeded fault injection around the mailboxes (boxed: the fault
    /// machinery dwarfs the plain variant, and this path already pays for
    /// injected delays).
    Faulty(Box<FaultyTransport<ChannelTransport<'c>>>),
}

impl<'c> Link<'c> {
    /// The link of `config`'s transport mode, injecting `faults` under
    /// `Messages`. Every entry point has refused faults on a `DirectRead`
    /// query ([`check_faults`]).
    pub(crate) fn new(
        cloud: &'c MemoryCloud,
        ledger: &'c Network,
        config: &MatchConfig,
        faults: Option<&Faults>,
    ) -> Self {
        let stack = (config.transport_mode == TransportMode::Messages).then(|| {
            let tp = ChannelTransport::new(cloud).with_ledger(ledger);
            match faults {
                Some(faults) => {
                    Stack::Faulty(Box::new(FaultyTransport::new(tp, faults.plan.clone())))
                }
                None => Stack::Plain(tp),
            }
        });
        Link { ledger, stack }
    }

    /// The transport of `Messages` mode; `None` under `DirectRead`.
    fn transport(&self) -> Option<&dyn Transport> {
        match self.stack.as_ref()? {
            Stack::Plain(tp) => Some(tp),
            Stack::Faulty(tp) => Some(&**tp),
        }
    }

    /// Drain-side duplicate deliveries suppressed so far (exactly-once
    /// accounting, harvested into `QueryMetrics::fault` per phase).
    fn duplicates_suppressed(&self) -> u64 {
        match &self.stack {
            Some(Stack::Plain(tp)) => tp.duplicates_suppressed(),
            Some(Stack::Faulty(tp)) => tp.inner().duplicates_suppressed(),
            None => 0,
        }
    }
}

/// Per-machine output of one exploration step.
struct MachineExplore {
    table: ResultTable,
    work: MachineWork,
}

/// What one machine spent on one exploration step.
#[derive(Default)]
struct MachineWork {
    counters: ExploreCounters,
    faults: FaultCounters,
    resolution: Resolution,
    compute_us: f64,
}

impl MachineWork {
    /// Adds the step to the query's totals and the machine's.
    fn merge_into(&self, metrics: &mut QueryMetrics, machine: &mut MachineMetrics) {
        metrics.explore.merge(&self.counters);
        metrics.fault.merge(&self.faults);
        metrics.explore_from_postings += u64::from(self.resolution.from_postings);
        metrics.explore_by_probing += u64::from(!self.resolution.from_postings);
        metrics.explore_postings_entries += self.resolution.postings_entries;
        machine.compute_us += self.compute_us;
    }
}

/// The centrally-computed query plan broadcast to every machine.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Ordered STwig decomposition (Algorithm 2).
    pub stwigs: Vec<STwig>,
    /// The query-specific cluster graph.
    pub cluster: ClusterGraph,
    /// Head STwig selection and root distances.
    pub head: HeadSelection,
}

/// Builds the query plan: decomposition + ordering by f-values
/// (`deg(v) / freq(label(v))`, Algorithm 2), cluster graph, head STwig and
/// the data needed for load sets.
pub fn plan_query(cloud: &MemoryCloud, query: &QueryGraph) -> Result<QueryPlan, StwigError> {
    let stwigs = decompose_ordered(query, cloud)?;
    let cluster = ClusterGraph::build(cloud.catalog(), &query.label_edges());
    if stwigs.is_empty() {
        return Err(StwigError::Internal(
            "plan_query requires a query with at least one edge".into(),
        ));
    }
    let head = select_head(query, &stwigs, &cluster);
    Ok(QueryPlan {
        stwigs,
        cluster,
        head,
    })
}

/// The output of a query execution: the embeddings and the metrics collected
/// along the way.
#[derive(Debug, Clone)]
pub struct MatchOutput {
    /// One row per embedding; columns are the query's vertices, ascending.
    pub table: ResultTable,
    /// Execution statistics.
    pub metrics: QueryMetrics,
}

impl MatchOutput {
    /// Number of embeddings found.
    pub fn num_matches(&self) -> usize {
        self.table.num_rows()
    }
}

/// One request to [`match_query`]: what it may reuse, how it runs, and
/// where its rows go. `Run::default()` is a plain query: no cache, no
/// options, rows into the returned table.
#[derive(Default)]
pub struct Run<'a> {
    /// A cross-query [`StwigCache`] to consult and fill. The answer is the
    /// cache-free one — the same row set, or under a result limit `k`
    /// distinct valid embeddings — and the same table every time at the
    /// same cache state; a served STwig joins as its complete table, so the
    /// row order and the choice of witnesses are not the cache-free run's
    /// (see the module docs, "Served STwigs").
    pub cache: Option<&'a StwigCache<'a>>,
    /// Deadline, cancellation, the request's result mode (overriding
    /// `MatchConfig::result_mode`) and its fault stack
    /// ([`QueryOptions::faults`]).
    pub options: QueryOptions,
    /// Where rows go as they are produced; `None` collects them into
    /// [`MatchOutput::table`].
    pub sink: Option<&'a mut dyn ResultSink>,
}

/// Runs a subgraph query with every logical machine participating, as in
/// §4.3: the per-machine answers (disjoint by construction) in canonical
/// column order, plus per-machine metrics and the simulated makespan. A
/// cloud of one partition is the paper's "cluster of size 1".
///
/// With a sink, rows go to it and [`MatchOutput::table`] is the empty table
/// in canonical columns; `metrics.rows_streamed` counts the rows the sink
/// took.
pub fn match_query(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    run: Run<'_>,
) -> Result<MatchOutput, StwigError> {
    let Run {
        cache,
        options,
        sink,
    } = run;
    let (table, metrics) = execute_query(cloud, query, config, &options, cache, sink)?;
    let table = table.unwrap_or_else(|| ResultTable::new(query.vertices().collect()));
    Ok(MatchOutput { table, metrics })
}

/// The per-machine STwig result tables of the exploration phase: G_k(q_t),
/// machine `k`'s matches of STwig `t`, for every STwig the phase completed
/// (in plan order). An explored STwig's tables are the query's own, under
/// its column names; one the cache served lends the cache's complete unbound
/// tables — shared, under the cache's positional column names (column `i` is
/// the `i`-th of the STwig's `vertices()`), with the entry's join-index memo
/// riding along for the join phase.
#[derive(Debug, Clone)]
pub struct StwigTableSet {
    stwigs: Vec<StwigTables>,
}

/// One STwig's tables, one per machine.
#[derive(Debug, Clone)]
enum StwigTables {
    /// Exploration output under the bindings and row cap of the moment.
    Explored(Vec<ResultTable>),
    /// A cache entry (see [`crate::cache`], "What a served STwig
    /// contributes").
    Served(CachedTables),
}

impl StwigTables {
    fn table(&self, machine: usize) -> &ResultTable {
        match self {
            StwigTables::Explored(tables) => &tables[machine],
            StwigTables::Served(entry) => &entry[machine],
        }
    }

    /// The query's own tables; `None` for ones the cache lends.
    fn explored(&self) -> Option<&[ResultTable]> {
        match self {
            StwigTables::Explored(tables) => Some(tables),
            StwigTables::Served(_) => None,
        }
    }
}

impl StwigTableSet {
    /// How many STwigs (a prefix of the plan's) the set holds tables for.
    pub fn num_stwigs(&self) -> usize {
        self.stwigs.len()
    }

    /// G_k(q_t): the rows `machine` contributes for STwig `stwig`.
    pub fn table(&self, machine: usize, stwig: usize) -> &ResultTable {
        self.stwigs[stwig].table(machine)
    }

    /// The cache entry STwig `stwig`'s tables are lent from, if any.
    fn served(&self, stwig: usize) -> Option<&CachedStwig> {
        match &self.stwigs[stwig] {
            StwigTables::Served(entry) => Some(entry),
            StwigTables::Explored(_) => None,
        }
    }

    /// Every table exploration produced for this query — the ones its row
    /// cap bounds and the query holds; a served table is complete and lent.
    fn explored(&self) -> impl Iterator<Item = &ResultTable> {
        (self.stwigs.iter())
            .filter_map(StwigTables::explored)
            .flatten()
    }
}

/// The bit of query vertex `v` in a vertex mask
/// ([`crate::query::MAX_QUERY_VERTICES`] is 64).
fn vertex_bit(v: QVid) -> u64 {
    1 << v.0
}

/// The vertices of `stwig` as a mask.
fn vertex_mask(stwig: &STwig) -> u64 {
    stwig.vertices().map(vertex_bit).fold(0, |m, b| m | b)
}

/// Phase 1 of the distributed execution: every machine matches every STwig
/// in plan order with binding synchronization between STwigs (§4.2/§4.3),
/// optionally consulting a cross-query [`StwigCache`].
///
/// Returns `Ok(None)` when some STwig matched nowhere, which proves the
/// query has no answer (exploration counters and the partial `stwig_rows`
/// are still recorded in `metrics`) — **unless** a `control` interrupt is
/// pending, in which case an empty table may simply mean exploration was
/// cut short; the executor checks `control` before trusting the `None`.
///
/// `control` is the per-query deadline/cancellation handle: it is checked at
/// every superstep flush inside exploration and at every STwig barrier, and
/// a pending interrupt makes this phase return early with whatever tables it
/// completed. `None` never interrupts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn produce_stwig_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    config: &MatchConfig,
    cache: Option<&StwigCache>,
    control: Option<&QueryControl>,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<Option<StwigTableSet>, StwigError> {
    check_cache(cloud, cache)?;
    check_faults(config, control)?;
    let ledger = Network::new(cloud.num_machines());
    // No slab: the config's own row cap bounds exploration.
    let (tables, answerable) = produce_tables(
        cloud,
        query,
        plan,
        config,
        config.max_stwig_rows,
        cache,
        control,
        &ledger,
        metrics,
        machine_metrics,
    )?;
    retire(cloud, &ledger, metrics);
    Ok(answerable.then_some(tables))
}

/// The fault guard: [`Faults`] need a transport to inject them into, and only
/// `Messages` has one. Every public entry point that takes a request's
/// control checks it before any work, so a fault run never silently runs
/// fault-free.
fn check_faults(config: &MatchConfig, control: Option<&QueryControl>) -> Result<(), StwigError> {
    let armed = control.is_some_and(|c| c.faults().is_some());
    if armed && config.transport_mode != TransportMode::Messages {
        return Err(StwigError::FaultsNeedMessages);
    }
    Ok(())
}

/// The cache/cloud guard, lest a foreign cache serve another cloud's tables
/// or plans. Every executor path that takes a cache checks it first.
fn check_cache(cloud: &MemoryCloud, cache: Option<&StwigCache>) -> Result<(), StwigError> {
    if cache.is_some_and(|cache| !cache.matches_cloud(cloud)) {
        return Err(StwigError::Internal(
            "STwig cache was built for a different memory cloud".into(),
        ));
    }
    Ok(())
}

/// [`produce_stwig_tables`] with the exploration row cap of the round
/// (`explore_cap`: the first-k slab, never above the user's cap) travelling
/// beside `config`, whose `max_stwig_rows` stays the user's — the bound on
/// what the cache may serve. Returns the tables of the STwigs it completed
/// and whether the query can still have an answer (`false`: the last of
/// them matched nowhere). Every charge goes to `ledger`. The caller has
/// passed `cache` through [`check_cache`].
#[allow(clippy::too_many_arguments)]
fn produce_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    config: &MatchConfig,
    explore_cap: Option<usize>,
    cache: Option<&StwigCache>,
    control: Option<&QueryControl>,
    ledger: &Network,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<(StwigTableSet, bool), StwigError> {
    let threads = config.resolved_num_threads();
    // In `Messages` mode all exploration-phase communication — batched cell
    // loads and binding deltas — travels over this link's transport;
    // machines never dereference each other's partitions.
    let link = &Link::new(
        cloud,
        ledger,
        config,
        control.and_then(QueryControl::faults),
    );
    let mut set = StwigTableSet {
        stwigs: Vec::with_capacity(plan.stwigs.len()),
    };
    let mut bindings = Bindings::new(query.num_vertices());
    // Counters accumulate into `metrics` (the executor calls this once per
    // slab round); the per-STwig row totals describe this call alone.
    metrics.stwig_rows.clear();

    // A binding set is only ever read while exploring a *later* STwig, so
    // vertices that never appear again need no set built (and no broadcast):
    // `needed_after[t]` is the union of the vertices of stwigs t+1.. — for
    // the last STwig the whole synchronization barrier is skipped.
    let mut needed_after = vec![0u64; plan.stwigs.len()];
    for t in (1..plan.stwigs.len()).rev() {
        needed_after[t - 1] = needed_after[t] | vertex_mask(&plan.stwigs[t]);
    }
    // STwigs `..synced` have had their columns folded into `bindings`. An
    // explored table is synchronized at once, as the algorithm has it; a
    // served one waits until a later STwig has to explore (if one ever
    // does) — see `crate::cache`, "What a served STwig contributes".
    let mut synced = 0usize;
    // The config exploration runs under, made when a first STwig explores.
    let mut explore_cfg: Option<MatchConfig> = None;

    // The vertices of the STwigs before the current one.
    let mut earlier = 0u64;

    let mut answerable = true;
    for (t, stwig) in plan.stwigs.iter().enumerate() {
        // Cooperative check at the STwig barrier: an interrupted query stops
        // producing tables (the caller decides what to do with the partial
        // set).
        if control.is_some_and(QueryControl::interrupted) {
            break;
        }
        // Every machine produces this STwig's table in parallel — from the
        // cache when one is supplied and can serve the shape, by exploration
        // against the bindings of the STwigs before it otherwise; counters
        // and tables come back thread-locally and are merged in machine
        // order.
        let via_cache = match cache {
            Some(cache) => {
                explore_via_cache(cloud, link, query, stwig, config, cache, control, threads)?
            }
            None => ViaCache::Unserved,
        };
        let tables = match via_cache {
            ViaCache::Served(entry, work) => {
                for (mm, work) in machine_metrics.iter_mut().zip(&work) {
                    work.merge_into(metrics, mm);
                }
                StwigTables::Served(entry)
            }
            unserved => {
                // A populate that hit its row cap stands in for bound
                // exploration when nothing would distinguish the two: no
                // earlier STwig binds one of this one's vertices, and the
                // caps agree.
                let unbound_is_bound = (!config.use_bindings || earlier & vertex_mask(stwig) == 0)
                    && cache.is_some_and(|c| c.populate_row_cap() == explore_cap);
                let results = match unserved {
                    ViaCache::Capped(results) if unbound_is_bound => results,
                    _ => {
                        // Fold in the served tables still waiting, in plan
                        // order, then explore under the bindings.
                        let waiting = (plan.stwigs[synced..t].iter())
                            .zip(&needed_after[synced..t])
                            .zip(&set.stwigs[synced..t]);
                        for ((served, &needed), tables) in waiting {
                            sync_bindings(
                                cloud,
                                link,
                                served,
                                needed,
                                tables,
                                config,
                                &mut bindings,
                            )?;
                        }
                        let explore_cfg = explore_cfg.get_or_insert_with(|| MatchConfig {
                            max_stwig_rows: explore_cap,
                            ..config.clone()
                        });
                        explore_bound(
                            cloud,
                            link,
                            query,
                            stwig,
                            &bindings,
                            explore_cfg,
                            control,
                            threads,
                        )?
                    }
                };
                let mut tables = Vec::with_capacity(results.len());
                for (mm, result) in machine_metrics.iter_mut().zip(results) {
                    result.work.merge_into(metrics, mm);
                    tables.push(result.table);
                }
                let tables = StwigTables::Explored(tables);
                // Synchronize bindings (barrier): the global binding of each
                // STwig vertex that a later STwig will read is the union of
                // what every machine discovered, intersected (by `bind`)
                // with what previous STwigs already established for shared
                // vertices.
                sync_bindings(
                    cloud,
                    link,
                    stwig,
                    needed_after[t],
                    &tables,
                    config,
                    &mut bindings,
                )?;
                synced = t + 1;
                tables
            }
        };
        let mut total_rows = 0u64;
        for (k, mm) in machine_metrics.iter_mut().enumerate() {
            let rows = tables.table(k).num_rows() as u64;
            mm.rows_produced += rows;
            total_rows += rows;
        }
        metrics.stwig_rows.push(total_rows);
        set.stwigs.push(tables);
        earlier |= vertex_mask(stwig);
        // What the query holds of its own: explored tables, not lent ones.
        let resident: u64 = set.explored().map(|t| t.memory_bytes() as u64).sum();
        metrics.peak_table_bytes = metrics.peak_table_bytes.max(resident);
        if total_rows == 0 {
            // No machine found a match for this STwig: the query has no answer.
            answerable = false;
            break;
        }
    }
    metrics.fault.duplicates_suppressed += link.duplicates_suppressed();
    Ok((set, answerable))
}

/// Binding synchronization for one STwig's per-machine `tables`: each of its
/// vertices a later STwig reads (`needed`, a vertex mask) is bound to the
/// union over machines of the column's values, and the broadcast that makes
/// every machine's view that union is charged to the query's ledger.
///
/// A served table is the *unbound* one, so only its rows the bindings so far
/// admit take part — the rows bound exploration would have emitted; an
/// explored table holds nothing else.
fn sync_bindings(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    stwig: &STwig,
    needed: u64,
    tables: &StwigTables,
    config: &MatchConfig,
    bindings: &mut Bindings,
) -> Result<(), StwigError> {
    if !config.use_bindings {
        return Ok(());
    }
    // (vertex, column, the set it will be bound to) of every synchronized
    // column, by ascending vertex.
    let mut synced_cols: Vec<(QVid, usize, VertexSet)> = (stwig.vertices().enumerate())
        .filter(|&(_, v)| needed & vertex_bit(v) != 0)
        .map(|(ci, v)| (v, ci, VertexSet::default()))
        .collect();
    if synced_cols.is_empty() {
        return Ok(());
    }
    synced_cols.sort_unstable_by_key(|&(v, ..)| v);
    // The binding filter of a served table: a set probe per bound column.
    // `None`: every row takes part, and the column scans keep their exact
    // size hints.
    let admit: Option<Vec<Option<&VertexSet>>> = match tables {
        StwigTables::Served(_) => Some(stwig.vertices().map(|v| bindings.get(v)).collect()),
        StwigTables::Explored(_) => None,
    }
    .filter(|sets: &Vec<_>| sets.iter().any(Option::is_some));
    fn admitted<'a>(
        table: &'a ResultTable,
        sets: &'a [Option<&VertexSet>],
    ) -> impl Iterator<Item = &'a [VertexId]> {
        (table.rows()).filter(move |row| {
            (sets.iter().zip(*row)).all(|(set, v)| set.is_none_or(|s| s.contains(v)))
        })
    }
    // Adds column `ci` of `table`'s admitted rows to `set`.
    let extend = |set: &mut VertexSet, table: &ResultTable, ci: usize| match &admit {
        None => set.extend(table.rows().map(|row| row[ci])),
        Some(sets) => set.extend(admitted(table, sets).map(|row| row[ci])),
    };
    let num_machines = cloud.num_machines();
    match link.transport() {
        // `Messages`: every machine posts one `BindingDelta` — its
        // *distinct* newly-discovered values per synced column — to
        // every other machine, and the union is assembled from
        // machine 0's view (its own delta plus its inbox). Every
        // machine's view is the same union; building it once keeps
        // the in-process run cheap without changing what traveled.
        Some(tp) => {
            let deltas: Vec<Vec<(u16, Vec<VertexId>)>> = (0..num_machines)
                .map(|k| {
                    let table = tables.table(k);
                    synced_cols
                        .iter()
                        .map(|&(col, ci, _)| {
                            let mut distinct = VertexSet::default();
                            extend(&mut distinct, table, ci);
                            let mut vals: Vec<VertexId> = distinct.into_iter().collect();
                            // Sorted payloads make the envelope
                            // deterministic byte for byte.
                            vals.sort_unstable();
                            (col.0, vals)
                        })
                        .collect()
                })
                .collect();
            for (k, cols) in deltas.iter().enumerate() {
                for j in cloud.machines() {
                    if j.index() != k {
                        tp.post(
                            MachineId(k as u16),
                            j,
                            Message::BindingDelta { cols: cols.clone() },
                        );
                    }
                }
            }
            // Drain every mailbox (each machine consumes its inbox);
            // machine 0's is the one we materialize the union from.
            // The union is a set, so fault-injected reordering of
            // the deltas cannot change it; duplicates were already
            // suppressed by the drain-side dedup.
            let inboxes: Vec<Vec<trinity_sim::transport::Envelope>> =
                cloud.machines().map(|m| tp.drain(m)).collect();
            let columns = synced_cols.len();
            for (ci, (.., set)) in synced_cols.iter_mut().enumerate() {
                set.extend(deltas[0][ci].1.iter().copied());
                for env in &inboxes[0] {
                    let msg = &env.msg;
                    let Message::BindingDelta { cols } = msg else {
                        // A malformed peer degrades this query only.
                        return Err(StwigError::Transport(TransportError::UnexpectedMessage {
                            phase: "binding sync",
                            got: msg.kind(),
                        }));
                    };
                    let Some((_, vals)) = cols.get(ci) else {
                        return Err(StwigError::Transport(TransportError::MalformedPayload {
                            detail: format!(
                                "binding delta carries {} columns, expected {columns}",
                                cols.len()
                            ),
                        }));
                    };
                    set.extend(vals.iter().copied());
                }
            }
        }
        // `DirectRead`: fill the union set per vertex directly,
        // machine by machine in machine order, and charge the
        // broadcast as a per-entry estimate (each machine ships its
        // newly-discovered entries to every other machine).
        None => {
            for (_, ci, set) in &mut synced_cols {
                for k in 0..num_machines {
                    extend(set, tables.table(k), *ci);
                }
            }
            for k in 0..num_machines {
                let table = tables.table(k);
                let rows = match &admit {
                    None => table.num_rows(),
                    Some(sets) => admitted(table, sets).count(),
                };
                let entries = rows as u64 * synced_cols.len() as u64;
                for j in cloud.machines() {
                    if j.index() != k {
                        link.ledger
                            .ship_rows(MachineId(k as u16), j, entries, 1, Phase::Sync);
                    }
                }
            }
        }
    }
    for (col, _, set) in synced_cols {
        bindings.bind(col, set);
    }
    Ok(())
}

/// One machine's exploration of one STwig over `roots`, dispatched on the
/// transport mode: partition-local batched matching over the transport when
/// one is in play, the direct-read matcher — over the STwig's `shared`
/// postings — otherwise. Both emit bit-identical tables and counters. Only
/// the transport path can fail (protocol violations). `started` is when the
/// caller began collecting `roots`, so `compute_us` covers that too.
#[allow(clippy::too_many_arguments)]
fn explore_machine(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    k: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    roots: &[VertexId],
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    shared: &SharedPostings,
    started: Instant,
) -> Result<MachineExplore, StwigError> {
    let mut work = MachineWork::default();
    let mode = match link.transport() {
        Some(tp) => Mode::Messages(tp, &mut work.faults, LOAD_BATCH_IDS),
        None => Mode::InPlace(shared, link.ledger),
    };
    let counters = &mut work.counters;
    let (table, resolution) = explore(
        cloud, mode, k, query, stwig, roots, bindings, config, control, counters,
    )?;
    work.resolution = resolution;
    work.compute_us = started.elapsed().as_secs_f64() * 1e6;
    Ok(MachineExplore { table, work })
}

/// One STwig's per-machine tables by bound exploration: every machine
/// matches it from its own roots under `bindings` and `config`'s row cap.
#[allow(clippy::too_many_arguments)]
fn explore_bound(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    query: &QueryGraph,
    stwig: &STwig,
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    threads: usize,
) -> Result<Vec<MachineExplore>, StwigError> {
    let shared = SharedPostings::new();
    collect_explore_results(
        run_work_stealing(cloud.num_machines(), threads, |ki| {
            let k = MachineId(ki as u16);
            let t0 = Instant::now();
            let roots = local_roots(cloud, k, query, stwig, bindings, config);
            explore_machine(
                cloud, link, k, query, stwig, &roots, bindings, config, control, &shared, t0,
            )
        }),
        stwig,
        control,
    )
}

/// What asking the cache for one STwig came to.
enum ViaCache {
    /// The entry whose complete tables stand for the STwig's (resident, just
    /// inserted, or — degraded — shared for this query only), and what
    /// populating or repairing it cost each machine (nothing on a hit).
    Served(CachedTables, Vec<MachineWork>),
    /// A populate that reached its row cap (the shape is tombstoned): the
    /// capped unbound tables — bound exploration's own output when nothing
    /// binds the STwig and the two row caps agree.
    Capped(Vec<MachineExplore>),
    /// The STwig must be explored under the bindings.
    Unserved,
}

/// One STwig by way of the cache: the resident entry on a hit; on a miss or
/// a repair, the entry made of unbound exploration and inserted for the next
/// query. A miss explores every local root into an empty table; a repair
/// explores only the touched roots and splices their rows into the resident
/// tables — one path, a populate being the repair of nothing — and all three
/// serve the same tables. [`ViaCache::Unserved`] hands the STwig back to
/// bound exploration: its children are not in the planner's canonical order
/// (a hand-built STwig — the cache is not even probed), the shape is
/// uncacheable (tombstoned before, or found too large just now), some table
/// exceeds the user's row cap (`config`'s), a repair grew past the populate
/// row cap, or the run hit an interrupt.
#[allow(clippy::too_many_arguments)]
fn explore_via_cache(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    query: &QueryGraph,
    stwig: &STwig,
    config: &MatchConfig,
    cache: &StwigCache,
    control: Option<&QueryControl>,
    threads: usize,
) -> Result<ViaCache, StwigError> {
    if !stwig.has_canonical_children(query) {
        return Ok(ViaCache::Unserved);
    }
    // A table the user's row cap would have cut is not served whole.
    let within_user_cap = |entry: &CachedStwig| {
        (config.max_stwig_rows).is_none_or(|cap| entry.iter().all(|t| t.num_rows() <= cap))
    };
    let num_machines = cloud.num_machines();
    let shape = StwigShape::of(query, stwig, false);
    // On a repair: the resident tables and, per machine, the touched roots
    // it owns (ascending, like the log's answer).
    let stale = match cache.lookup(&shape, cloud) {
        CacheLookup::Hit(entry) if within_user_cap(&entry) => {
            return Ok(ViaCache::Served(entry, Vec::new()));
        }
        CacheLookup::Hit(_) | CacheLookup::Bypass => return Ok(ViaCache::Unserved),
        CacheLookup::Miss => None,
        CacheLookup::Repair { tables, touched } => {
            let mut owned = vec![Vec::new(); num_machines];
            for root in touched {
                owned[cloud.machine_of(root).index()].push(root);
            }
            Some((tables, owned))
        }
    };
    // Explore unbound and untruncated (up to the populate row cap), so the
    // result is reusable under any binding context.
    let root_label = query.label(stwig.root);
    let populate_cfg = MatchConfig {
        max_stwig_rows: cache.populate_row_cap(),
        ..config.clone()
    };
    let unbound_bindings = Bindings::new(query.num_vertices());
    let shared = SharedPostings::new();
    let unbound = collect_explore_results(
        run_work_stealing(num_machines, threads, |ki| {
            let k = MachineId(ki as u16);
            let t0 = Instant::now();
            let roots: Vec<VertexId> = match &stale {
                None => cloud.get_ids(k, root_label).to_vec(),
                // A touched root that was removed or relabelled away has no
                // rows left; its old ones go in the splice.
                Some((_, owned)) => owned[ki]
                    .iter()
                    .copied()
                    .filter(|&root| cloud.label_of_local(k, root) == Some(root_label))
                    .collect(),
            };
            explore_machine(
                cloud,
                link,
                k,
                query,
                stwig,
                &roots,
                &unbound_bindings,
                &populate_cfg,
                control,
                &shared,
                t0,
            )
        }),
        stwig,
        control,
    )?;
    // An interrupted run may hold truncated tables; do not let them into the
    // cache or stand in for bound exploration — which the interrupt will
    // also cut short, letting the caller abort.
    if control.is_some_and(QueryControl::interrupted) {
        return Ok(ViaCache::Unserved);
    }
    // A run that lost a machine holds *degraded* tables — sound for this
    // query under `Degrade`, but poison for the cache, which must only ever
    // hold fault-free exploration output. Use them once, cache nothing (and
    // do not trust a row-cap verdict a lost machine may have shrunk).
    let degraded = (unbound.iter()).any(|r| !r.work.faults.machines_lost.is_empty());
    let reached_cap = |rows: usize| cache.populate_row_cap().is_some_and(|cap| rows >= cap);
    if stale.is_none() && unbound.iter().any(|r| reached_cap(r.table.num_rows())) {
        // The unbound table reached the populate cap (a potentially
        // pathological cross product): remember the shape as uncacheable so
        // future queries skip the attempt entirely.
        if !degraded {
            cache.mark_uncacheable(shape, cloud);
        }
        return Ok(ViaCache::Capped(unbound));
    }
    let (fresh, work): (Vec<_>, Vec<_>) = unbound.into_iter().map(|r| (r.table, r.work)).unzip();
    let canonical: Vec<Arc<ResultTable>> = fresh
        .into_iter()
        .enumerate()
        .map(|(ki, fresh)| {
            let fresh = canonicalize_table(fresh, query, stwig);
            match &stale {
                // No touched root here: the repaired entry shares the table.
                Some((old, owned)) if owned[ki].is_empty() => Arc::clone(&old[ki]),
                Some((old, owned)) => Arc::new(splice_roots(&old[ki], &owned[ki], &fresh)),
                None => Arc::new(fresh),
            }
        })
        .collect();
    if canonical.iter().any(|t| reached_cap(t.num_rows())) {
        // A repair grew the shape past the cap: tombstone it likewise.
        if !degraded {
            cache.mark_uncacheable(shape, cloud);
        }
        return Ok(ViaCache::Unserved);
    }
    let entry = if degraded {
        Some(CachedStwig::detached(canonical))
    } else {
        cache.insert(shape, canonical, cloud)
    };
    Ok(match entry {
        Some(entry) if within_user_cap(&entry) => ViaCache::Served(entry, work),
        _ => ViaCache::Unserved,
    })
}

/// Collapses per-machine exploration results: the first transport error (in
/// machine order, for determinism) fails the query.
///
/// An item that failed whole-machine with a loss the query goes on without
/// ([`degraded_loss`]: `Degrade`) is replaced by an empty table with the
/// STwig's columns (so the join schema stays intact) and the machine is
/// recorded lost — the safety net behind the chunk-level degradation inside
/// the matcher.
fn collect_explore_results(
    results: Vec<Result<MachineExplore, StwigError>>,
    stwig: &STwig,
    control: Option<&QueryControl>,
) -> Result<Vec<MachineExplore>, StwigError> {
    results
        .into_iter()
        .map(|r| match r {
            Err(err) => {
                let Some(machine) = degraded_loss(&err, control) else {
                    return Err(err);
                };
                let mut columns = Vec::with_capacity(1 + stwig.children.len());
                columns.push(stwig.root);
                columns.extend(stwig.children.iter().copied());
                let mut faults = FaultCounters::default();
                faults.record_lost(machine);
                Ok(MachineExplore {
                    table: ResultTable::new(columns),
                    work: MachineWork {
                        faults,
                        ..MachineWork::default()
                    },
                })
            }
            other => other,
        })
        .collect()
}

/// Phase 2 of the distributed execution on its own: the executor's one join
/// pass ([`join_pass`]) over already-explored `tables`, into a table in
/// canonical column order. Each machine fetches its load-set tables
/// (Theorem 4) and joins them with the block-based pipeline; the per-machine
/// answers — disjoint by construction — land in machine order. Applies the
/// configured result limit (`MatchConfig::result_limit`) and records join
/// counters, per-machine receive/match counts and the truncation flag in the
/// supplied metrics. Fails with [`StwigError::Transport`] if a peer ships a
/// malformed `JoinRows` message.
pub(crate) fn join_stwig_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    tables: &StwigTableSet,
    config: &MatchConfig,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<ResultTable, StwigError> {
    let started = Instant::now();
    let control = QueryControl::new(&QueryOptions::none(), started);
    let canonical: Vec<QVid> = query.vertices().collect();
    let limit = config.result_limit();
    let mut state = StreamState::begin(None, &canonical, started);
    let ledger = Network::new(cloud.num_machines());
    let pass = join_pass(
        cloud,
        plan,
        None,
        tables,
        config,
        limit,
        &control,
        &canonical,
        &ledger,
        metrics,
        machine_metrics,
        &mut state,
    )?;
    retire(cloud, &ledger, metrics);
    metrics.truncated = limit.is_some() && !pass.exhausted;
    Ok(state
        .finish(metrics)
        .expect("the table output hands its table back"))
}

/// Ships every load-set table destined for machine `dest` as `JoinRows`
/// posts (Theorem 4 bounds the senders): one envelope per non-empty
/// (STwig, sender) pair, in (STwig, sender) order — the order
/// [`assemble_rk_tables`] relies on for row-for-row determinism.
fn post_join_rows_to(
    tp: &dyn Transport,
    plan: &QueryPlan,
    tables: &StwigTableSet,
    dest: MachineId,
) {
    for (t, stwig) in plan.stwigs.iter().enumerate() {
        for j in load_set(&plan.cluster, &plan.head, dest, t) {
            let remote = tables.table(j.index(), t);
            if remote.is_empty() {
                continue;
            }
            tp.post(
                j,
                dest,
                Message::JoinRows {
                    stwig: t as u32,
                    columns: stwig.vertices().map(|c| c.0).collect(),
                    rows: remote.rows().flatten().copied().collect(),
                },
            );
        }
    }
}

/// Machine `k`'s assembled R_k(q_t) tables, one per STwig and under the
/// query's column names, beside the index memo of each one that holds
/// nothing but one cache entry's rows.
pub(crate) struct Assembled<'a> {
    pub(crate) tables: Vec<ResultTable>,
    pub(crate) memos: Vec<Option<RkMemo<'a>>>,
    /// Rows received from other machines.
    received: u64,
}

/// Assembles machine `ki`'s `R_k(q_t)` tables for every STwig `t`: its own
/// exploration tables plus the load-set rows — drained from its transport
/// mailbox in `Messages` mode, fetched in place (and charged to the link's
/// ledger) in `DirectRead` mode. An R_k(q_t) concatenated from a served STwig's tables
/// alone keeps that entry's index memo, addressed by what was concatenated;
/// one whose rows really came through `JoinRows` does not (the rows are
/// what arrived, not by construction what is cached). A malformed
/// `JoinRows` envelope (wrong variant, out-of-range STwig index, foreign
/// columns, ragged row payload) fails with [`StwigError::Transport`].
pub(crate) fn assemble_rk_tables<'a>(
    plan: &QueryPlan,
    tables: &'a StwigTableSet,
    link: &Link<'_>,
    ki: usize,
) -> Result<Assembled<'a>, StwigError> {
    let k = MachineId(ki as u16);
    let n = plan.stwigs.len();
    let mut rk = Assembled {
        tables: Vec::with_capacity(n),
        memos: Vec::new(),
        received: 0,
    };
    // Without a served STwig there is no memo to keep, and no list of them.
    let memoized = (0..n).any(|t| tables.served(t).is_some());
    if let Some(tp) = link.transport() {
        for (t, stwig) in plan.stwigs.iter().enumerate() {
            let own = tables.table(ki, t);
            let mut table = ResultTable::with_capacity(stwig.vertices().collect(), own.num_rows());
            table.append_rows(own);
            rk.tables.push(table);
            rk.memos.push(
                tables
                    .served(t)
                    .map(|entry| RkMemo::new(entry, k, Vec::new())),
            );
        }
        let mut inbox = tp.drain(k);
        // Canonicalize arrival order. The fault-free posting order per
        // destination is (STwig ascending, sender ascending) with at most
        // one envelope per pair, so this sort is a stable no-op on a clean
        // run — and under fault-injected delay/reorder it restores exactly
        // that order, keeping R_k row-for-row deterministic.
        inbox.sort_by_key(|env| match &env.msg {
            Message::JoinRows { stwig, .. } => (*stwig, env.src.0, env.seq),
            _ => (u32::MAX, env.src.0, env.seq),
        });
        for env in inbox {
            let src = env.src;
            let Message::JoinRows {
                stwig,
                columns,
                rows,
            } = env.msg
            else {
                return Err(StwigError::Transport(TransportError::UnexpectedMessage {
                    phase: "join shipping",
                    got: env.msg.kind(),
                }));
            };
            let Some(table) = rk.tables.get_mut(stwig as usize) else {
                return Err(StwigError::Transport(TransportError::MalformedPayload {
                    detail: format!(
                        "machine {src} shipped rows for STwig {stwig}, but the plan has {}",
                        plan.stwigs.len()
                    ),
                }));
            };
            let expected: Vec<u16> = table.columns().iter().map(|c| c.0).collect();
            if columns != expected {
                return Err(StwigError::Transport(TransportError::MalformedPayload {
                    detail: format!(
                        "machine {src} shipped STwig {stwig} with columns {columns:?}, \
                         expected {expected:?}"
                    ),
                }));
            }
            let width = table.width();
            if width == 0 || rows.len() % width != 0 {
                return Err(StwigError::Transport(TransportError::MalformedPayload {
                    detail: format!(
                        "machine {src} shipped {} ids for width-{width} STwig {stwig}",
                        rows.len()
                    ),
                }));
            }
            for row in rows.chunks(width) {
                table.push_row(row);
            }
            if let Some(memo) = rk.memos.get_mut(stwig as usize) {
                *memo = None;
            }
            rk.received += (rows.len() / width) as u64;
        }
    } else {
        for (t, stwig) in plan.stwigs.iter().enumerate() {
            let own = tables.table(ki, t);
            // Sized once for the machine's own rows plus its whole load set.
            let senders: Vec<MachineId> = load_set(&plan.cluster, &plan.head, k, t);
            let shipped = |j: &MachineId| tables.table(j.index(), t).num_rows();
            let rows = own.num_rows() + senders.iter().map(shipped).sum::<usize>();
            let mut table = ResultTable::with_capacity(stwig.vertices().collect(), rows);
            table.append_rows(own);
            for j in &senders {
                let remote = tables.table(j.index(), t);
                if remote.is_empty() {
                    continue;
                }
                let (rows, width) = (remote.num_rows() as u64, remote.width() as u64);
                link.ledger.ship_rows(*j, k, rows, width, Phase::Join);
                rk.received += remote.num_rows() as u64;
                table.append_rows(remote);
            }
            // No dedup pass: rows within one machine's table are
            // distinct (the cross product emits each assignment once),
            // and tables from different machines are root-disjoint
            // because STwig roots are restricted to locally-owned
            // vertices — so R_k is duplicate-free by construction.
            rk.tables.push(table);
            if memoized {
                let memo = |entry| RkMemo::new(entry, k, senders);
                rk.memos.push(tables.served(t).map(memo));
            }
        }
    }
    Ok(rk)
}

/// Initial per-machine, per-STwig exploration slab (in rows) for
/// first-k/exists queries, before scaling by the requested `k`.
const FIRST_K_MIN_SLAB: usize = 256;
/// How much the exploration slab grows when a round undershoots `k`.
/// Geometric growth bounds total re-exploration work by a constant factor
/// of the final round.
const SLAB_GROWTH: usize = 8;

/// Where rows end up: the caller's sink, or a table.
enum Output<'s> {
    Sink {
        sink: &'s mut dyn ResultSink,
        /// A re-projected row on its way to `sink.row`.
        row_buf: Vec<VertexId>,
    },
    Table(ResultTable),
}

/// A destination for canonical-order rows that tracks delivery: how many
/// rows it took, and when the first one became readable. The query's output
/// is one; so is a slab round's staging table, whose stamp nobody reads.
struct StreamState<'s> {
    output: Output<'s>,
    started: Instant,
    streamed: u64,
    first_us: Option<f64>,
}

impl<'s> StreamState<'s> {
    /// Opens the output for rows in `columns` order: announces them to the
    /// sink when there is one, creates the table otherwise.
    fn begin(sink: Option<&'s mut dyn ResultSink>, columns: &[QVid], started: Instant) -> Self {
        let output = match sink {
            Some(sink) => {
                sink.begin(columns);
                Output::Sink {
                    sink,
                    row_buf: Vec::with_capacity(columns.len()),
                }
            }
            None => Output::Table(ResultTable::new(columns.to_vec())),
        };
        StreamState {
            output,
            started,
            streamed: 0,
            first_us: None,
        }
    }

    /// Delivers a row that is already in the output's column order.
    fn deliver(&mut self, row: &[VertexId]) {
        match &mut self.output {
            Output::Sink { sink, .. } => sink.row(row),
            Output::Table(table) => table.push_row(row),
        }
        self.delivered(1);
    }

    /// Delivers a staged table's rows, already in the output's column order.
    fn deliver_all(&mut self, rows: &ResultTable) {
        match &mut self.output {
            Output::Sink { .. } => rows.rows().for_each(|row| self.deliver(row)),
            Output::Table(table) => {
                table.append(rows);
                self.delivered(rows.num_rows() as u64);
            }
        }
    }

    /// Delivers `row` re-projected into the output's column order: one
    /// write per value into a table, through the row buffer into a sink.
    fn deliver_projected(&mut self, row: &[VertexId], projection: &[usize]) {
        match &mut self.output {
            Output::Sink { sink, row_buf } => {
                row_buf.clear();
                row_buf.extend(projection.iter().map(|&p| row[p]));
                sink.row(row_buf);
            }
            Output::Table(table) => table.push_projected(row, projection),
        }
        self.delivered(1);
    }

    fn delivered(&mut self, rows: u64) {
        self.streamed += rows;
        if self.first_us.is_none() && rows > 0 {
            // The first row does not wait in a buffering sink for company:
            // the stamp is when the consumer could read it.
            self.flush();
            self.first_us = Some(self.started.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Has a buffering sink hand over what it holds.
    fn flush(&mut self) {
        if let Output::Sink { sink, .. } = &mut self.output {
            sink.flush();
        }
    }

    /// Ends delivery — whatever stopped the query, the rows it delivered
    /// are flushed before its metrics say so — records the stream's
    /// counters, and hands back the table of a table output.
    fn finish(mut self, metrics: &mut QueryMetrics) -> Option<ResultTable> {
        self.flush();
        metrics.matches_found = self.streamed;
        metrics.rows_streamed = self.streamed;
        metrics.time_to_first_result_us = self.first_us;
        self.into_table()
    }

    /// The table of a table output.
    fn into_table(self) -> Option<ResultTable> {
        match self.output {
            Output::Sink { .. } => None,
            Output::Table(table) => Some(table),
        }
    }
}

/// [`RoundSink`] adapter: re-projects each row of a machine's join output
/// (whose column order depends on its join-order choice) into the canonical
/// column order and delivers it as the join finishes it, flushing at the end
/// of every round. Checks `control` before each row — an atomic load (the
/// clock is only read while an untripped deadline is armed) — so no row is
/// delivered after a cancellation the consumer raised mid-stream, even
/// before the join's own next check stops it.
struct ProjectingSink<'a, 's> {
    canonical: &'a [QVid],
    projection: Vec<usize>,
    control: &'a QueryControl,
    state: &'a mut StreamState<'s>,
}

impl RoundSink for ProjectingSink<'_, '_> {
    fn on_schema(&mut self, columns: &[QVid]) {
        self.projection = self
            .canonical
            .iter()
            .map(|&c| {
                columns
                    .iter()
                    .position(|&mc| mc == c)
                    .expect("final join output covers every query vertex")
            })
            .collect();
    }

    fn on_row(&mut self, row: &[VertexId]) {
        if !self.control.interrupted() {
            self.state.deliver_projected(row, &self.projection);
        }
    }

    fn end_round(&mut self) {
        self.state.flush();
    }
}

/// Outcome of one join pass over all machines.
struct JoinPass {
    /// Rows the pass delivered.
    rows: u64,
    /// Whether every contributing machine's join ran its driver dry — i.e.
    /// the pass enumerated everything these tables contain. Means nothing
    /// once `control` reports an interrupt.
    exhausted: bool,
}

/// The one join pass: runs the per-machine load-set joins over `tables` in
/// machine order on the calling thread, delivering surviving rows to `state`
/// in canonical column order as they are joined, up to `limit`.
///
/// The pass stops at the machine that satisfies the limit; in `Messages`
/// mode a machine's incoming load-set rows are shipped as `JoinRows` posts
/// right before it joins, so a machine the pass never reaches costs neither
/// the copy nor the simulated traffic. Each row stays delivered if an
/// interrupt follows.
///
/// `memo` is the cache's memo of `plan`: a machine whose R_k tables are all
/// served takes its join order from it ([`PlanMemo::join_order`]).
#[allow(clippy::too_many_arguments)]
fn join_pass(
    cloud: &MemoryCloud,
    plan: &QueryPlan,
    memo: Option<&PlanMemo>,
    tables: &StwigTableSet,
    config: &MatchConfig,
    limit: Option<usize>,
    control: &QueryControl,
    canonical: &[QVid],
    ledger: &Network,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
    state: &mut StreamState<'_>,
) -> Result<JoinPass, StwigError> {
    // The pass walks the machines through their metrics: a short slice would
    // silently skip machines and return an incomplete answer.
    assert_eq!(
        machine_metrics.len(),
        cloud.num_machines(),
        "join_pass needs one MachineMetrics per machine"
    );
    // A single table leaves nothing to select.
    let memo = memo.filter(|_| plan.stwigs.len() > 1);
    let link = Link::new(cloud, ledger, config, control.faults());
    let mut pass = JoinPass {
        rows: 0,
        exhausted: true,
    };
    // A discarded slab round must not leave stale per-machine match counts.
    for mm in machine_metrics.iter_mut() {
        mm.matches_found = 0;
    }
    for (ki, mm) in machine_metrics.iter_mut().enumerate() {
        let remaining = limit.map(|l| (l as u64).saturating_sub(pass.rows) as usize);
        if remaining == Some(0) || control.interrupted() {
            pass.exhausted = false;
            break;
        }
        let t0 = Instant::now();
        if let Some(tp) = link.transport() {
            post_join_rows_to(tp, plan, tables, MachineId(ki as u16));
        }
        let rk = assemble_rk_tables(plan, tables, &link, ki)?;
        let mut counters = JoinCounters::default();
        let before = state.streamed;
        // A machine with no head-STwig results contributes nothing (§5.3),
        // and nothing is all there was to enumerate.
        let exhausted = rk.tables[plan.head.head_index].is_empty() || {
            let select = || join_order(&rk.tables);
            let (memoized, selected);
            let order: &[usize] = match memo.and_then(|m| m.join_order(ki, &rk.memos, select)) {
                Some(order) => {
                    memoized = order;
                    &memoized
                }
                None => {
                    selected = select();
                    &selected
                }
            };
            let mut sink = ProjectingSink {
                canonical,
                projection: Vec::new(),
                control,
                state,
            };
            pipelined_join_streaming(
                &rk.tables,
                &rk.memos,
                config,
                order,
                remaining,
                Some(control),
                &mut counters,
                &mut sink,
            )
            .exhausted
        };
        // `delivered` is what the output took of the machine's rows — a
        // first-k "satisfied" decision must reflect delivered rows only.
        let delivered = state.streamed - before;
        pass.rows += delivered;
        pass.exhausted &= exhausted;
        metrics.join.merge(&counters);
        let table_bytes = rk.tables.iter().map(|t| t.memory_bytes() as u64).sum();
        metrics.peak_table_bytes = metrics.peak_table_bytes.max(table_bytes);
        mm.rows_received += rk.received;
        mm.compute_us += t0.elapsed().as_secs_f64() * 1e6;
        mm.matches_found = delivered;
        if control.interrupted() {
            break;
        }
    }
    metrics.fault.duplicates_suppressed += link.duplicates_suppressed();
    Ok(pass)
}

/// **The** query executor. Rows go to `sink` as they are produced, or —
/// with no sink — into a table that is handed back; either way in canonical
/// column order, under the per-query deadline/cancellation in `options`.
/// `options.result_mode`, when set, replaces `config.result_mode`.
///
/// Under [`crate::config::ResultMode::All`] exploration runs exactly once
/// (uncapped) and the join delivers every row. Under `FirstK(k)` / `Exists`
/// the executor interleaves exploration and join incrementally:
///
/// 1. every machine explores each STwig with a bounded slab
///    (`max_stwig_rows` capped at a multiple of `k`), with the usual binding
///    synchronization between STwigs;
/// 2. the pipelined join runs over what is available, counting valid
///    embeddings;
/// 3. only if fewer than `k` embeddings came out **and** some machine's slab
///    was full does exploration resume with a geometrically larger slab —
///    otherwise the joined rows are delivered and the query completes.
///
/// Early stop is legal because any row surviving the join of *truncated*
/// exploration tables is a genuine embedding (each table holds only true
/// STwig matches, and the join checks the same predicates as ever); what is
/// sacrificed is only *which* k embeddings are returned — they are not a
/// prefix of the canonical full-enumeration table. See DESIGN.md,
/// "First-k early stop".
///
/// On a deadline or cancellation the query stops at the next cooperative
/// check (superstep flush, STwig barrier, join round, machine boundary),
/// keeps the valid rows it delivered, and reports
/// [`QueryOutcome::Cancelled`] / [`QueryOutcome::DeadlineExceeded`] in the
/// returned metrics.
pub(crate) fn execute_query(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    options: &QueryOptions,
    cache: Option<&StwigCache>,
    sink: Option<&mut dyn ResultSink>,
) -> Result<(Option<ResultTable>, QueryMetrics), StwigError> {
    let started = Instant::now();
    let control = QueryControl::new(options, started);
    check_faults(config, Some(&control))?;
    // The request's result mode outranks the config's: applied here, so
    // every entry point means the same by it.
    let config = match options.result_mode {
        Some(mode) => Cow::Owned(config.clone().with_result_mode(mode)),
        None => Cow::Borrowed(config),
    };
    let config = config.as_ref();
    // The query's one ledger: every charge it makes, and nothing else.
    let ledger = Network::new(cloud.num_machines());
    let mut metrics = QueryMetrics {
        storage: Some(cloud.storage_bytes()),
        ..QueryMetrics::default()
    };
    let mut machine_metrics: Vec<MachineMetrics> = (0..cloud.num_machines())
        .map(|k| MachineMetrics {
            machine: k as u16,
            ..Default::default()
        })
        .collect();
    let canonical: Vec<QVid> = query.vertices().collect();
    let v0 = *canonical.first().ok_or(StwigError::EmptyQuery)?;
    let mut state = StreamState::begin(sink, &canonical, started);
    metrics.truncated = if query.num_edges() == 0 {
        let label = query.label(v0);
        scan_single_vertex(
            cloud,
            label,
            config,
            &control,
            &ledger,
            &mut metrics,
            &mut state,
        )?
    } else {
        explore_and_join(
            cloud,
            query,
            config,
            cache,
            &control,
            &canonical,
            &ledger,
            &mut metrics,
            &mut machine_metrics,
            &mut state,
        )?
    };
    // Interrupts latch, so this check also reports one an inner layer
    // already acted on.
    metrics.outcome = match control.check() {
        // An interrupt outranks degradation: the client asked to stop.
        None if !metrics.fault.machines_lost.is_empty() => QueryOutcome::Partial,
        None => QueryOutcome::Complete,
        Some(Interrupt::Cancelled) => QueryOutcome::Cancelled,
        Some(Interrupt::DeadlineExceeded) => QueryOutcome::DeadlineExceeded,
    };
    let table = state.finish(&mut metrics);
    metrics.machines = machine_metrics;
    finalize(&mut metrics, cloud, &ledger, started);
    Ok((table, metrics))
}

/// A single-vertex query: delivers the per-machine postings of its label in
/// machine order, stopping at the limit, with a cooperative check per
/// machine. In `Messages` mode the proxy (machine 0) gathers every other
/// machine's postings with one `GetIds` exchange each instead of reading
/// their string indexes in place. Returns whether the limit cut the scan.
fn scan_single_vertex(
    cloud: &MemoryCloud,
    label: LabelId,
    config: &MatchConfig,
    control: &QueryControl,
    ledger: &Network,
    metrics: &mut QueryMetrics,
    state: &mut StreamState<'_>,
) -> Result<bool, StwigError> {
    let limit = config.result_limit();
    let link = Link::new(cloud, ledger, config, control.faults());
    let proxy = MachineId(0);
    let mut limit_hit = false;
    'scan: for k in cloud.machines() {
        if control.interrupted() {
            break;
        }
        let owned: Vec<VertexId> = match link.transport() {
            Some(tp) if k != proxy => fetch_postings(
                tp,
                cloud,
                proxy,
                k,
                &[label],
                Some(control),
                &mut metrics.fault,
            )?
            // One label asked, one run back (checked by the fetch).
            .and_then(|mut runs| runs.pop())
            .unwrap_or_default(),
            _ => cloud.get_ids(k, label).to_vec(),
        };
        for id in owned {
            if limit.is_some_and(|l| state.streamed >= l as u64) {
                limit_hit = true;
                break 'scan;
            }
            state.deliver(&[id]);
        }
    }
    metrics.fault.duplicates_suppressed += link.duplicates_suppressed();
    metrics.explore_rounds = 1;
    Ok(limit_hit)
}

/// A query with at least one edge: plans it — or, with a cache, takes the
/// plan its memo keeps ([`StwigCache::plan`]) — then explores and joins in
/// rounds (one for `All`, slab by slab for `FirstK` / `Exists`) into
/// `state`. Returns whether the result limit cut the answer short.
#[allow(clippy::too_many_arguments)]
fn explore_and_join(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    cache: Option<&StwigCache>,
    control: &QueryControl,
    canonical: &[QVid],
    ledger: &Network,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
    state: &mut StreamState<'_>,
) -> Result<bool, StwigError> {
    check_cache(cloud, cache)?;
    let make_plan = || plan_query(cloud, query);
    let memo = (cache.map(|cache| cache.plan(query, cloud, make_plan))).transpose()?;
    let fresh;
    let plan = match &memo {
        Some(memo) => memo.plan(),
        None => {
            fresh = make_plan()?;
            &fresh
        }
    };
    metrics.num_stwigs = plan.stwigs.len();
    let limit = config.result_limit();

    // Slab schedule: `All` explores uncapped in one round; `FirstK`/`Exists`
    // start from a slab sized for k and grow geometrically on undershoot.
    // The user's own `max_stwig_rows` is always an upper bound — a slab
    // capped by the *user's* limit is final, not resumable.
    let user_cap = config.max_stwig_rows;
    let mut slab: Option<usize> = match (config.result_mode, limit) {
        (crate::config::ResultMode::All, _) | (_, None) => None,
        (_, Some(k)) => Some(k.saturating_mul(4).max(FIRST_K_MIN_SLAB)),
    };
    loop {
        metrics.explore_rounds += 1;
        let effective_cap = match (slab, user_cap) {
            (None, u) => u,
            (Some(s), None) => Some(s),
            (Some(s), Some(u)) => Some(s.min(u)),
        };
        let can_grow = match (slab, user_cap) {
            (None, _) => false,
            (Some(s), Some(u)) => s < u,
            (Some(_), None) => true,
        };
        let (tables, answerable) = produce_tables(
            cloud,
            query,
            plan,
            config,
            effective_cap,
            cache,
            Some(control),
            ledger,
            metrics,
            machine_metrics,
        )?;

        if control.interrupted() {
            return Ok(false);
        }

        // Only exploration is bounded by the round's slab: a table the
        // cache served is complete whatever its size.
        if !answerable {
            // Some STwig matched nowhere. Under a resumable slab that only
            // proves "no answer" if no slab could have truncated a table:
            // per-STwig totals below the cap bound every machine's table
            // below it too.
            let explored_rows = (metrics.stwig_rows.iter().enumerate())
                .filter(|&(t, _)| tables.served(t).is_none())
                .map(|(_, &rows)| rows);
            let maybe_capped = can_grow
                && effective_cap.is_some_and(|c| explored_rows.into_iter().any(|r| r >= c as u64));
            if !maybe_capped {
                return Ok(false); // provably no (further) answer
            }
            slab = slab.map(|s| s.saturating_mul(SLAB_GROWTH));
            continue;
        }

        let capped =
            can_grow && effective_cap.is_some_and(|c| tables.explored().any(|t| t.num_rows() >= c));

        if !capped {
            // Final round: every row the join produces is part of the full
            // answer — deliver it live.
            let remaining = limit.map(|l| (l as u64).saturating_sub(state.streamed) as usize);
            let pass = join_pass(
                cloud,
                plan,
                memo.as_deref(),
                &tables,
                config,
                remaining,
                control,
                canonical,
                ledger,
                metrics,
                machine_metrics,
                state,
            )?;
            return Ok(limit.is_some() && !pass.exhausted && !control.interrupted());
        }

        // Slab round: join into staging; commit only if it satisfies k (or
        // an interrupt forces partial delivery). Otherwise discard and
        // re-explore with a bigger slab — rows must never be delivered
        // twice, and a bigger slab's join output is not a superset of this
        // one's.
        let mut staging = StreamState::begin(None, canonical, state.started);
        let pass = join_pass(
            cloud,
            plan,
            memo.as_deref(),
            &tables,
            config,
            limit,
            control,
            canonical,
            ledger,
            metrics,
            machine_metrics,
            &mut staging,
        )?;
        let staging = staging
            .into_table()
            .expect("a sinkless state holds a table");
        metrics.peak_table_bytes = metrics.peak_table_bytes.max(staging.memory_bytes() as u64);
        let satisfied = limit.is_some_and(|l| pass.rows >= l as u64);
        if satisfied || control.interrupted() {
            state.deliver_all(&staging);
            return Ok(satisfied);
        }
        slab = slab.map(|s| s.saturating_mul(SLAB_GROWTH));
    }
}

/// Root candidates for `stwig` on machine `k`: locally-owned vertices with
/// the root label, filtered by the (global) binding set when bound.
fn local_roots(
    cloud: &MemoryCloud,
    k: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    bindings: &Bindings,
    config: &MatchConfig,
) -> Vec<VertexId> {
    let postings = cloud.get_ids(k, query.label(stwig.root));
    if config.use_bindings {
        if let Some(bound) = bindings.get(stwig.root) {
            return postings.iter().filter(|v| bound.contains(v)).collect();
        }
    }
    postings.to_vec()
}

/// Retires a ledger: its phase traffic into `metrics`, itself into the cloud's aggregate.
fn retire(cloud: &MemoryCloud, ledger: &Network, metrics: &mut QueryMetrics) {
    metrics.phase_traffic.merge(&PhaseTraffic::of(ledger));
    cloud.network().absorb(ledger);
}

/// Reads the query's traffic off its ledger, prices it with the cloud's cost
/// model, and retires the ledger. A query that fails retires nothing.
fn finalize(metrics: &mut QueryMetrics, cloud: &MemoryCloud, ledger: &Network, started: Instant) {
    // One snapshot of the P×P counters serves every figure below.
    let traffic = ledger.snapshot();
    let cost = cloud.cost_model();
    retire(cloud, ledger, metrics);
    metrics.network_messages = traffic.total_messages();
    metrics.network_bytes = traffic.total_bytes();
    metrics.wall_us = started.elapsed().as_secs_f64() * 1e6;
    // Per-machine communication time and the simulated makespan (every
    // query reports one `MachineMetrics` per machine).
    for mm in &mut metrics.machines {
        let m = MachineId(mm.machine);
        mm.comm_us = cost.time_us(traffic.messages_from(m), traffic.bytes_from(m));
        metrics.simulated_us = metrics.simulated_us.max(mm.compute_us + mm.comm_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::CollectSink;
    use crate::verify::{canonical_rows, same_answer, verify_all};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// A `DirectRead` link charging the cloud's aggregate.
    fn in_place(cloud: &MemoryCloud) -> Link<'_> {
        Link {
            ledger: cloud.network(),
            stack: None,
        }
    }

    fn sample_cloud(machines: usize) -> MemoryCloud {
        // A slightly larger labeled graph with multiple triangles and squares.
        let mut gb = GraphBuilder::new_undirected();
        for i in 0..10u64 {
            gb.add_vertex(v(i), "a");
        }
        for i in 10..30u64 {
            gb.add_vertex(v(i), "b");
        }
        for i in 30..50u64 {
            gb.add_vertex(v(i), "c");
        }
        for i in 50..55u64 {
            gb.add_vertex(v(i), "d");
        }
        // a_i - b_{10+2i}, b_{10+2i} - c_{30+2i}, c_{30+2i} - a_i (triangles)
        for i in 0..10u64 {
            gb.add_edge(v(i), v(10 + 2 * i));
            gb.add_edge(v(10 + 2 * i), v(30 + 2 * i));
            gb.add_edge(v(30 + 2 * i), v(i));
        }
        // extra edges to d vertices
        for i in 0..5u64 {
            gb.add_edge(v(50 + i), v(i));
            gb.add_edge(v(50 + i), v(11 + 2 * i));
        }
        gb.build(machines, CostModel::default())
    }

    fn triangle_query(cloud: &MemoryCloud) -> QueryGraph {
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(cloud, "a").unwrap();
        let b = qb.vertex_by_name(cloud, "b").unwrap();
        let c = qb.vertex_by_name(cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c).edge(c, a);
        qb.build().unwrap()
    }

    #[test]
    fn direct_read_machines_share_one_postings_map() {
        // Four machines, and an id's owner is its residue mod 4. Nine a-roots,
        // none on machine 0; each sees two of four b's and four d's of its
        // own: 4 carriers against 18 neighbors per machine with roots.
        let mut gb = GraphBuilder::new_undirected();
        let roots: Vec<u64> = (1..12).filter(|i| i % 4 != 0).collect();
        for &i in &roots {
            gb.add_vertex(v(i), "a");
            gb.add_edge(v(i), v(100 + i % 4));
            gb.add_edge(v(i), v(100 + (i + 1) % 4));
            for d in 0..4 {
                gb.add_vertex(v(200 + 4 * i + d), "d");
                gb.add_edge(v(i), v(200 + 4 * i + d));
            }
        }
        for b in 100..104 {
            gb.add_vertex(v(b), "b");
        }
        let cloud = gb.build(4, CostModel::default());
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let query = qb.build().unwrap();
        let stwig = STwig::new(a, vec![b]);
        let bindings = Bindings::new(2);
        let config = MatchConfig::default().with_transport_mode(TransportMode::DirectRead);
        let run = |threads| {
            let explored = explore_bound(
                &cloud,
                &in_place(&cloud),
                &query,
                &stwig,
                &bindings,
                &config,
                None,
                threads,
            );
            let explored = explored.unwrap();
            let sides: Vec<Resolution> = explored.iter().map(|r| r.work.resolution).collect();
            let tables: Vec<ResultTable> = explored.into_iter().map(|r| r.table).collect();
            (tables, sides)
        };
        let (serial, sides) = run(1);
        assert_eq!(serial.iter().map(ResultTable::num_rows).sum::<usize>(), 18);
        // Machine 0 collects nothing and reads in place; machine 1 builds the
        // map, and machines 2 and 3 find it built.
        let postings = sides.iter().map(|s| (s.from_postings, s.postings_entries));
        assert_eq!(
            postings.collect::<Vec<_>>(),
            [(false, 0), (true, 4), (true, 0), (true, 0)]
        );
        for _ in 0..8 {
            let (parallel, sides) = run(4);
            assert_eq!(parallel, serial);
            let entries: u64 = sides.iter().map(|s| s.postings_entries).sum();
            assert_eq!(entries, 4, "built once: {sides:?}");
            assert!(sides[1..].iter().all(|s| s.from_postings));
        }
    }

    /// The running example of the paper (Figure 1): the query d–a, a–b,
    /// a–c, b–c has the answers (a1,b1,c1,d1) and (a2,b1,c1,d1).
    #[test]
    fn figure1_example_produces_expected_matches() {
        for machines in [1usize, 2, 4, 7] {
            let mut gb = GraphBuilder::new_undirected();
            // a1=1, a2=2, b1=11, b2=12, c1=21, d1=31
            for (id, label) in [
                (1, "a"),
                (2, "a"),
                (11, "b"),
                (12, "b"),
                (21, "c"),
                (31, "d"),
            ] {
                gb.add_vertex(v(id), label);
            }
            for (x, y) in [
                (1, 31),
                (1, 11),
                (1, 21),
                (2, 31),
                (2, 11),
                (2, 21),
                (11, 21),
                (12, 1),
            ] {
                gb.add_edge(v(x), v(y));
            }
            let cloud = gb.build(machines, CostModel::default());
            let mut qb = QueryGraph::builder();
            let a = qb.vertex_by_name(&cloud, "a").unwrap();
            let b = qb.vertex_by_name(&cloud, "b").unwrap();
            let c = qb.vertex_by_name(&cloud, "c").unwrap();
            let d = qb.vertex_by_name(&cloud, "d").unwrap();
            qb.edge(d, a).edge(a, b).edge(a, c).edge(b, c);
            let query = qb.build().unwrap();
            let out = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
            verify_all(&cloud, &query, &out.table).unwrap();
            // Canonical column order: [a, b, c, d] by query vertex index.
            assert_eq!(out.table.columns(), &[a, b, c, d], "machines = {machines}");
            assert_eq!(
                canonical_rows(&query, &out.table),
                vec![
                    vec![v(1), v(11), v(21), v(31)],
                    vec![v(2), v(11), v(21), v(31)],
                ],
                "machines = {machines}"
            );
            // The single edge a–b: a1–b1, a2–b1, a1–b2.
            let mut qb = QueryGraph::builder();
            let a = qb.vertex_by_name(&cloud, "a").unwrap();
            let b = qb.vertex_by_name(&cloud, "b").unwrap();
            qb.edge(a, b);
            let edge = qb.build().unwrap();
            let out = match_query(&cloud, &edge, &MatchConfig::default(), Run::default()).unwrap();
            assert_eq!(out.num_matches(), 3, "machines = {machines}");
        }
    }

    #[test]
    fn distributed_equals_single_machine() {
        let one = sample_cloud(1);
        let single = match_query(
            &one,
            &triangle_query(&one),
            &MatchConfig::default(),
            Run::default(),
        )
        .unwrap();
        for machines in [2usize, 4, 8] {
            let cloud = sample_cloud(machines);
            let query = triangle_query(&cloud);
            let distributed =
                match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
            assert_eq!(
                canonical_rows(&query, &single.table),
                canonical_rows(&query, &distributed.table),
                "machines = {machines}"
            );
            verify_all(&cloud, &query, &distributed.table).unwrap();
            assert_eq!(distributed.num_matches(), 10);
        }
    }

    #[test]
    fn per_machine_results_are_disjoint() {
        let cloud = sample_cloud(4);
        let query = triangle_query(&cloud);
        let out = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        // No duplicate embeddings in the union.
        let rows = canonical_rows(&query, &out.table);
        assert_eq!(rows.len(), out.num_matches());
    }

    #[test]
    fn four_vertex_query_with_d() {
        let cloud = sample_cloud(4);
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let c = qb.vertex_by_name(&cloud, "c").unwrap();
        let d = qb.vertex_by_name(&cloud, "d").unwrap();
        qb.edge(a, b).edge(b, c).edge(c, a).edge(d, a).edge(d, b);
        let query = qb.build().unwrap();
        let single = match_query(
            &sample_cloud(1),
            &query,
            &MatchConfig::default(),
            Run::default(),
        )
        .unwrap();
        let distributed =
            match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(
            canonical_rows(&query, &single.table),
            canonical_rows(&query, &distributed.table)
        );
        verify_all(&cloud, &query, &distributed.table).unwrap();
    }

    #[test]
    fn no_match_distributed_query() {
        let cloud = sample_cloud(3);
        let mut qb = QueryGraph::builder();
        let d1 = qb.vertex_by_name(&cloud, "d").unwrap();
        let d2 = qb.vertex_by_name(&cloud, "d").unwrap();
        qb.edge(d1, d2);
        let query = qb.build().unwrap();
        let out = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(out.num_matches(), 0);
    }

    #[test]
    fn single_vertex_distributed_query() {
        let cloud = sample_cloud(3);
        let mut qb = QueryGraph::builder();
        qb.vertex_by_name(&cloud, "d").unwrap();
        let query = qb.build().unwrap();
        let out = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(out.num_matches(), 5);
    }

    #[test]
    fn metrics_report_per_machine_breakdown() {
        let cloud = sample_cloud(4);
        let query = triangle_query(&cloud);
        let out = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(out.metrics.machines.len(), 4);
        let total_matches: u64 = out.metrics.machines.iter().map(|m| m.matches_found).sum();
        assert_eq!(total_matches, out.num_matches() as u64);
        assert!(out.metrics.simulated_us > 0.0);
        assert!(out.metrics.network_messages > 0);
    }

    #[test]
    fn result_limit_is_respected() {
        let cloud = sample_cloud(2);
        let query = triangle_query(&cloud);
        let cfg = MatchConfig::default().with_result_mode(crate::config::ResultMode::FirstK(3));
        let out = match_query(&cloud, &query, &cfg, Run::default()).unwrap();
        assert_eq!(out.num_matches(), 3);
        verify_all(&cloud, &query, &out.table).unwrap();
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Any worker-thread count must return the exact table the serial
        // executor returns — same rows, same order, same per-machine totals.
        for machines in [1usize, 3, 4, 8] {
            let cloud = sample_cloud(machines);
            let query = triangle_query(&cloud);
            let serial_cfg = MatchConfig::default().with_num_threads(Some(1));
            let serial = match_query(&cloud, &query, &serial_cfg, Run::default()).unwrap();
            for threads in [2usize, 4, 7] {
                let cfg = MatchConfig::default().with_num_threads(Some(threads));
                let parallel = match_query(&cloud, &query, &cfg, Run::default()).unwrap();
                assert_eq!(
                    serial.table, parallel.table,
                    "machines = {machines}, threads = {threads}"
                );
                assert_eq!(
                    serial.metrics.matches_found, parallel.metrics.matches_found,
                    "machines = {machines}, threads = {threads}"
                );
                assert_eq!(
                    serial.metrics.stwig_rows, parallel.metrics.stwig_rows,
                    "machines = {machines}, threads = {threads}"
                );
                assert_eq!(serial.metrics.explore, parallel.metrics.explore);
                assert_eq!(serial.metrics.join, parallel.metrics.join);
                assert_eq!(
                    serial.metrics.network_bytes, parallel.metrics.network_bytes,
                    "traffic totals are order-independent atomic sums"
                );
                for (s, p) in serial
                    .metrics
                    .machines
                    .iter()
                    .zip(parallel.metrics.machines.iter())
                {
                    assert_eq!(s.machine, p.machine);
                    assert_eq!(s.rows_produced, p.rows_produced);
                    assert_eq!(s.rows_received, p.rows_received);
                    assert_eq!(s.matches_found, p.matches_found);
                }
            }
        }
    }

    #[test]
    fn default_thread_count_matches_serial() {
        // The default config resolves num_threads to the host parallelism;
        // results must still be identical to the serial run.
        let cloud = sample_cloud(7);
        let query = triangle_query(&cloud);
        let auto = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        let serial_cfg = MatchConfig::default().with_num_threads(Some(1));
        let serial = match_query(&cloud, &query, &serial_cfg, Run::default()).unwrap();
        assert_eq!(auto.table, serial.table);
    }

    #[test]
    fn run_work_stealing_orders_results_and_balances() {
        // Results come back in item order for any thread count, even with
        // skewed per-item work.
        for threads in [1usize, 2, 3, 8] {
            let out = run_work_stealing(13, threads, |i| {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 10
            });
            assert_eq!(out, (0..13).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cache_hit_and_miss_paths_are_bit_identical_to_exploration() {
        use crate::cache::{CacheConfig, StwigCache};
        for machines in [1usize, 3, 4] {
            let cloud = sample_cloud(machines);
            let configs = [TransportMode::DirectRead, TransportMode::Messages]
                .into_iter()
                .flat_map(|mode| {
                    [
                        ("exhaustive", MatchConfig::default()),
                        ("paper", MatchConfig::paper_default()),
                        ("no-bindings", MatchConfig::default().with_bindings(false)),
                    ]
                    .map(|(name, config)| (name, config.with_transport_mode(mode)))
                });
            for (name, config) in configs {
                let query = triangle_query(&cloud);
                let cache = StwigCache::new(&cloud, CacheConfig::default());
                let plain = match_query(&cloud, &query, &config, Run::default()).unwrap();
                // First run populates (all misses), second run hits.
                let miss = match_query(
                    &cloud,
                    &query,
                    &config,
                    Run {
                        cache: Some(&cache),
                        ..Run::default()
                    },
                )
                .unwrap();
                let hit = match_query(
                    &cloud,
                    &query,
                    &config,
                    Run {
                        cache: Some(&cache),
                        ..Run::default()
                    },
                )
                .unwrap();
                let stats = cache.stats();
                assert!(stats.insertions > 0, "first run must populate ({name})");
                assert!(
                    stats.hits >= stats.insertions,
                    "second run must hit ({name})"
                );
                // The cached executor answers from complete STwig tables:
                // the same answer as exploration (the same rows wherever the
                // limit does not choose among them), and the populating run
                // and every hit after it serve the very same tables.
                let ctx = format!("machines = {machines}, {name}, {:?}", config.transport_mode);
                let limit = config.result_limit();
                same_answer(&cloud, &query, &miss.table, &plain.table, limit)
                    .unwrap_or_else(|e| panic!("miss path diverged: {e} ({ctx})"));
                assert_eq!(miss.table, hit.table, "hit != populate ({ctx})");
                assert_eq!(miss.metrics.stwig_rows, hit.metrics.stwig_rows);
                assert_eq!(plain.metrics.matches_found, hit.metrics.matches_found);
                // Only the populating run had the join indexes to build.
                let unbuilt = |join: JoinCounters| JoinCounters {
                    build_rows: 0,
                    ..join
                };
                assert_eq!(unbuilt(miss.metrics.join), unbuilt(hit.metrics.join));
            }
        }
    }

    #[test]
    fn warm_repeat_indexes_nothing_and_syncs_nothing() {
        use crate::cache::{CacheConfig, StwigCache};
        let cloud = sample_cloud(4);
        let query = triangle_query(&cloud);
        let direct = MatchConfig::default()
            .with_num_threads(Some(1))
            .with_transport_mode(TransportMode::DirectRead);
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        let run = |config: &MatchConfig, cache: &StwigCache| {
            match_query(
                &cloud,
                &query,
                config,
                Run {
                    cache: Some(cache),
                    ..Run::default()
                },
            )
            .unwrap()
        };
        let cold = run(&direct, &cache);
        let built = cache.stats();
        let warm = run(&direct, &cache);
        // The populating run is served like a hit — nothing to synchronize
        // for either — but it is the one that finds the memo empty.
        assert!(cold.metrics.join.build_rows > 0);
        assert_eq!(warm.metrics.join.build_rows, 0);
        for out in [&cold, &warm] {
            assert_eq!(out.metrics.phase_traffic.binding_sync_bytes, 0);
            assert_eq!(out.metrics.phase_traffic.binding_sync_messages, 0);
        }
        assert_eq!(warm.table, cold.table);
        assert_eq!(warm.metrics.explore, ExploreCounters::default());
        let stats = cache.stats();
        assert!(built.index_builds > 0 && built.index_hits == 0);
        assert_eq!(stats.index_builds, built.index_builds);
        assert_eq!(stats.index_hits, built.index_builds, "one hit per index");
        assert!(stats.index_bytes > 0 && stats.index_bytes < stats.bytes_resident);
        // What the query holds is its assembled copies, not the cache's
        // tables: nothing during exploration, which lent them.
        let plain = match_query(&cloud, &query, &direct, Run::default()).unwrap();
        assert!(warm.metrics.peak_table_bytes > 0);
        assert!(plain.metrics.peak_table_bytes > 0);

        // `Messages`: rows that came through `JoinRows` are indexed by the
        // query that received them; an R_k made of the machine's own served
        // table alone (one machine: nobody to receive from) is not.
        let messages = direct.clone().with_transport_mode(TransportMode::Messages);
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        run(&messages, &cache);
        let warm = run(&messages, &cache);
        assert!(warm.metrics.join.build_rows > 0);
        assert_eq!(warm.metrics.phase_traffic.binding_sync_messages, 0);
        let single = sample_cloud(1);
        let cache = StwigCache::new(&single, CacheConfig::default());
        let run = || {
            match_query(
                &single,
                &query,
                &messages,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            )
            .unwrap()
        };
        assert!(run().metrics.join.build_rows > 0);
        assert_eq!(run().metrics.join.build_rows, 0);
    }

    #[test]
    fn a_table_over_the_users_row_cap_is_explored_not_served() {
        use crate::cache::{CacheConfig, StwigCache};
        // One machine: every STwig table of the triangle holds ten rows or
        // more, so under a cap of three none may be served whole.
        let cloud = sample_cloud(1);
        let query = triangle_query(&cloud);
        let roomy = MatchConfig::default().with_num_threads(Some(1));
        let capped = roomy.clone().with_max_stwig_rows(Some(3));
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        match_query(
            &cloud,
            &query,
            &roomy,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        let warm = cache.stats();
        assert!(warm.insertions > 0);
        let plain = match_query(&cloud, &query, &capped, Run::default()).unwrap();
        let cached = match_query(
            &cloud,
            &query,
            &capped,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        assert!(cache.stats().hits > warm.hits, "the entries were found");
        assert_eq!(cached.table, plain.table);
        assert_eq!(cached.metrics.stwig_rows, plain.metrics.stwig_rows);
        assert_eq!(cached.metrics.explore, plain.metrics.explore);
        assert_eq!(cached.metrics.join, plain.metrics.join);
        // A cold cache under the same cap populates, then explores too.
        let cold = StwigCache::new(&cloud, CacheConfig::default());
        let populated = match_query(
            &cloud,
            &query,
            &capped,
            Run {
                cache: Some(&cold),
                ..Run::default()
            },
        )
        .unwrap();
        assert!(cold.stats().insertions > 0);
        assert_eq!(populated.table, plain.table);
    }

    #[test]
    fn a_served_table_is_never_a_capped_slab() {
        use crate::cache::{CacheConfig, StwigCache};
        use crate::config::ResultMode;
        // The path a – b – c – d over 300 a–b–c chains and not one c–d edge:
        // the (b; a, c) STwig has 300 rows — more than the first slab of a
        // first-1 query — and the (c; d) STwig after it matches nowhere.
        // (Spare c's and many d's make b the rarest root, so the planner
        // starts there.)
        let mut gb = GraphBuilder::new_undirected();
        for i in 0..300u64 {
            gb.add_vertex(v(i), "a");
            gb.add_vertex(v(1000 + i), "b");
            gb.add_vertex(v(2000 + i), "c");
            gb.add_vertex(v(2300 + i), "c");
            gb.add_edge(v(i), v(1000 + i));
            gb.add_edge(v(1000 + i), v(2000 + i));
        }
        for i in 0..700u64 {
            gb.add_vertex(v(3000 + i), "d");
        }
        let cloud = gb.build(2, CostModel::default());
        let mut qb = QueryGraph::builder();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|l| qb.vertex_by_name(&cloud, l).unwrap());
        qb.edge(a, b).edge(b, c).edge(c, d);
        let query = qb.build().unwrap();
        let config = MatchConfig::default()
            .with_num_threads(Some(1))
            .with_result_mode(ResultMode::FirstK(1));
        let plan = plan_query(&cloud, &query).unwrap();
        assert_eq!((plan.stwigs[0].root, plan.stwigs[1].root), (b, c));
        // Without a cache the full slab of the first STwig could have hidden
        // the rows that join: exploration must grow it once to be sure.
        let plain = match_query(&cloud, &query, &config, Run::default()).unwrap();
        assert_eq!(plain.metrics.explore_rounds, 2);
        // A served table is complete whatever its size: one round proves
        // there is no answer, populating or hitting.
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        for _ in 0..2 {
            let out = match_query(
                &cloud,
                &query,
                &config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            )
            .unwrap();
            assert_eq!(out.metrics.stwig_rows, [300, 0]);
            assert_eq!(out.metrics.explore_rounds, 1);
            assert_eq!(out.metrics.outcome, QueryOutcome::Complete);
            assert_eq!(out.table.num_rows(), 0);
            assert!(!out.metrics.truncated);
        }
        assert!(cache.stats().hits > 0);
    }

    /// A query over labels "a", "b", "c" whose vertices are created in the
    /// order of `names` (so the numbering can run with or against the label
    /// order): the star a–b, a–c, closed into a triangle when asked.
    fn abc_query(cloud: &MemoryCloud, names: [&str; 3], triangle: bool) -> QueryGraph {
        let mut qb = QueryGraph::builder();
        let mut id = std::collections::HashMap::new();
        for name in names {
            id.insert(name, qb.vertex_by_name(cloud, name).unwrap());
        }
        qb.edge(id["a"], id["b"]).edge(id["a"], id["c"]);
        if triangle {
            qb.edge(id["b"], id["c"]);
        }
        qb.build().unwrap()
    }

    #[test]
    fn renumbered_queries_share_one_entry_and_match_uncached_exploration() {
        use crate::cache::{CacheConfig, StwigCache};
        for machines in 1usize..=4 {
            let cloud = sample_cloud(machines);
            for mode in [TransportMode::DirectRead, TransportMode::Messages] {
                let config = MatchConfig::default().with_transport_mode(mode);
                let ctx = format!("machines = {machines}, {mode:?}");
                // The star is one STwig (a; b, c); numbering "c" before
                // "b" reverses its children against the id order.
                let forward = abc_query(&cloud, ["a", "b", "c"], false);
                let reversed = abc_query(&cloud, ["a", "c", "b"], false);
                let cache = StwigCache::new(&cloud, CacheConfig::default());
                let mut outputs = Vec::new();
                for query in [&forward, &reversed, &forward] {
                    let plain = match_query(&cloud, query, &config, Run::default()).unwrap();
                    let cached = match_query(
                        &cloud,
                        query,
                        &config,
                        Run {
                            cache: Some(&cache),
                            ..Run::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(plain.table, cached.table, "{ctx}");
                    outputs.push(cached.table);
                }
                let stats = cache.stats();
                assert_eq!(
                    (stats.misses, stats.insertions, stats.entries, stats.hits),
                    (1, 1, 1, 2),
                    "one populate serves both numberings ({ctx})"
                );
                // Columns are canonical for both numberings; the rows
                // are equal once "c" and "b" swap back.
                assert_eq!(outputs[0].columns(), &[QVid(0), QVid(1), QVid(2)]);
                assert_eq!(outputs[1].columns(), &[QVid(0), QVid(1), QVid(2)]);
                let swapped = outputs[1].rows().map(|r| [r[0], r[2], r[1]]);
                assert!(outputs[0].rows().eq(swapped), "{ctx}");

                // The triangle's STwigs bind each other: the renumbered
                // twin is served from the first one's entries through
                // the binding-filtered derivation.
                let forward = abc_query(&cloud, ["a", "b", "c"], true);
                let reversed = abc_query(&cloud, ["c", "b", "a"], true);
                let cache = StwigCache::new(&cloud, CacheConfig::default());
                for query in [&forward, &reversed] {
                    let plain = match_query(&cloud, query, &config, Run::default()).unwrap();
                    let cached = match_query(
                        &cloud,
                        query,
                        &config,
                        Run {
                            cache: Some(&cache),
                            ..Run::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(plain.table, cached.table, "{ctx}");
                    assert_eq!(plain.metrics.stwig_rows, cached.metrics.stwig_rows);
                }
                assert!(cache.stats().hits > 0, "{ctx}");
            }
        }
    }

    #[test]
    fn hand_built_non_canonical_stwig_is_explored_and_never_cached() {
        use crate::cache::{CacheConfig, StwigCache};
        for machines in [1usize, 3] {
            let cloud = sample_cloud(machines);
            // q1 is "c", q2 is "b": `STwig::new` lists them by id, against
            // the label order the planner would use.
            let query = abc_query(&cloud, ["a", "c", "b"], false);
            let config = MatchConfig::default().with_num_threads(Some(1));
            let planned = plan_query(&cloud, &query).unwrap().stwigs;
            assert_eq!(
                planned,
                [STwig {
                    root: QVid(0),
                    children: vec![QVid(2), QVid(1)],
                }]
            );
            let hand_built = STwig::new(QVid(0), vec![QVid(1), QVid(2)]);
            assert!(!hand_built.has_canonical_children(&query));
            let via_cache = |stwig: &STwig, cache: &StwigCache| {
                explore_via_cache(
                    &cloud,
                    &in_place(&cloud),
                    &query,
                    stwig,
                    &config,
                    cache,
                    None,
                    1,
                )
                .unwrap()
            };
            let cache = StwigCache::new(&cloud, CacheConfig::default());
            // Cold cache: handed back for exploration, not probed, nothing
            // inserted.
            assert!(matches!(via_cache(&hand_built, &cache), ViaCache::Unserved));
            assert_eq!(cache.stats(), crate::metrics::CacheStats::default());
            // Warm cache (its planned twin's entry is resident): still
            // explored — a served entry would carry the "b" column first.
            let ViaCache::Served(twin, _) = via_cache(&planned[0], &cache) else {
                panic!("the planned twin populates and is served");
            };
            let warm = cache.stats();
            assert_eq!((warm.misses, warm.insertions), (1, 1));
            assert!(matches!(via_cache(&hand_built, &cache), ViaCache::Unserved));
            assert_eq!(cache.stats(), warm);
            let unbound = Bindings::new(query.num_vertices());
            let uncached: Vec<ResultTable> = explore_bound(
                &cloud,
                &in_place(&cloud),
                &query,
                &hand_built,
                &unbound,
                &config,
                None,
                1,
            )
            .unwrap()
            .into_iter()
            .map(|r| r.table)
            .collect();
            let c_label = query.label(QVid(1));
            for (table, twin) in uncached.iter().zip(twin.iter()) {
                assert_eq!(table.columns(), &[QVid(0), QVid(1), QVid(2)]);
                assert_eq!(table.num_rows(), twin.num_rows());
                for row in table.rows() {
                    assert_eq!(cloud.label_of_global(row[1]), Some(c_label));
                }
            }
        }
    }

    /// The sample graph under an epoch manager, the triangle query, and a
    /// batch wiring unused `b`/`c` vertices into every `a`: each of the
    /// query's (root label, child label) pairs is touched at several roots
    /// on several machines, and every unbound STwig table grows.
    fn churned_triangle(
        machines: usize,
    ) -> (
        trinity_sim::epoch::GraphEpochs,
        QueryGraph,
        trinity_sim::epoch::UpdateBatch,
    ) {
        let epochs = trinity_sim::epoch::GraphEpochs::new(sample_cloud(machines));
        let query = triangle_query(epochs.base_cloud());
        let mut batch = trinity_sim::epoch::UpdateBatch::new();
        for i in 0..10u64 {
            batch = batch
                .add_edge(v(i), v(11 + 2 * i))
                .add_edge(v(11 + 2 * i), v(31 + 2 * i))
                .add_edge(v(31 + 2 * i), v(i));
        }
        (epochs, query, batch)
    }

    /// The resident canonical tables of every shape in the query's plan
    /// (`None`: tombstoned or absent).
    fn resident(
        cache: &StwigCache,
        cloud: &MemoryCloud,
        query: &QueryGraph,
    ) -> Vec<(StwigShape, Option<crate::cache::CachedTables>)> {
        let plan = plan_query(cloud, query).unwrap();
        plan.stwigs
            .iter()
            .map(|stwig| {
                let shape = StwigShape::of(query, stwig, false);
                let tables = match cache.lookup(&shape, cloud) {
                    CacheLookup::Hit(tables) => Some(tables),
                    _ => None,
                };
                (shape, tables)
            })
            .collect()
    }

    #[test]
    fn repair_equals_populate_and_shares_untouched_machines() {
        use crate::cache::{CacheConfig, StwigCache};
        let (epochs, query, batch) = churned_triangle(4);
        let config = MatchConfig::default().with_num_threads(Some(1));
        let warm = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let snap0 = epochs.pin();
        match_query(
            &snap0,
            &query,
            &config,
            Run {
                cache: Some(&warm),
                ..Run::default()
            },
        )
        .unwrap();
        let before = resident(&warm, &snap0, &query);

        // One new a–b edge touches roots on at most two machines; then the
        // big batch touches every pair on every machine.
        let one_edge = trinity_sim::epoch::UpdateBatch::new().add_edge(v(0), v(11));
        for (step, update) in [one_edge, batch].iter().enumerate() {
            epochs.apply(update).unwrap();
            let snap = epochs.pin();
            let repairs = warm.stats().repairs;
            let repaired = match_query(
                &snap,
                &query,
                &config,
                Run {
                    cache: Some(&warm),
                    ..Run::default()
                },
            )
            .unwrap();
            let cold = StwigCache::new(&snap, CacheConfig::default());
            let populated = match_query(
                &snap,
                &query,
                &config,
                Run {
                    cache: Some(&cold),
                    ..Run::default()
                },
            )
            .unwrap();
            assert!(warm.stats().repairs > repairs, "step {step} touched a pair");
            assert_eq!(warm.stats().stale_evictions, 0);
            assert_eq!(repaired.table, populated.table);
            let after = resident(&warm, &snap, &query);
            assert_eq!(
                after,
                resident(&cold, &snap, &query),
                "repaired tables diverged from a cold populate (step {step})"
            );
            // A repair explores a subset of what a populate explores.
            let (r, p) = (&repaired.metrics, &populated.metrics);
            assert!(r.explore.roots_scanned < p.explore.roots_scanned);
            assert!(r.explore.cells_loaded <= p.explore.cells_loaded);
            assert!(r.explore.rows_emitted <= p.explore.rows_emitted);
            assert!(r.network_bytes <= p.network_bytes);
            if step == 0 {
                // Machines owning neither endpoint keep their table by
                // reference in the repaired entry (shapes the plan kept).
                let touched = [snap.machine_of(v(0)), snap.machine_of(v(11))];
                for (shape, new) in &after {
                    let Some((_, old)) = before.iter().find(|(s, _)| s == shape) else {
                        continue;
                    };
                    let (old, new) = (old.as_ref().unwrap(), new.as_ref().unwrap());
                    for k in snap.machines().filter(|k| !touched.contains(k)) {
                        assert!(
                            Arc::ptr_eq(&old[k.index()], &new[k.index()]),
                            "machine {k:?} was copied for {shape:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repair_that_crosses_the_row_cap_tombstones_and_explores_bound() {
        use crate::cache::{CacheConfig, StwigCache};
        let (epochs, query, batch) = churned_triangle(3);
        let config = MatchConfig::default().with_num_threads(Some(1));
        let snap0 = epochs.pin();
        // The largest table any shape holds before the batch; the batch
        // grows every shape, so a cap just above it is crossed by a repair
        // and by nothing at epoch 0.
        let probe = StwigCache::new(&snap0, CacheConfig::default());
        match_query(
            &snap0,
            &query,
            &config,
            Run {
                cache: Some(&probe),
                ..Run::default()
            },
        )
        .unwrap();
        let cap = resident(&probe, &snap0, &query)
            .iter()
            .flat_map(|(_, tables)| tables.as_ref().unwrap().iter())
            .map(|t| t.num_rows())
            .max()
            .unwrap()
            + 1;
        let capped = CacheConfig {
            populate_row_cap: Some(cap),
            ..CacheConfig::default()
        };
        let cache = StwigCache::new(epochs.base_cloud(), capped);
        match_query(
            &snap0,
            &query,
            &config,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        assert_eq!(cache.stats().bypasses, 0);
        epochs.apply(&batch).unwrap();
        let snap = epochs.pin();
        let plain = match_query(&snap, &query, &config, Run::default()).unwrap();
        let out = match_query(
            &snap,
            &query,
            &config,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        assert_eq!(out.table, plain.table);
        assert!(cache.stats().repairs > 0);
        let tombstoned = resident(&cache, &snap, &query)
            .iter()
            .filter(|(_, tables)| tables.is_none())
            .count();
        assert!(tombstoned > 0, "the outgrown shape must be tombstoned");
        assert!(cache.stats().bypasses > 0);
    }

    #[test]
    fn interrupted_repair_inserts_nothing() {
        use crate::cache::{CacheConfig, StwigCache};
        use crate::stream::{CancelToken, QueryOptions};
        let (epochs, query, batch) = churned_triangle(3);
        let config = MatchConfig::default().with_num_threads(Some(1));
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        match_query(
            &epochs.pin(),
            &query,
            &config,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        epochs.apply(&batch).unwrap();
        let snap = epochs.pin();
        let plan = plan_query(&snap, &query).unwrap();
        let stwig = &plan.stwigs[0];
        let shape = StwigShape::of(&query, stwig, false);
        let cancel = CancelToken::new();
        cancel.cancel();
        let control = QueryControl::new(&QueryOptions::none().with_cancel(cancel), Instant::now());
        let insertions = cache.stats().insertions;
        let repaired = explore_via_cache(
            &snap,
            &in_place(&snap),
            &query,
            stwig,
            &config,
            &cache,
            Some(&control),
            1,
        )
        .unwrap();
        assert!(matches!(repaired, ViaCache::Unserved));
        assert_eq!(cache.stats().insertions, insertions);
        assert!(
            matches!(cache.lookup(&shape, &snap), CacheLookup::Repair { .. }),
            "the stale entry must still be waiting for an uninterrupted repair"
        );
    }

    #[test]
    fn degraded_repair_is_used_once_and_never_cached() {
        use crate::cache::{CacheConfig, StwigCache};
        use trinity_sim::fault::FaultPlan;
        let (epochs, query, batch) = churned_triangle(4);
        let clean = MatchConfig::default()
            .with_num_threads(Some(1))
            .with_transport_mode(TransportMode::Messages);
        let crashed = QueryOptions::none().with_faults(Faults {
            on_loss: crate::retry::FailurePolicy::Degrade,
            ..Faults::new(FaultPlan::lossy(5).with_crash(1, 0))
        });
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        match_query(
            &epochs.pin(),
            &query,
            &clean,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        epochs.apply(&batch).unwrap();
        let snap = epochs.pin();
        let insertions = cache.stats().insertions;
        let partial = match_query(
            &snap,
            &query,
            &clean,
            Run {
                cache: Some(&cache),
                options: crashed.clone(),
                ..Run::default()
            },
        )
        .unwrap();
        assert_eq!(partial.metrics.outcome, QueryOutcome::Partial);
        assert!(partial.metrics.fault.machines_lost.contains(&1));
        verify_all(&snap, &query, &partial.table).unwrap();
        assert!(cache.stats().repairs > 0);
        assert_eq!(
            cache.stats().insertions,
            insertions,
            "degraded tables must never enter the cache"
        );
        // The entry is still there for a healthy repair, which is exact.
        let full = match_query(
            &snap,
            &query,
            &clean,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        let plain = match_query(&snap, &query, &clean, Run::default()).unwrap();
        assert_eq!(full.table, plain.table);
        assert!(cache.stats().insertions > insertions);
    }

    #[test]
    fn cache_for_a_different_cloud_is_rejected() {
        use crate::cache::{CacheConfig, StwigCache};
        let cloud = sample_cloud(2);
        let other = sample_cloud(3);
        let cache = StwigCache::new(&other, CacheConfig::default());
        let query = triangle_query(&cloud);
        let err = match_query(
            &cloud,
            &query,
            &MatchConfig::default(),
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        );
        assert!(err.is_err(), "mismatched fingerprint must be rejected");
    }

    #[test]
    fn transport_modes_are_bit_identical_and_messages_reads_nothing_remote() {
        use crate::config::TransportMode;
        for machines in [1usize, 2, 4, 7] {
            let cloud = sample_cloud(machines);
            for (name, base) in [
                ("exhaustive", MatchConfig::default()),
                ("paper", MatchConfig::paper_default()),
                ("no-bindings", MatchConfig::default().with_bindings(false)),
            ] {
                let query = triangle_query(&cloud);
                let direct = match_query(
                    &cloud,
                    &query,
                    &base.clone().with_transport_mode(TransportMode::DirectRead),
                    Run::default(),
                )
                .unwrap();
                // The cloud's aggregate only grows: every retired query adds
                // its ledger.
                let direct_remote = cloud.direct_remote_reads();
                let messages = match_query(
                    &cloud,
                    &query,
                    &base.clone().with_transport_mode(TransportMode::Messages),
                    Run::default(),
                )
                .unwrap();
                let ctx = format!("machines = {machines}, config = {name}");
                assert_eq!(
                    cloud.direct_remote_reads(),
                    direct_remote,
                    "Messages mode dereferenced a remote partition ({ctx})"
                );
                assert_eq!(direct.table, messages.table, "tables diverged ({ctx})");
                assert_eq!(
                    direct.metrics.matches_found, messages.metrics.matches_found,
                    "{ctx}"
                );
                assert_eq!(
                    direct.metrics.stwig_rows, messages.metrics.stwig_rows,
                    "{ctx}"
                );
                assert_eq!(
                    direct.metrics.explore, messages.metrics.explore,
                    "exploration counters must match across modes ({ctx})"
                );
                assert_eq!(direct.metrics.join, messages.metrics.join, "{ctx}");
                if machines > 1 {
                    // The legacy mode really was reading foreign partitions —
                    // which is exactly what this refactor eliminates.
                    assert!(
                        direct_remote > 0,
                        "DirectRead should tally remote reads ({ctx})"
                    );
                    assert!(
                        messages.metrics.network_messages > 0,
                        "Messages mode must charge real envelopes ({ctx})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_vertex_query_is_mode_independent() {
        use crate::config::TransportMode;
        for machines in [1usize, 3, 4] {
            let cloud = sample_cloud(machines);
            let mut qb = QueryGraph::builder();
            qb.vertex_by_name(&cloud, "d").unwrap();
            let query = qb.build().unwrap();
            let direct = match_query(
                &cloud,
                &query,
                &MatchConfig::default().with_transport_mode(TransportMode::DirectRead),
                Run::default(),
            )
            .unwrap();
            let messages = match_query(
                &cloud,
                &query,
                &MatchConfig::default().with_transport_mode(TransportMode::Messages),
                Run::default(),
            )
            .unwrap();
            assert_eq!(cloud.direct_remote_reads(), 0);
            assert_eq!(direct.table, messages.table, "machines = {machines}");
            assert_eq!(messages.metrics.matches_found, 5);
            // The posting-gather envelopes belong to the explore phase, so
            // the breakdown partitions the totals here too.
            assert_eq!(
                messages.metrics.phase_traffic.total_messages(),
                messages.metrics.network_messages,
                "machines = {machines}"
            );
            assert_eq!(
                messages.metrics.phase_traffic.total_bytes(),
                messages.metrics.network_bytes,
                "machines = {machines}"
            );
        }
    }

    #[test]
    fn phase_traffic_accounts_the_whole_query() {
        use crate::config::TransportMode;
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let cloud = sample_cloud(4);
            let query = triangle_query(&cloud);
            let cfg = MatchConfig::default().with_transport_mode(mode);
            let out = match_query(&cloud, &query, &cfg, Run::default()).unwrap();
            let pt = out.metrics.phase_traffic;
            // Exploration and join shipping both cross machines on this
            // graph; every message belongs to exactly one phase.
            assert!(pt.explore_messages > 0, "mode = {mode:?}");
            assert!(pt.join_ship_messages > 0, "mode = {mode:?}");
            assert_eq!(
                pt.total_messages(),
                out.metrics.network_messages,
                "phase breakdown must partition the totals (mode = {mode:?})"
            );
            assert_eq!(
                pt.total_bytes(),
                out.metrics.network_bytes,
                "mode = {mode:?}"
            );
        }
    }

    #[test]
    fn messages_mode_caching_stays_transparent() {
        use crate::cache::{CacheConfig, StwigCache};
        use crate::config::TransportMode;
        for machines in [1usize, 4] {
            let cloud = sample_cloud(machines);
            let query = triangle_query(&cloud);
            let config = MatchConfig::default().with_transport_mode(TransportMode::Messages);
            let cache = StwigCache::new(&cloud, CacheConfig::default());
            let plain = match_query(&cloud, &query, &config, Run::default()).unwrap();
            let miss = match_query(
                &cloud,
                &query,
                &config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            )
            .unwrap();
            let hit = match_query(
                &cloud,
                &query,
                &config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            )
            .unwrap();
            assert!(cache.stats().hits > 0);
            assert_eq!(plain.table, miss.table, "machines = {machines}");
            assert_eq!(plain.table, hit.table, "machines = {machines}");
            assert_eq!(
                cloud.direct_remote_reads(),
                0,
                "cache populate path must stay partition-local"
            );
        }
    }

    #[test]
    fn streaming_all_mode_delivers_every_match_in_canonical_order() {
        for machines in [1usize, 3, 4] {
            let cloud = sample_cloud(machines);
            let query = triangle_query(&cloud);
            let config = MatchConfig::default();
            let materialized = match_query(&cloud, &query, &config, Run::default()).unwrap();
            let mut sink = CollectSink::new();
            let metrics = match_query(
                &cloud,
                &query,
                &config,
                Run {
                    sink: Some(&mut sink),
                    ..Run::default()
                },
            )
            .unwrap()
            .metrics;
            let table = sink.into_table().unwrap();
            assert_eq!(
                table.columns(),
                query.vertices().collect::<Vec<_>>(),
                "streamed rows use canonical column order"
            );
            assert_eq!(table.num_rows(), materialized.num_matches());
            assert_eq!(
                canonical_rows(&query, &table),
                canonical_rows(&query, &materialized.table),
                "machines = {machines}"
            );
            assert_eq!(metrics.outcome, crate::metrics::QueryOutcome::Complete);
            assert_eq!(metrics.rows_streamed, table.num_rows() as u64);
            assert_eq!(metrics.matches_found, table.num_rows() as u64);
            assert!(metrics.time_to_first_result_us.is_some());
            assert_eq!(metrics.explore_rounds, 1, "All mode explores once");
            assert!(metrics.peak_table_bytes > 0);
            verify_all(&cloud, &query, &table).unwrap();
        }
    }

    #[test]
    fn streaming_first_k_returns_exactly_k_valid_embeddings() {
        use crate::config::ResultMode;
        for machines in [1usize, 4] {
            let cloud = sample_cloud(machines);
            let query = triangle_query(&cloud);
            let full =
                match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
            let full_rows: std::collections::HashSet<Vec<VertexId>> =
                canonical_rows(&query, &full.table).into_iter().collect();
            assert_eq!(full_rows.len(), 10);
            for k in [1usize, 3, 10, 25] {
                let config = MatchConfig::default().with_result_mode(ResultMode::FirstK(k));
                let mut sink = CollectSink::new();
                let metrics = match_query(
                    &cloud,
                    &query,
                    &config,
                    Run {
                        sink: Some(&mut sink),
                        ..Run::default()
                    },
                )
                .unwrap()
                .metrics;
                let table = sink.into_table().unwrap();
                assert_eq!(
                    table.num_rows(),
                    k.min(10),
                    "machines = {machines}, k = {k}"
                );
                assert_eq!(metrics.rows_streamed, k.min(10) as u64);
                assert_eq!(metrics.outcome, crate::metrics::QueryOutcome::Complete);
                let rows = canonical_rows(&query, &table);
                let distinct: std::collections::HashSet<_> = rows.iter().cloned().collect();
                assert_eq!(distinct.len(), rows.len(), "no duplicate embeddings");
                for row in &rows {
                    assert!(
                        full_rows.contains(row),
                        "streamed row must be a genuine embedding"
                    );
                }
                verify_all(&cloud, &query, &table).unwrap();
            }
        }
    }

    #[test]
    fn streaming_exists_mode_answers_with_one_row_or_none() {
        use crate::config::ResultMode;
        let cloud = sample_cloud(3);
        let config = MatchConfig::default().with_result_mode(ResultMode::Exists);
        // Positive: the triangle query has matches; exactly one row streams.
        let mut rows = 0u64;
        let mut sink = |_row: &[VertexId]| rows += 1;
        let metrics = match_query(
            &cloud,
            &triangle_query(&cloud),
            &config,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(rows, 1);
        assert_eq!(metrics.rows_streamed, 1);
        // Negative: d-d edges do not exist; zero rows, Complete outcome.
        let mut qb = QueryGraph::builder();
        let d1 = qb.vertex_by_name(&cloud, "d").unwrap();
        let d2 = qb.vertex_by_name(&cloud, "d").unwrap();
        qb.edge(d1, d2);
        let none_query = qb.build().unwrap();
        let mut rows = 0u64;
        let mut sink = |_row: &[VertexId]| rows += 1;
        let metrics = match_query(
            &cloud,
            &none_query,
            &config,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(rows, 0);
        assert_eq!(metrics.outcome, crate::metrics::QueryOutcome::Complete);
        assert_eq!(metrics.rows_streamed, 0);
    }

    #[test]
    fn streaming_resumes_exploration_until_k_is_satisfied() {
        use crate::config::ResultMode;
        // One `a` hub fanning out to 300 b's and 300 c's: the (a, {b, c})
        // STwig has 90_000 unconstrained rows, but only the lexicographically
        // *last* (b, c) pair closes a triangle. The first slab (k = 1 → 256
        // rows) provably misses it, so the executor must resume with bigger
        // slabs and still deliver the single valid embedding.
        let mut gb = GraphBuilder::new_undirected();
        gb.add_vertex(v(0), "a");
        for i in 0..300u64 {
            gb.add_vertex(v(100 + i), "b");
            gb.add_vertex(v(1000 + i), "c");
            gb.add_edge(v(0), v(100 + i));
            gb.add_edge(v(0), v(1000 + i));
        }
        gb.add_edge(v(399), v(1299)); // the only b-c edge: b_299 - c_299
        let cloud = gb.build(1, CostModel::default());
        let query = triangle_query(&cloud);
        let full = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(full.num_matches(), 1, "exactly one triangle by design");
        let config = MatchConfig::default().with_result_mode(ResultMode::FirstK(1));
        let mut sink = CollectSink::new();
        let metrics = match_query(
            &cloud,
            &query,
            &config,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        let table = sink.into_table().unwrap();
        assert_eq!(table.num_rows(), 1);
        assert_eq!(
            canonical_rows(&query, &table),
            canonical_rows(&query, &full.table)
        );
        assert!(
            metrics.explore_rounds >= 2,
            "the first slab must undershoot and resume (rounds = {})",
            metrics.explore_rounds
        );
        assert_eq!(metrics.outcome, crate::metrics::QueryOutcome::Complete);
    }

    #[test]
    fn streaming_honors_pre_set_cancellation_and_deadlines() {
        use crate::metrics::QueryOutcome;
        use crate::stream::CancelToken;
        let cloud = sample_cloud(4);
        let query = triangle_query(&cloud);
        // Pre-cancelled token: the first cooperative check fires before any
        // row is produced.
        let token = CancelToken::new();
        token.cancel();
        let mut sink = CollectSink::new();
        let metrics = match_query(
            &cloud,
            &query,
            &MatchConfig::default(),
            Run {
                options: QueryOptions::none().with_cancel(token),
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(metrics.outcome, QueryOutcome::Cancelled);
        assert_eq!(metrics.rows_streamed, 0);
        // Already-expired deadline.
        let mut sink = CollectSink::new();
        let metrics = match_query(
            &cloud,
            &query,
            &MatchConfig::default(),
            Run {
                options: QueryOptions::none()
                    .with_deadline(std::time::Duration::ZERO)
                    .clone(),
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(metrics.outcome, QueryOutcome::DeadlineExceeded);
        assert_eq!(metrics.rows_streamed, 0);
    }

    #[test]
    fn streaming_single_vertex_query_streams_postings() {
        use crate::config::ResultMode;
        let cloud = sample_cloud(3);
        let mut qb = QueryGraph::builder();
        qb.vertex_by_name(&cloud, "d").unwrap();
        let query = qb.build().unwrap();
        let mut rows: Vec<Vec<VertexId>> = Vec::new();
        let mut sink = |row: &[VertexId]| rows.push(row.to_vec());
        let metrics = match_query(
            &cloud,
            &query,
            &MatchConfig::default(),
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(rows.len(), 5);
        assert_eq!(metrics.rows_streamed, 5);
        assert!(!metrics.truncated);
        // FirstK(2) on the same scan truncates the stream.
        let config = MatchConfig::default().with_result_mode(ResultMode::FirstK(2));
        let mut rows = 0u64;
        let mut sink = |_row: &[VertexId]| rows += 1;
        let metrics = match_query(
            &cloud,
            &query,
            &config,
            Run {
                sink: Some(&mut sink),
                ..Run::default()
            },
        )
        .unwrap()
        .metrics;
        assert_eq!(rows, 2);
        assert!(metrics.truncated);
    }

    #[test]
    fn plan_exposes_head_and_cluster() {
        let cloud = sample_cloud(4);
        let query = triangle_query(&cloud);
        let plan = plan_query(&cloud, &query).unwrap();
        assert!(!plan.stwigs.is_empty());
        assert!(plan.head.head_index < plan.stwigs.len());
        assert_eq!(plan.cluster.num_machines(), 4);
    }
}
