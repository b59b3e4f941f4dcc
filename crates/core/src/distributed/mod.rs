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
//! retires, its metrics read the ledger — its direct remote reads, and its
//! traffic priced with the cloud's cost model into the simulated makespan
//! over machines of (measured compute time + simulated communication time).
//! No other book exists: the cloud keeps no traffic, so per-query traffic is
//! exact whatever runs beside it.
//!
//! **Transport modes** ([`crate::config::TransportMode`]). Under `DirectRead`
//! a machine may dereference remote partitions in place (the legacy
//! simulation shortcut; traffic is a per-access estimate). Under `Messages`
//! every machine is strictly partition-local: exploration runs
//! frontier/superstep style over a [`trinity_sim::transport::Transport`]
//! (per owner either the child labels' postings or batched projected `Load`
//! requests → owned label replies, whichever side is smaller), binding
//! synchronization posts `BindingDelta` messages, the join phase ships
//! load-set tables as `JoinRows` messages, and single-vertex queries gather
//! postings with `GetIds` exchanges. Result tables and `matches_found` are
//! bit-identical across modes (swept by `tests/parallel_equality.rs` and the
//! VF2 differential); only the traffic differs — the envelopes actually
//! sent — and `Messages` performs **zero** direct cross-partition reads.
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
//! **One file per phase.** `plan` is the proxy's step 1, `explore` step 2
//! (exploration and binding synchronization into a [`StwigTableSet`]),
//! `join_pass` step 3, and this file runs them: `execute_query` and its slab
//! rounds. Every exchange between machines is a method of `link::Link`, the
//! one place that knows the query's transport; `execute_query` builds one a
//! query and lends it to every phase and round. The repo benchmark times
//! exploration and the join separately through the hidden `compat` module,
//! whose wrappers run `explore` and `join_pass` on their own.

mod explore;
mod join_pass;
mod link;
mod plan;

pub(crate) use explore::produce_tables;
pub use explore::StwigTableSet;
pub(crate) use join_pass::join_pass;
pub use link::LOAD_BATCH_IDS;
pub(crate) use link::{check_faults, Link};
pub use plan::{plan_query, QueryPlan};

use crate::cache::StwigCache;
use crate::config::MatchConfig;
use crate::error::StwigError;
use crate::metrics::{MachineMetrics, PhaseTraffic, QueryMetrics, QueryOutcome};
use crate::query::{QVid, QueryGraph};
use crate::stream::{Interrupt, QueryControl, QueryOptions, ResultSink};
use crate::table::ResultTable;
use std::borrow::Cow;
use std::time::Instant;
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::network::Network;
use trinity_sim::MemoryCloud;

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

/// The cache/cloud guard, lest a foreign cache serve another cloud's tables
/// or plans. Every executor path that takes a cache checks it first.
pub(crate) fn check_cache(
    cloud: &MemoryCloud,
    cache: Option<&StwigCache>,
) -> Result<(), StwigError> {
    if cache.is_some_and(|cache| !cache.matches_cloud(cloud)) {
        return Err(StwigError::Internal(
            "STwig cache was built for a different memory cloud".into(),
        ));
    }
    Ok(())
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
pub(crate) struct StreamState<'s> {
    output: Output<'s>,
    started: Instant,
    streamed: u64,
    first_us: Option<f64>,
}

impl<'s> StreamState<'s> {
    /// Opens the output for rows in `columns` order: announces them to the
    /// sink when there is one, creates the table otherwise.
    pub(crate) fn begin(
        sink: Option<&'s mut dyn ResultSink>,
        columns: &[QVid],
        started: Instant,
    ) -> Self {
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
    pub(crate) fn finish(mut self, metrics: &mut QueryMetrics) -> Option<ResultTable> {
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
    // The query's one ledger: every charge it makes, and nothing else; and
    // its one link, over which every phase and slab round reaches the other
    // machines, so a fault's state (a crashed machine) outlasts the phase
    // it fired in.
    let ledger = Network::new(cloud.num_machines());
    let link = Link::new(cloud, &ledger, config, control.faults());
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
            &link,
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
            &link,
            &mut metrics,
            &mut machine_metrics,
            &mut state,
        )?
    };
    metrics.fault.duplicates_suppressed += link.duplicates_suppressed();
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
/// machine order, as the proxy (machine 0) gathers them
/// ([`Link::postings`]), stopping at the limit, with a cooperative check per
/// machine. Returns whether the limit cut the scan.
fn scan_single_vertex(
    cloud: &MemoryCloud,
    label: LabelId,
    config: &MatchConfig,
    control: &QueryControl,
    link: &Link<'_>,
    metrics: &mut QueryMetrics,
    state: &mut StreamState<'_>,
) -> Result<bool, StwigError> {
    let limit = config.result_limit();
    let proxy = MachineId(0);
    let mut limit_hit = false;
    'scan: for k in cloud.machines() {
        if control.interrupted() {
            break;
        }
        let owned = link.postings(cloud, proxy, k, label, control, &mut metrics.fault)?;
        for id in owned {
            if limit.is_some_and(|l| state.streamed >= l as u64) {
                limit_hit = true;
                break 'scan;
            }
            state.deliver(&[id]);
        }
    }
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
    link: &Link<'_>,
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
            link,
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
                link,
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
            link,
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

/// Retires a ledger into `metrics`: its phase traffic and its direct remote reads.
pub(crate) fn retire(ledger: &Network, metrics: &mut QueryMetrics) {
    metrics.phase_traffic.merge(&PhaseTraffic::of(ledger));
    metrics.direct_remote_reads += ledger.direct_remote_reads();
}

/// Reads the query's traffic off its ledger, prices it with the cloud's cost
/// model, and retires the ledger. A query that fails retires nothing.
fn finalize(metrics: &mut QueryMetrics, cloud: &MemoryCloud, ledger: &Network, started: Instant) {
    // One snapshot of the P×P counters serves every figure below.
    let traffic = ledger.snapshot();
    let cost = cloud.cost_model();
    retire(ledger, metrics);
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
    use crate::cache::{CacheLookup, StwigShape};
    use crate::config::TransportMode;
    use crate::metrics::{ExploreCounters, JoinCounters};
    use crate::retry::Faults;
    use crate::stream::CollectSink;
    use crate::verify::{canonical_rows, same_answer, verify_all};
    use std::sync::Arc;
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    pub(super) fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    pub(super) fn sample_cloud(machines: usize) -> MemoryCloud {
        // A slightly larger labeled graph with multiple triangles and squares.
        let mut gb = GraphBuilder::default();
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

    pub(super) fn triangle_query(cloud: &MemoryCloud) -> QueryGraph {
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(cloud, "a").unwrap();
        let b = qb.vertex_by_name(cloud, "b").unwrap();
        let c = qb.vertex_by_name(cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c).edge(c, a);
        qb.build().unwrap()
    }

    /// The running example of the paper (Figure 1): the query d–a, a–b,
    /// a–c, b–c has the answers (a1,b1,c1,d1) and (a2,b1,c1,d1).
    #[test]
    fn figure1_example_produces_expected_matches() {
        for machines in [1usize, 2, 4, 7] {
            let mut gb = GraphBuilder::default();
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
        // What the query counts is its R_k runs during the join, not the
        // cache's tables during exploration, which lent them.
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
        let mut gb = GraphBuilder::default();
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
    pub(super) fn abc_query(cloud: &MemoryCloud, names: [&str; 3], triangle: bool) -> QueryGraph {
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

    /// The sample graph under an epoch manager, the triangle query, and a
    /// batch wiring unused `b`/`c` vertices into every `a`: each of the
    /// query's (root label, child label) pairs is touched at several roots
    /// on several machines, and every unbound STwig table grows.
    pub(super) fn churned_triangle(
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
        assert!(err.is_err(), "a foreign cache must be rejected");
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
                let direct_remote = direct.metrics.direct_remote_reads;
                let messages = match_query(
                    &cloud,
                    &query,
                    &base.clone().with_transport_mode(TransportMode::Messages),
                    Run::default(),
                )
                .unwrap();
                let ctx = format!("machines = {machines}, config = {name}");
                assert_eq!(
                    messages.metrics.direct_remote_reads, 0,
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
            assert_eq!(direct.metrics.direct_remote_reads, 0);
            assert_eq!(messages.metrics.direct_remote_reads, 0);
            assert_eq!(direct.table, messages.table, "machines = {machines}");
            assert_eq!(messages.metrics.matches_found, 5);
            // The posting-gather envelopes belong to the explore phase, so
            // the breakdown partitions the totals here too.
            let pt = messages.metrics.phase_traffic;
            assert_eq!(
                pt.explore_messages + pt.binding_sync_messages + pt.join_ship_messages,
                messages.metrics.network_messages,
                "machines = {machines}"
            );
            assert_eq!(
                pt.explore_bytes + pt.binding_sync_bytes + pt.join_ship_bytes,
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
                pt.explore_messages + pt.binding_sync_messages + pt.join_ship_messages,
                out.metrics.network_messages,
                "phase breakdown must partition the totals (mode = {mode:?})"
            );
            assert_eq!(
                pt.explore_bytes + pt.binding_sync_bytes + pt.join_ship_bytes,
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
            for out in [&plain, &miss, &hit] {
                assert_eq!(
                    out.metrics.direct_remote_reads, 0,
                    "cache populate path must stay partition-local"
                );
            }
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
        let mut gb = GraphBuilder::default();
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
