//! The serving engine: one `submit()` front door over one shared memory
//! cloud, with admission control and per-tenant fair scheduling.
//!
//! The paper's deployment target is a shared-memory cloud serving *many*
//! subgraph queries over one static graph ("heavy traffic" in the ROADMAP's
//! words). The executor in [`crate::distributed`] answers one query at a
//! time; this module is the serving layer above it:
//!
//! * every query enters through [`QueryEngine::submit`] as a
//!   [`QueryRequest`] and is answered with a [`QueryHandle`] (await the
//!   result, stream rows, poll status, cancel) — or refused at the door
//!   with [`Submit::Rejected`] when the bounded admission queue is full or
//!   the learned cost model predicts the deadline cannot be met (see
//!   [`crate::serve`]);
//! * admitted queries wait in per-tenant queues dispatched by a
//!   deficit-round-robin scheduler (fair shares of estimated work across
//!   tenants; earliest-deadline-first, then submission order, within one), and
//!   are *shed* at dispatch — [`crate::metrics::QueryOutcome::Shed`], zero
//!   execution work — once their deadline is hopeless. Shedding looks at
//!   the request's own deadline only: the engine keeps no fault state, so
//!   a machine failure under one request's fault plan never sheds another;
//! * dispatch happens on caller threads: [`QueryEngine::serve`] loops as a
//!   worker until told to stop, [`QueryEngine::drain`] runs the queue dry
//!   inline. All of them share one read-only [`MemoryCloud`]
//!   (`&MemoryCloud` is `Sync`; trinity-sim pins that with compile-time
//!   assertions) and one [`StwigCache`], so STwig tables explored for one
//!   query are reused by every later query with the same shape;
//! * [`QueryEngine::metrics_snapshot`] exports one coherent
//!   [`MetricsSnapshot`]: engine counters, admission/scheduling counters,
//!   and per-tenant goodput.
//!
//! ## Determinism
//!
//! Execution is deterministic in its *results*: every submission runs the
//! one executor ([`crate::distributed`]), and an STwig the cache serves —
//! hit, repair or the populate of a miss — contributes the same complete
//! tables whoever explored them (see [`crate::cache`]), so each query's
//! result table is a pure function of the cloud, the query, the
//! `MatchConfig` and whether a cache serves its shapes, regardless of
//! scheduling, interleaving or eviction. Without a cache it is the table
//! [`crate::distributed::match_query`] returns; with one it is
//! the same answer — the same row set under `ResultMode::All`, `k` distinct
//! valid embeddings under `FirstK(k)` — in the order, and with the
//! witnesses, the join over the complete tables yields. Timing-derived
//! metrics and the shared simulated-traffic counters are best-effort under
//! concurrency.

use crate::cache::{CacheConfig, StwigCache};
use crate::config::MatchConfig;
use crate::distributed::execute_query;
use crate::error::StwigError;
use crate::metrics::{CacheStats, EngineStats, MetricsSnapshot, QueryMetrics};
use crate::serve::admission::CostEstimator;
use crate::serve::scheduler::{Delivery, Dispatch, QueueEntry, Scheduler, Work};
use crate::serve::{
    HandleShared, QueryHandle, QueryRequest, QueryResponse, ServeConfig, Submit, TenantId,
};
use crate::stream::{CancelToken, ChannelSink, QueryOptions, ResultSink, RowStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use trinity_sim::epoch::{GraphEpochs, UpdateBatch};
use trinity_sim::MemoryCloud;

/// Configuration of a [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Threads a caller that serves a batch may drain the queue on. No
    /// library code reads it: the engine starts no threads, and
    /// [`QueryEngine::serve`] and [`QueryEngine::drain`] run on the
    /// caller's. Only the test helpers that drain a batch read it (`None`:
    /// the host's available parallelism; `Some(1)`: serially), and the
    /// frozen benchmark sets and asserts it, so it stays until the next
    /// `[benchmark]` change deletes it (ROADMAP item 10(a)).
    pub workers: Option<usize>,
    /// STwig-result cache configuration; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Per-query matching configuration. The default pins
    /// `num_threads = Some(1)` so parallelism comes from query fan-out
    /// rather than nested machine fan-out; override it for latency-oriented
    /// single-query workloads.
    pub match_config: MatchConfig,
    /// Admission-control and fair-scheduling configuration (see
    /// [`crate::serve`]).
    pub serve: ServeConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: None,
            cache: Some(CacheConfig::default()),
            match_config: MatchConfig::default().with_num_threads(Some(1)),
            serve: ServeConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: Option<usize>) -> Self {
        self.workers = workers;
        self
    }

    /// Sets (or disables) the cache configuration.
    pub fn with_cache(mut self, cache: Option<CacheConfig>) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the per-query matching configuration.
    pub fn with_match_config(mut self, config: MatchConfig) -> Self {
        self.match_config = config;
        self
    }

    /// Sets the serving-layer configuration (admission + scheduling).
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }
}

/// A multi-query serving engine over one shared, read-only memory cloud.
///
/// ```
/// use trinity_sim::prelude::*;
/// use stwig::prelude::*;
///
/// let mut gb = GraphBuilder::default();
/// gb.add_vertex(VertexId(1), "person");
/// gb.add_vertex(VertexId(2), "person");
/// gb.add_vertex(VertexId(3), "city");
/// gb.add_edge(VertexId(1), VertexId(2));
/// gb.add_edge(VertexId(1), VertexId(3));
/// gb.add_edge(VertexId(2), VertexId(3));
/// let cloud = gb.build(2, CostModel::default());
///
/// let mut qb = QueryGraph::builder();
/// let p1 = qb.vertex_by_name(&cloud, "person").unwrap();
/// let p2 = qb.vertex_by_name(&cloud, "person").unwrap();
/// let c = qb.vertex_by_name(&cloud, "city").unwrap();
/// qb.edge(p1, p2).edge(p1, c).edge(p2, c);
/// let query = qb.build().unwrap();
///
/// let engine = QueryEngine::new(&cloud, EngineConfig::default());
/// // Submit, serve the queue, await the handle.
/// let handle = engine
///     .submit(QueryRequest::new(query).with_tenant("docs"))
///     .expect_accepted();
/// engine.drain();
/// let response = handle.wait().unwrap();
/// assert_eq!(response.table.unwrap().num_rows(), 2); // (1,2,3) and (2,1,3)
/// let snapshot = engine.metrics_snapshot();
/// assert_eq!(snapshot.tenants[0].tenant, "docs");
/// assert_eq!(snapshot.tenants[0].completed, 1);
/// ```
pub struct QueryEngine<'c> {
    cloud: &'c MemoryCloud,
    /// The epoch manager behind a dynamic engine
    /// ([`QueryEngine::for_epochs`]): queries pin snapshots from it at
    /// admission and [`QueryEngine::apply_updates`] batches route through
    /// it. `None` for a static engine — every query runs on `cloud`.
    epochs: Option<&'c GraphEpochs>,
    config: EngineConfig,
    cache: Option<StwigCache<'c>>,
    /// The book: per-tenant queues, DRR state, the cost model and every
    /// serving count. The condvar signals enqueues to
    /// [`QueryEngine::serve`] workers parked on an empty queue.
    sched: Mutex<Scheduler>,
    work_available: Condvar,
}

impl std::fmt::Debug for QueryEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("workers", &self.config.workers)
            .field("cache", &self.cache.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'c> QueryEngine<'c> {
    /// Creates an engine serving queries over `cloud`.
    pub fn new(cloud: &'c MemoryCloud, config: EngineConfig) -> Self {
        let cache = config
            .cache
            .clone()
            .map(|cache_config| StwigCache::new(cloud, cache_config));
        QueryEngine {
            cloud,
            epochs: None,
            config,
            cache,
            sched: Mutex::new(Scheduler::default()),
            work_available: Condvar::new(),
        }
    }

    /// Creates an engine serving queries *and updates* over a dynamic
    /// cloud. Queries pin the current epoch's snapshot at admission and see
    /// exactly that epoch end to end; [`QueryEngine::apply_updates`] batches
    /// interleave with queries through the same admission queue and fair
    /// scheduler. The cache is built against the manager's base cloud and
    /// recognizes every same-lineage snapshot; per-entry epoch tags keep
    /// versions from aliasing (see [`crate::cache`]).
    pub fn for_epochs(epochs: &'c GraphEpochs, config: EngineConfig) -> Self {
        let mut engine = Self::new(epochs.base_cloud(), config);
        engine.epochs = Some(epochs);
        engine
    }

    /// The current epoch of a dynamic engine; `None` for a static one.
    pub(crate) fn current_epoch(&self) -> Option<u64> {
        self.epochs.map(GraphEpochs::epoch)
    }

    /// The book, locked.
    fn book(&self) -> MutexGuard<'_, Scheduler> {
        self.sched.lock().expect("scheduler lock")
    }

    /// Merges all delta overlays into fresh per-partition bases, rebuilding
    /// the id maps and string indexes and carrying signatures and label-pair
    /// statistics over — without changing the epoch number or any
    /// observable content, so pinned readers and resident cache entries are
    /// unaffected. Runs concurrently with queries; returns the (unchanged)
    /// current epoch, or `None` for a static engine. See
    /// [`trinity_sim::epoch::GraphEpochs::seal_epoch`].
    pub fn seal_epoch(&self) -> Option<u64> {
        self.epochs.map(|epochs| {
            let epoch = epochs.seal_epoch();
            self.book().epochs_sealed += 1;
            epoch
        })
    }

    /// The cloud this engine serves.
    pub fn cloud(&self) -> &MemoryCloud {
        self.cloud
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // The submit() front door
    // ------------------------------------------------------------------

    /// Submits a query for execution; **the** way queries enter the engine.
    ///
    /// Returns [`Submit::Accepted`] with a [`QueryHandle`] — await the
    /// result with [`QueryHandle::wait`], poll with
    /// [`QueryHandle::status`], cancel with [`QueryHandle::cancel`] — or
    /// [`Submit::Rejected`] when the bounded queue is full
    /// ([`crate::serve::RejectReason::QueueFull`]) or the calibrated cost
    /// model predicts the request's deadline cannot be met
    /// ([`crate::serve::RejectReason::EstimatedTooLate`]). Rejection costs O(query):
    /// no exploration work is spent and no transport envelope is charged.
    ///
    /// Admitted queries execute when a thread serves the queue — a
    /// [`QueryEngine::serve`] worker, or any call to
    /// [`QueryEngine::drain`]. The executor
    /// fills a table in canonical column order ([`QueryResponse::table`]);
    /// to stream rows instead, use [`QueryEngine::submit_streaming`]. Both
    /// run the same executor under the request's deadline, cancel token
    /// and result mode.
    pub fn submit(&self, request: QueryRequest) -> Submit {
        self.submit_with(request, Delivery::Collect)
    }

    /// Like [`QueryEngine::submit`], but delivers rows through a channel as
    /// they are produced: take the [`RowStream`] with [`QueryHandle::rows`]
    /// *before* the query is served. Rows cross the channel in batches
    /// (see [`ChannelSink`]); the response's `table` is `None`; the stream
    /// ends when the query finishes, after its last row. Dropping the
    /// `RowStream` while rows are still coming cancels the query: it stops
    /// at its next cooperative check and resolves
    /// [`crate::metrics::QueryOutcome::Cancelled`].
    pub fn submit_streaming(&self, request: QueryRequest) -> Submit {
        let (sender, receiver) = std::sync::mpsc::channel();
        let submitted = self.submit_with(request, Delivery::Channel(sender));
        if let Submit::Accepted(handle) = &submitted {
            handle.shared().set_rows(RowStream::new(receiver));
        }
        submitted
    }

    /// Prices a query and hands it to the admission path.
    fn submit_with(&self, request: QueryRequest, delivery: Delivery) -> Submit {
        let QueryRequest {
            query,
            tenant,
            options,
        } = request;
        // Pin the snapshot at admission: the query sees exactly the epoch
        // that was current when it was accepted, no matter how long it
        // queues or how many updates apply meanwhile — and it is priced on
        // that epoch's label frequencies, not the base cloud's.
        let snapshot = self.epochs.map(GraphEpochs::pin);
        let cost = CostEstimator::units(snapshot.as_deref().unwrap_or(self.cloud), &query);
        let work = Work::Query {
            query,
            mode: options.result_mode,
            faults: options.faults.map(Box::new),
            delivery,
            snapshot,
        };
        let cancel = options.cancel.unwrap_or_default();
        self.admit(tenant, cancel, work, cost, options.deadline)
    }

    /// The admission path of queries and update batches: the book decides
    /// and counts the submission; an admitted one is queued under a fresh
    /// handle and wakes one server.
    fn admit(
        &self,
        tenant: TenantId,
        cancel: CancelToken,
        work: Work,
        cost: f64,
        deadline: Option<Duration>,
    ) -> Submit {
        let now = Instant::now();
        let mut sched = self.book();
        let admission = &self.config.serve.admission;
        if let Err(reason) = sched.admit(&tenant, cost, deadline, admission) {
            return Submit::Rejected(reason);
        }
        let shared = Arc::new(HandleShared::new(tenant.clone(), cancel));
        let seq = sched.next_seq();
        let entry = QueueEntry {
            work,
            deadline: deadline.map(|d| now + d),
            submitted: now,
            cost,
            shared: Arc::clone(&shared),
            seq,
        };
        sched.enqueue(&tenant, entry);
        drop(sched);
        self.work_available.notify_one();
        Submit::Accepted(QueryHandle::from_shared(shared))
    }

    /// Submits a graph-update batch through the serving queue — **the**
    /// update door of a dynamic engine. The batch waits its turn under the
    /// same admission bounds and fair scheduler as queries (accounted to
    /// the reserved `"updates"` tenant, so sustained churn gets a fair
    /// share rather than starving or monopolizing query tenants), and is
    /// applied atomically through the engine's
    /// [`trinity_sim::epoch::GraphEpochs`] when dispatched. The handle
    /// resolves with `table: None` and [`QueryResponse::epoch`] set to the
    /// epoch *after* the batch applied (unchanged for a no-op batch); a
    /// batch that fails validation resolves with [`StwigError::Update`]
    /// having changed nothing.
    ///
    /// Queries admitted before the batch dispatches keep their pinned
    /// pre-update snapshots; queries admitted after it see the new epoch —
    /// updates never block queries and queries never block updates.
    ///
    /// On a static engine (built with [`QueryEngine::new`]) the batch is
    /// counted accepted and failed, and the returned handle resolves
    /// immediately with [`StwigError::Update`].
    pub fn apply_updates(&self, batch: UpdateBatch) -> Submit {
        let tenant = TenantId::new("updates");
        if self.epochs.is_none() {
            // Admitted and failed at once, so the counts still add up.
            let mut sched = self.book();
            let stats = sched.tenant_stats_mut(&tenant);
            stats.submitted += 1;
            stats.accepted += 1;
            stats.failed += 1;
            drop(sched);
            let shared = Arc::new(HandleShared::new(tenant, CancelToken::default()));
            shared.finish(Err(StwigError::Update(
                "engine serves a static cloud; build it with QueryEngine::for_epochs to accept updates"
                    .into(),
            )));
            return Submit::Accepted(QueryHandle::from_shared(shared));
        }
        // DRR cost: one unit per op, so a huge batch debits the updates
        // tenant proportionally more than a single-edge tweak.
        let cost = (batch.len() as f64).max(1.0);
        let work = Work::Update(batch);
        self.admit(tenant, CancelToken::default(), work, cost, None)
    }

    // ------------------------------------------------------------------
    // Serving the queue
    // ------------------------------------------------------------------

    /// Runs the queue dry on this thread (in scheduled order), then
    /// returns. Queries admitted concurrently keep being served until a
    /// poll finds the queue empty.
    pub fn drain(&self) {
        self.book().servers += 1;
        loop {
            let dispatch = self.book().pop();
            match dispatch {
                Some(dispatch) => self.execute(dispatch),
                None => break,
            }
        }
        self.book().servers -= 1;
    }

    /// Serves the queue on this thread until `stop` becomes true: the
    /// worker-loop body for open-loop serving. Park several of these on
    /// scoped threads to serve with N-way parallelism; new submissions wake
    /// idle workers promptly.
    ///
    /// ```no_run
    /// # use stwig::prelude::*;
    /// # use std::sync::atomic::{AtomicBool, Ordering};
    /// # fn serve(engine: &QueryEngine<'_>) {
    /// let stop = AtomicBool::new(false);
    /// std::thread::scope(|s| {
    ///     for _ in 0..2 {
    ///         s.spawn(|| engine.serve(&stop));
    ///     }
    ///     // ... submit load, then:
    ///     stop.store(true, Ordering::Release);
    /// });
    /// # }
    /// ```
    pub fn serve(&self, stop: &AtomicBool) {
        self.book().servers += 1;
        while !stop.load(Ordering::Acquire) {
            let dispatch = {
                let mut sched = self.book();
                match sched.pop() {
                    Some(dispatch) => Some(dispatch),
                    None => {
                        let (mut sched, _timeout) = self
                            .work_available
                            .wait_timeout(sched, Duration::from_millis(1))
                            .expect("scheduler lock");
                        sched.pop()
                    }
                }
            };
            if let Some(dispatch) = dispatch {
                self.execute(dispatch);
            }
        }
        self.book().servers -= 1;
    }

    /// Runs one dispatched entry and publishes its response through the
    /// handle: an entry dispatch settled (cancelled while queued, or shed)
    /// resolves at once, an update batch applies, a query executes.
    fn execute(&self, dispatch: Dispatch) {
        let Dispatch {
            entry,
            served_seq,
            queue_wait_us,
            settled,
        } = dispatch;
        let QueueEntry {
            work,
            deadline,
            cost,
            shared,
            ..
        } = entry;
        let tenant = shared.tenant();
        let respond = |table, metrics, epoch| QueryResponse {
            table,
            metrics,
            served_seq,
            queue_wait_us,
            epoch,
        };
        if let Some(outcome) = settled {
            let metrics = QueryMetrics {
                outcome,
                ..QueryMetrics::default()
            };
            shared.finish(Ok(respond(None, metrics, None)));
            return;
        }

        let (query, mode, faults, delivery, snapshot) = match work {
            Work::Query {
                query,
                mode,
                faults,
                delivery,
                snapshot,
            } => (query, mode, faults, delivery, snapshot),
            // Update application: the batch routes through the epochs
            // manager and the handle resolves with the post-apply epoch. No
            // snapshot, no executor.
            Work::Update(batch) => {
                let epochs = self
                    .epochs
                    .expect("update entries only enqueue on a dynamic engine");
                shared.mark_running();
                let started = Instant::now();
                let applied = epochs.apply(&batch).map_err(StwigError::from);
                let wall_us = started.elapsed().as_secs_f64() * 1e6;
                self.book().retire_update(tenant, wall_us, applied.is_ok());
                let response = |epoch| respond(None, QueryMetrics::default(), Some(epoch));
                shared.finish(applied.map(response));
                return;
            }
        };

        // The graph this query runs on: the snapshot pinned at admission
        // (dynamic engine), or the engine's static cloud.
        let cloud: &MemoryCloud = snapshot.as_deref().unwrap_or(self.cloud);
        let epoch = snapshot.as_ref().map(|snap| snap.epoch());

        // Execute. The deadline was pinned at submission: the executor gets
        // what remains of it, so queue wait counts against the budget.
        shared.mark_running();
        let run_options = QueryOptions {
            deadline: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            cancel: Some(shared.cancel_token().clone()),
            result_mode: mode,
            faults: faults.map(|faults| *faults),
        };
        // One executor, two outputs: a table it fills and hands back, or
        // the handle's channel. A consumer that dropped its `RowStream`
        // stops the query instead of leaving it to enumerate for nobody;
        // the sink (and with it the channel) goes away after its last batch
        // and before the handle resolves.
        let mut channel = match delivery {
            Delivery::Collect => None,
            Delivery::Channel(sender) => {
                Some(ChannelSink::new(sender).cancel_on_disconnect(shared.cancel_token().clone()))
            }
        };
        let started = Instant::now();
        let result = execute_query(
            cloud,
            &query,
            &self.config.match_config,
            &run_options,
            self.cache.as_ref(),
            channel.as_mut().map(|sink| sink as &mut dyn ResultSink),
        );
        drop(channel);
        let wall_us = started.elapsed().as_secs_f64() * 1e6;
        let metrics = result.as_ref().ok().map(|(_, metrics)| metrics);
        self.book().retire_query(tenant, cost, wall_us, metrics);
        shared.finish(result.map(|(table, metrics)| respond(table, metrics, epoch)));
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Snapshot of the cache counters, when caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(StwigCache::stats)
    }

    /// Snapshot of the engine-level counters.
    pub(crate) fn stats(&self) -> EngineStats {
        self.metrics_snapshot().engine
    }

    /// One coherent export of everything the engine counts: engine-level
    /// counters, admission/scheduling counters, and per-tenant goodput
    /// (sorted by tenant name). Every count is read from the scheduler's
    /// book under one lock, and each total that is a sum over tenants is
    /// summed from them, so the sections agree with each other; only the
    /// cache counters are read beside it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.book().snapshot();
        snapshot.engine.current_epoch = self.current_epoch();
        snapshot.engine.cache = self.cache_stats();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ResultMode, TransportMode};
    use crate::distributed::{match_query, MatchOutput, Run};
    use crate::metrics::QueryOutcome;
    use crate::query::QueryGraph;
    use crate::serve::{AdmissionConfig, QueryStatus, RejectReason};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::ids::VertexId;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn sample_cloud(machines: usize) -> MemoryCloud {
        let mut gb = GraphBuilder::default();
        for i in 0..12u64 {
            gb.add_vertex(v(i), "a");
        }
        for i in 12..36u64 {
            gb.add_vertex(v(i), "b");
        }
        for i in 36..60u64 {
            gb.add_vertex(v(i), "c");
        }
        for i in 0..12u64 {
            gb.add_edge(v(i), v(12 + 2 * i));
            gb.add_edge(v(12 + 2 * i), v(36 + 2 * i));
            gb.add_edge(v(36 + 2 * i), v(i));
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

    fn chain_query(cloud: &MemoryCloud) -> QueryGraph {
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(cloud, "a").unwrap();
        let b = qb.vertex_by_name(cloud, "b").unwrap();
        let c = qb.vertex_by_name(cloud, "c").unwrap();
        qb.edge(a, b).edge(b, c);
        qb.build().unwrap()
    }

    /// Serves `queries` through the door and waits for each, in input
    /// order: `submit` each (draining and resubmitting on `QueueFull`),
    /// drain on the configured worker count, `wait` for each.
    fn run_batch(
        engine: &QueryEngine<'_>,
        queries: &[QueryGraph],
    ) -> Vec<Result<MatchOutput, StwigError>> {
        let workers = (engine.config().workers)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
            .clamp(1, queries.len().max(1));
        let drain = || {
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(|| engine.drain());
                }
                engine.drain();
            })
        };
        let handles: Vec<QueryHandle> = (queries.iter())
            .map(|query| loop {
                match engine.submit(QueryRequest::new(query.clone())) {
                    Submit::Accepted(handle) => break handle,
                    Submit::Rejected(RejectReason::QueueFull { .. }) => drain(),
                    Submit::Rejected(reason) => panic!("refused: {reason}"),
                }
            })
            .collect();
        drain();
        (handles.into_iter().zip(queries))
            .map(|(handle, query)| {
                let response = handle.wait()?;
                let table = (response.table)
                    .unwrap_or_else(|| crate::table::ResultTable::new(query.vertices().collect()));
                Ok(MatchOutput {
                    table,
                    metrics: response.metrics,
                })
            })
            .collect()
    }

    #[test]
    fn batch_outputs_match_the_serial_executor_in_input_order() {
        let cloud = sample_cloud(4);
        let queries = vec![
            triangle_query(&cloud),
            chain_query(&cloud),
            triangle_query(&cloud),
            chain_query(&cloud),
        ];
        let engine = QueryEngine::new(&cloud, EngineConfig::default().with_workers(Some(4)));
        let outputs = run_batch(&engine, &queries);
        assert_eq!(outputs.len(), queries.len());
        for (q, out) in queries.iter().zip(&outputs) {
            let expected = match_query(
                &cloud,
                q,
                &MatchConfig::default().with_num_threads(Some(1)),
                Run::default(),
            )
            .unwrap();
            let out = out.as_ref().expect("query succeeds");
            assert_eq!(out.table, expected.table, "engine result diverged");
        }
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let cloud = sample_cloud(3);
        let queries: Vec<QueryGraph> = (0..6).map(|_| triangle_query(&cloud)).collect();
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let config = EngineConfig::default()
                .with_workers(Some(2))
                .with_match_config(MatchConfig::default().with_transport_mode(mode));
            let engine = QueryEngine::new(&cloud, config);
            let outputs = run_batch(&engine, &queries);
            assert!(outputs.iter().all(|o| o.is_ok()));
            let cache = engine.cache_stats().expect("cache enabled by default");
            assert!(cache.insertions > 0);
            assert!(
                cache.hits > 0,
                "identical queries must share cached STwig tables ({mode:?}): {cache:?}"
            );
        }
    }

    #[test]
    fn a_warm_repeat_through_the_door_indexes_and_syncs_nothing() {
        let cloud = sample_cloud(3);
        let query = triangle_query(&cloud);
        let engine = QueryEngine::new(
            &cloud,
            EngineConfig::default()
                .with_workers(Some(1))
                .with_match_config(
                    MatchConfig::paper_default().with_transport_mode(TransportMode::DirectRead),
                ),
        );
        let ask = || {
            let handle = engine
                .submit(QueryRequest::new(query.clone()))
                .expect_accepted();
            engine.drain();
            handle.wait().unwrap()
        };
        let first = ask();
        let second = ask();
        assert!(first.metrics.join.build_rows > 0);
        assert_eq!(second.metrics.join.build_rows, 0);
        assert_eq!(second.metrics.phase_traffic.binding_sync_bytes, 0);
        assert_eq!(second.table, first.table);
        assert!(second.table.is_some_and(|t| t.num_rows() > 0));
        let cache = engine.cache_stats().unwrap();
        assert!(cache.index_hits > 0 && cache.index_bytes > 0);
    }

    #[test]
    fn engine_without_cache_still_answers() {
        let cloud = sample_cloud(2);
        for mode in [TransportMode::DirectRead, TransportMode::Messages] {
            let engine = QueryEngine::new(
                &cloud,
                EngineConfig::default()
                    .with_cache(None)
                    .with_workers(Some(2))
                    .with_match_config(MatchConfig::default().with_transport_mode(mode)),
            );
            let out = run_batch(&engine, &[triangle_query(&cloud)])
                .remove(0)
                .unwrap();
            assert_eq!(out.num_matches(), 12, "{mode:?}");
            assert!(engine.stats().cache.is_none());
        }
    }

    #[test]
    fn stats_track_queries_and_throughput() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default().with_workers(Some(1)));
        let queries = vec![triangle_query(&cloud), chain_query(&cloud)];
        run_batch(&engine, &queries);
        run_batch(&engine, &[triangle_query(&cloud)])
            .remove(0)
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.queries_executed, 3);
        assert!(stats.busy_us > 0.0);
    }

    #[test]
    fn first_k_and_exists_requests_stop_early() {
        let cloud = sample_cloud(3);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let full = run_batch(&engine, &[triangle_query(&cloud)])
            .remove(0)
            .unwrap();
        assert_eq!(full.num_matches(), 12);
        let submit = |mode| {
            let request = QueryRequest::new(triangle_query(&cloud)).with_result_mode(mode);
            let handle = engine.submit(request).expect_accepted();
            engine.drain();
            handle.wait().unwrap()
        };
        let first = submit(ResultMode::FirstK(5));
        let table = first.table.unwrap();
        assert_eq!(table.num_rows(), 5);
        assert_eq!(first.metrics.rows_streamed, 5);
        // Every first-k row is one of the full enumeration's embeddings.
        let full_rows: std::collections::HashSet<Vec<_>> =
            crate::verify::canonical_rows(&triangle_query(&cloud), &full.table)
                .into_iter()
                .collect();
        for row in crate::verify::canonical_rows(&triangle_query(&cloud), &table) {
            assert!(full_rows.contains(&row));
        }
        let exists = submit(ResultMode::Exists);
        assert_eq!(exists.table.unwrap().num_rows(), 1);
        assert_eq!(exists.metrics.rows_streamed, 1);
    }

    #[test]
    fn interrupted_outcomes_are_tallied() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        // The consumer lets go before the query is served: the first batch
        // finds no receiver, which cancels the query mid-execution.
        let handle = engine
            .submit_streaming(QueryRequest::new(triangle_query(&cloud)))
            .expect_accepted();
        drop(handle.rows().expect("channel delivery exposes rows"));
        engine.drain();
        let response = handle.wait().unwrap();
        assert_eq!(response.metrics.outcome, QueryOutcome::Cancelled);
        assert!(response.metrics.rows_streamed < 12);
        let stats = engine.stats();
        assert_eq!(stats.queries_cancelled, 1);
        assert_eq!(stats.queries_executed, 1);

        // A deadline alive at dispatch (so the door does not shed it) that
        // runs out mid-execution: every exchange is refused once, and the
        // first backoff outlasts the deadline.
        let messages = MatchConfig::default().with_transport_mode(TransportMode::Messages);
        let refusing = crate::retry::Faults {
            retry: crate::retry::RetryPolicy {
                base_backoff_us: 2_000_000,
                max_backoff_us: 2_000_000,
                ..Default::default()
            },
            ..crate::retry::Faults::new(trinity_sim::fault::FaultPlan {
                unavailable: 1.0,
                ..Default::default()
            })
        };
        let engine = QueryEngine::new(&cloud, EngineConfig::default().with_match_config(messages));
        let options = QueryOptions::none()
            .with_deadline(std::time::Duration::from_millis(100))
            .with_faults(refusing);
        let request = QueryRequest::new(triangle_query(&cloud)).with_options(options);
        let handle = engine.submit(request).expect_accepted();
        engine.drain();
        let response = handle.wait().unwrap();
        assert_eq!(response.metrics.outcome, QueryOutcome::DeadlineExceeded);
        assert_eq!(engine.stats().queries_deadline_exceeded, 1);
        assert_eq!(engine.metrics_snapshot().tenants[0].deadline_exceeded, 1);
    }

    #[test]
    fn a_transport_fault_fails_only_its_own_batch_slot() {
        let cloud = sample_cloud(3);
        let config = MatchConfig::default().with_transport_mode(TransportMode::Messages);
        let engine = QueryEngine::new(
            &cloud,
            EngineConfig::default()
                .with_workers(Some(2))
                .with_cache(None)
                .with_match_config(config.clone()),
        );
        let query = triangle_query(&cloud);
        // The same query three times, each exploring (no cache to serve
        // it): the outer two requests run with machine 1 crashed, the
        // middle one fault-free.
        let plan = trinity_sim::fault::FaultPlan::default().with_crash(1, 0);
        let crashed = QueryOptions::none().with_faults(crate::retry::Faults::new(plan));
        let handles: Vec<QueryHandle> = [&crashed, &QueryOptions::none(), &crashed]
            .map(|options| QueryRequest::new(query.clone()).with_options(options.clone()))
            .map(|request| engine.submit(request).expect_accepted())
            .into();
        std::thread::scope(|scope| {
            scope.spawn(|| engine.drain());
            engine.drain();
        });
        let outputs: Vec<_> = handles.into_iter().map(QueryHandle::wait).collect();
        for slot in [0, 2] {
            assert!(
                matches!(
                    &outputs[slot],
                    Err(StwigError::MachineUnavailable { machine: 1, .. })
                ),
                "slot {slot} must fail with the crashed machine, got {:?}",
                outputs[slot]
            );
        }
        // The healthy request's slot is untouched by its neighbors' faults.
        let expected = match_query(
            &cloud,
            &query,
            &config.with_num_threads(Some(1)),
            Run::default(),
        )
        .unwrap();
        let ok = outputs[1].as_ref().expect("healthy slot succeeds");
        assert_eq!(ok.table.as_ref(), Some(&expected.table));
    }

    #[test]
    fn submit_drain_wait_returns_the_executors_table() {
        let cloud = sample_cloud(3);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let expected = match_query(
            &cloud,
            &triangle_query(&cloud),
            &MatchConfig::default().with_num_threads(Some(1)),
            Run::default(),
        )
        .unwrap();
        let handle = engine
            .submit(QueryRequest::new(triangle_query(&cloud)).with_tenant("t1"))
            .expect_accepted();
        assert_eq!(handle.status(), QueryStatus::Queued);
        assert_eq!(engine.metrics_snapshot().scheduler.queue_depth, 1);
        engine.drain();
        assert!(handle.is_finished());
        let response = handle.wait().unwrap();
        assert_eq!(response.table.as_ref(), Some(&expected.table));
        assert_eq!(response.served_seq, 0);
        assert!(response.queue_wait_us >= 0.0);
        let snapshot = engine.metrics_snapshot();
        assert_eq!(snapshot.scheduler.accepted, 1);
        assert_eq!(snapshot.scheduler.queue_depth, 0);
        let t1 = snapshot.tenants.iter().find(|t| t.tenant == "t1").unwrap();
        assert_eq!(t1.completed, 1);
        assert_eq!(t1.rows_delivered, 12);
    }

    #[test]
    fn submit_streaming_delivers_rows_through_the_handle() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let handle = engine
            .submit_streaming(QueryRequest::new(triangle_query(&cloud)))
            .expect_accepted();
        let rows = handle.rows().expect("channel delivery exposes rows");
        engine.drain();
        let received: Vec<_> = rows.into_iter().collect();
        assert_eq!(received.len(), 12);
        let response = handle.wait().unwrap();
        assert!(response.table.is_none());
        assert_eq!(response.metrics.rows_streamed, 12);
        assert_eq!(response.rows_delivered(), 12);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let cloud = sample_cloud(2);
        let serve = ServeConfig::default()
            .with_admission(AdmissionConfig::default().with_queue_capacity(2));
        let engine = QueryEngine::new(&cloud, EngineConfig::default().with_serve(serve));
        let q = triangle_query(&cloud);
        let _h1 = engine
            .submit(QueryRequest::new(q.clone()))
            .expect_accepted();
        let _h2 = engine
            .submit(QueryRequest::new(q.clone()))
            .expect_accepted();
        match engine.submit(QueryRequest::new(q.clone())) {
            Submit::Rejected(RejectReason::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // A batch meets the same bound, drains, and resubmits: a batch
        // larger than the queue still runs whole.
        let outputs = run_batch(&engine, &[q.clone(), q.clone(), q.clone(), q]);
        assert!(outputs.iter().all(|out| out.is_ok()));
        let snapshot = engine.metrics_snapshot();
        assert!(snapshot.scheduler.rejected_queue_full >= 2);
        assert_eq!(snapshot.scheduler.queue_depth, 0, "the batch drained all");
        assert_eq!(snapshot.engine.queries_executed, 6);
    }

    #[test]
    fn calibrated_estimator_rejects_hopeless_deadlines() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let q = triangle_query(&cloud);
        let units = CostEstimator::units(&cloud, &q);
        // Teach the estimator that this workload takes ~1 s per submission.
        for _ in 0..16 {
            engine.book().estimator.observe(units, 1_000_000.0);
        }
        let request = QueryRequest::new(q.clone()).with_deadline(Duration::from_micros(50));
        match engine.submit(request) {
            Submit::Rejected(RejectReason::EstimatedTooLate {
                predicted_us,
                deadline_us,
            }) => {
                assert!(predicted_us > deadline_us);
            }
            other => panic!("expected EstimatedTooLate, got {other:?}"),
        }
        // A comfortable deadline is still admitted.
        let request = QueryRequest::new(q).with_deadline(Duration::from_secs(3600));
        engine.submit(request).expect_accepted();
        assert_eq!(
            engine.metrics_snapshot().scheduler.rejected_estimated_late,
            1
        );
    }

    #[test]
    fn passed_deadline_is_shed_at_dispatch_without_execution() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let handle = engine
            .submit(QueryRequest::new(triangle_query(&cloud)).with_deadline(Duration::ZERO))
            .expect_accepted();
        engine.drain();
        let response = handle.wait().unwrap();
        assert!(response.was_shed());
        assert_eq!(response.metrics.outcome, QueryOutcome::Shed);
        assert!(response.table.is_none());
        // Zero execution work: no envelopes, no remote reads, no rows.
        assert_eq!(response.metrics.network_messages, 0);
        assert_eq!(response.metrics.direct_remote_reads, 0);
        let stats = engine.stats();
        assert_eq!(stats.queries_shed, 1);
        assert_eq!(stats.queries_executed, 0);
        let snapshot = engine.metrics_snapshot();
        assert_eq!(snapshot.scheduler.shed_deadline_passed, 1);
        assert_eq!(snapshot.tenants[0].shed, 1);
    }

    #[test]
    fn cancel_while_queued_resolves_without_execution() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let handle = engine
            .submit(QueryRequest::new(triangle_query(&cloud)))
            .expect_accepted();
        handle.cancel();
        engine.drain();
        let response = handle.wait().unwrap();
        assert_eq!(response.metrics.outcome, QueryOutcome::Cancelled);
        assert_eq!(response.metrics.network_messages, 0);
        let snapshot = engine.metrics_snapshot();
        assert_eq!(snapshot.scheduler.cancelled_while_queued, 1);
        assert_eq!(snapshot.engine.queries_cancelled, 1);
        assert_eq!(snapshot.engine.queries_executed, 0);
    }

    #[test]
    fn per_request_result_mode_overrides_the_engine_default() {
        let cloud = sample_cloud(3);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let handle = engine
            .submit(
                QueryRequest::new(triangle_query(&cloud)).with_result_mode(ResultMode::FirstK(4)),
            )
            .expect_accepted();
        engine.drain();
        let response = handle.wait().unwrap();
        assert_eq!(response.table.unwrap().num_rows(), 4);
    }

    #[test]
    fn serve_workers_execute_submissions_until_stopped() {
        let cloud = sample_cloud(2);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let stop = AtomicBool::new(false);
        let handles: Vec<QueryHandle> = std::thread::scope(|scope| {
            let worker = scope.spawn(|| engine.serve(&stop));
            let handles: Vec<QueryHandle> = (0..4)
                .map(|_| {
                    engine
                        .submit(QueryRequest::new(triangle_query(&cloud)))
                        .expect_accepted()
                })
                .collect();
            // Wait for the worker to finish everything, then stop it.
            while handles.iter().any(|h| !h.is_finished()) {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
            worker.join().expect("serve worker exits cleanly");
            handles
        });
        for handle in handles {
            let response = handle.wait().unwrap();
            assert_eq!(response.table.unwrap().num_rows(), 12);
        }
        assert_eq!(engine.stats().queries_executed, 4);
    }

    #[test]
    fn the_book_counts_the_threads_serving() {
        let cloud = sample_cloud(1);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| engine.serve(&stop));
            scope.spawn(|| engine.serve(&stop));
            while engine.book().servers < 2 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(engine.book().servers, 0);
        engine.drain();
        assert_eq!(engine.book().servers, 0);
    }

    // ------------------------------------------------------------------
    // Dynamic graphs: epoch-pinned snapshots and the update door
    // ------------------------------------------------------------------

    #[test]
    fn queries_pin_their_admission_epoch_across_later_updates() {
        let epochs = GraphEpochs::new(sample_cloud(2));
        let engine = QueryEngine::for_epochs(&epochs, EngineConfig::default());
        let query = triangle_query(epochs.base_cloud());

        // Admitted at epoch 0: pins the pre-update snapshot even though it
        // is only *served* after the update lands.
        let before = engine
            .submit(QueryRequest::new(query.clone()))
            .expect_accepted();

        // Removing v(0) (an "a" vertex) kills exactly one of the 12
        // triangles. Applied directly so the epoch advances before the next
        // admission, independent of scheduler order.
        epochs
            .apply(&UpdateBatch::new().remove_vertex(v(0)))
            .expect("valid batch applies");
        assert_eq!(epochs.epoch(), 1);

        // Admitted at epoch 1: sees the mutated graph.
        let after = engine.submit(QueryRequest::new(query)).expect_accepted();

        engine.drain();

        let before = before.wait().unwrap();
        assert_eq!(before.epoch, Some(0));
        assert_eq!(before.table.unwrap().num_rows(), 12);

        let after = after.wait().unwrap();
        assert_eq!(after.epoch, Some(1));
        assert_eq!(after.table.unwrap().num_rows(), 11);
    }

    #[test]
    fn apply_updates_flows_through_the_scheduler_and_reports_the_new_epoch() {
        let epochs = GraphEpochs::new(sample_cloud(2));
        let engine = QueryEngine::for_epochs(&epochs, EngineConfig::default());
        assert_eq!(engine.current_epoch(), Some(0));

        let batch = UpdateBatch::new()
            .add_vertex(v(900), "a")
            .add_edge(v(900), v(12));
        let handle = engine.apply_updates(batch).expect_accepted();
        engine.drain();

        let response = handle.wait().unwrap();
        assert_eq!(response.epoch, Some(1));
        assert!(response.table.is_none());
        assert_eq!(epochs.epoch(), 1);

        let stats = engine.stats();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.current_epoch, Some(1));
        assert_eq!(stats.epochs_sealed, 0);

        assert_eq!(engine.seal_epoch(), Some(1));
        assert_eq!(engine.stats().epochs_sealed, 1);
    }

    #[test]
    fn static_engine_refuses_updates_with_a_typed_error() {
        let cloud = sample_cloud(1);
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        assert_eq!(engine.current_epoch(), None);
        assert_eq!(engine.seal_epoch(), None);

        let handle = engine
            .apply_updates(UpdateBatch::new().add_vertex(v(99), "a"))
            .expect_accepted();
        // Resolves immediately; no drain required.
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, StwigError::Update(_)));
        assert_eq!(engine.stats().updates_applied, 0);
        assert_eq!(engine.stats().current_epoch, None);
        // Counted accepted and failed, like any admitted request that
        // resolves with an error.
        let snapshot = engine.metrics_snapshot();
        let scheduler = &snapshot.scheduler;
        assert_eq!(
            (
                scheduler.submitted,
                scheduler.accepted,
                scheduler.rejected()
            ),
            (1, 1, 0)
        );
        let updates = &snapshot.tenants[0];
        assert_eq!(updates.tenant, "updates");
        assert_eq!((updates.accepted, updates.failed), (1, 1));
        assert_eq!(
            updates.accepted,
            updates.completed
                + updates.cancelled
                + updates.deadline_exceeded
                + updates.shed
                + updates.failed
                + updates.queued
        );
    }

    #[test]
    fn refused_batch_resolves_typed_and_changes_nothing() {
        let epochs = GraphEpochs::new(sample_cloud(2));
        let engine = QueryEngine::for_epochs(&epochs, EngineConfig::default());

        let handle = engine
            .apply_updates(UpdateBatch::new().remove_vertex(v(9_999)))
            .expect_accepted();
        engine.drain();

        let err = handle.wait().unwrap_err();
        assert!(matches!(err, StwigError::Update(_)));
        assert_eq!(epochs.epoch(), 0);
        assert_eq!(engine.stats().updates_applied, 0);

        // The graph is untouched: all 12 triangles still match.
        let out = run_batch(&engine, &[triangle_query(epochs.base_cloud())])
            .remove(0)
            .unwrap();
        assert_eq!(out.table.num_rows(), 12);
    }
}
