//! Per-tenant fair scheduling: deficit round-robin across tenants,
//! earliest-deadline-first, then submission order, within a tenant.
//!
//! ## The model
//!
//! * **Across tenants — deficit round-robin (DRR).** Tenants with queued
//!   work sit in a ring. Each visit grants the tenant one quantum of
//!   *cost credit*: the EWMA of enqueued costs, about one average query
//!   per tenant per round. Costs come from [`crate::serve::admission`],
//!   so a hub-heavy query debits more than a point lookup — the
//!   scheduler's notion of fairness is estimated work, not request count.
//!   The tenant dispatches queries while its deficit covers the head's
//!   cost, then rotates to the back; unused deficit carries over, so a
//!   tenant whose head is expensive saves up across rounds instead of being
//!   locked out. A tenant with 10× the offered load gets the same service
//!   share as its neighbor — the excess just waits in *its own* queue (or
//!   is refused by admission), never in front of another tenant's work.
//! * **Within a tenant — EDF, then FIFO.** The tenant's queue is a heap
//!   ordered by (deadline, submission): deadline-carrying queries run
//!   earliest-deadline-first, and among equal deadlines (including the
//!   no-deadline bulk) the earlier submission runs first.
//!
//! The scheduler is also the engine's book: admission's verdict, dispatch
//! numbering, the shed check, the cost model and every serving count live
//! here, behind the engine's one scheduler lock. It is a passive data
//! structure; it never blocks and never touches the graph.

use super::admission::{AdmissionConfig, CostEstimator};
use super::tenant::{TenantId, TenantStats};
use super::{HandleShared, RejectReason};
use crate::config::ResultMode;
use crate::metrics::{EngineStats, MetricsSnapshot, QueryMetrics, QueryOutcome, SchedulerStats};
use crate::query::QueryGraph;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a finished query is delivered to its handle.
#[derive(Debug)]
pub(crate) enum Delivery {
    /// The executor fills a [`crate::table::ResultTable`] (canonical column
    /// order) that the response carries.
    Collect,
    /// Stream rows into the handle's channel, in batches, as they are
    /// produced; the response carries no table.
    Channel(std::sync::mpsc::Sender<crate::stream::RowBatch>),
}

/// What a queue entry asks the engine to do when it is dispatched.
#[derive(Debug)]
pub(crate) enum Work {
    /// Execute a query.
    Query {
        /// The query to execute.
        query: QueryGraph,
        /// Per-query result mode override (`None` = engine default).
        mode: Option<ResultMode>,
        /// The request's fault stack (`None` = fault-free); boxed, as the
        /// fault-free common case should not size every queue entry.
        faults: Option<Box<crate::retry::Faults>>,
        /// How results reach the caller.
        delivery: Delivery,
        /// The graph snapshot pinned at admission, when the engine serves a
        /// dynamic cloud: the query executes against exactly this epoch, no
        /// matter how many updates apply (or seals run) while it waits.
        snapshot: Option<trinity_sim::epoch::SnapshotRef>,
    },
    /// Apply a graph-update batch through the engine's
    /// [`trinity_sim::epoch::GraphEpochs`].
    Update(trinity_sim::epoch::UpdateBatch),
}

/// One admitted query or update batch waiting for dispatch.
#[derive(Debug)]
pub(crate) struct QueueEntry {
    /// What to do at dispatch.
    pub work: Work,
    /// Absolute deadline, pinned at submission so queue wait counts
    /// against it.
    pub deadline: Option<Instant>,
    /// When the entry was submitted.
    pub submitted: Instant,
    /// Estimated work units (DRR cost and shed predictor input).
    pub cost: f64,
    /// The waiter's side of the handle.
    pub shared: Arc<HandleShared>,
    /// Global submission index (total order tie-break).
    pub seq: u64,
}

/// Heap wrapper ordering entries min-first: deadline-carrying entries first
/// (earliest deadline wins), then the no-deadline bulk; ties by seq.
/// `BinaryHeap` is a max-heap, so `Ord` is reversed.
#[derive(Debug)]
struct Ordered(QueueEntry);

impl Ordered {
    /// Dispatch order; `Less` dispatches first.
    fn dispatch_cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self.0.deadline, other.0.deadline) {
            (Some(a), Some(b)) => a.cmp(&b).then(self.0.seq.cmp(&other.0.seq)),
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (None, None) => self.0.seq.cmp(&other.0.seq),
        }
    }
}

impl PartialEq for Ordered {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for Ordered {}
impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap's top is the smallest dispatch key.
        other.dispatch_cmp(self)
    }
}

/// One tenant's queue plus its DRR and accounting state. Stats persist
/// after the queue drains so the metrics snapshot keeps historical tenants.
#[derive(Debug, Default)]
struct TenantQueue {
    heap: BinaryHeap<Ordered>,
    /// Carried-over DRR cost credit.
    deficit: f64,
    /// Sum of queued entry costs (admission's wait predictor input).
    queued_cost: f64,
    /// Whether the tenant currently sits in the active ring.
    in_ring: bool,
    stats: TenantStats,
}

/// A dispatched entry, numbered, with what dispatch settled for it.
#[derive(Debug)]
pub(crate) struct Dispatch {
    pub entry: QueueEntry,
    /// Its place in dispatch order ([`crate::serve::QueryResponse::served_seq`]).
    pub served_seq: u64,
    /// Wall-clock it spent queued, in µs.
    pub queue_wait_us: f64,
    /// How it resolves without running: [`QueryOutcome::Cancelled`] if it
    /// was cancelled while queued, [`QueryOutcome::Shed`] if its deadline
    /// is hopeless. `None`: run it.
    pub settled: Option<QueryOutcome>,
}

/// The serving engine's book: per-tenant queues, the DRR ring, the cost
/// model and every serving count, all behind the engine's one scheduler
/// lock, so that each event is written once and a snapshot agrees with
/// itself.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    tenants: HashMap<TenantId, TenantQueue>,
    ring: VecDeque<TenantId>,
    depth: usize,
    seq: u64,
    /// EWMA of enqueued costs — the adaptive quantum.
    cost_ewma: f64,
    costs_seen: u64,
    /// The learned price of a work unit, for admission and the shed check.
    pub(crate) estimator: CostEstimator,
    /// Threads inside `QueryEngine::serve` or `QueryEngine::drain`: the
    /// servers the wait predictor divides the queued work by.
    pub(crate) servers: usize,
    /// Entries dispatched so far.
    dispatched: u64,
    /// The scheduler section's counts that are written as they happen; the
    /// depth, the tenant sums and the estimator's samples are filled in by
    /// [`Scheduler::snapshot`].
    counts: SchedulerStats,
    /// Queries executed ([`EngineStats::queries_executed`]).
    executed: u64,
    /// Update batches applied ([`EngineStats::updates_applied`]).
    updates_applied: u64,
    /// Seals served ([`EngineStats::epochs_sealed`]).
    pub(crate) epochs_sealed: u64,
}

impl Scheduler {
    /// Sum of estimated costs currently queued (all tenants).
    pub(crate) fn queued_cost(&self) -> f64 {
        self.tenants.values().map(|t| t.queued_cost).sum()
    }

    /// Mean cost of recently enqueued queries (the adaptive quantum basis);
    /// 1.0 before anything was enqueued.
    pub(crate) fn mean_cost(&self) -> f64 {
        if self.costs_seen == 0 {
            1.0
        } else {
            self.cost_ewma
        }
    }

    /// The next global submission index.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Mutable access to a tenant's stats, creating the tenant on first
    /// sight.
    pub(crate) fn tenant_stats_mut(&mut self, tenant: &TenantId) -> &mut TenantStats {
        &mut self.tenant_entry(tenant).stats
    }

    fn tenant_entry(&mut self, tenant: &TenantId) -> &mut TenantQueue {
        self.tenants.entry(tenant.clone()).or_insert_with(|| {
            let mut tq = TenantQueue::default();
            tq.stats.tenant = tenant.name().to_string();
            tq
        })
    }

    /// Books a submission of `cost` work units for `tenant` and decides it:
    /// refused when the queue is full, or when it carries a `deadline` that
    /// the cost model predicts it misses; `Ok` admits it (enqueue it next).
    pub(crate) fn admit(
        &mut self,
        tenant: &TenantId,
        cost: f64,
        deadline: Option<Duration>,
        config: &AdmissionConfig,
    ) -> Result<(), RejectReason> {
        let verdict = self.admission(cost, deadline, config);
        match verdict {
            Ok(()) => {}
            Err(RejectReason::QueueFull { .. }) => self.counts.rejected_queue_full += 1,
            Err(RejectReason::EstimatedTooLate { .. }) => self.counts.rejected_estimated_late += 1,
        }
        let stats = self.tenant_stats_mut(tenant);
        stats.submitted += 1;
        if verdict.is_ok() {
            stats.accepted += 1;
        } else {
            stats.rejected += 1;
        }
        verdict
    }

    fn admission(
        &self,
        cost: f64,
        deadline: Option<Duration>,
        config: &AdmissionConfig,
    ) -> Result<(), RejectReason> {
        if self.depth >= config.queue_capacity {
            return Err(RejectReason::QueueFull {
                capacity: config.queue_capacity,
            });
        }
        let (Some(deadline), Some(service_us), true) = (
            deadline,
            self.estimator.estimate_us(cost),
            config.reject_estimated_late,
        ) else {
            return Ok(());
        };
        // Predicted wait: everything queued ahead, drained by the threads
        // serving now. The queue is per-tenant but the prediction is
        // aggregate — an upper bound for light tenants, accurate under
        // symmetry.
        let queued_us = self.estimator.estimate_us(self.queued_cost());
        let wait_us = queued_us.unwrap_or(0.0) / self.servers.max(1) as f64;
        let predicted_us = wait_us + service_us;
        let deadline_us = deadline.as_secs_f64() * 1e6;
        if predicted_us > deadline_us {
            return Err(RejectReason::EstimatedTooLate {
                predicted_us,
                deadline_us,
            });
        }
        Ok(())
    }

    /// Admits `entry` into its tenant's queue.
    pub(crate) fn enqueue(&mut self, tenant: &TenantId, entry: QueueEntry) {
        if self.costs_seen == 0 {
            self.cost_ewma = entry.cost;
        } else {
            self.cost_ewma += 0.1 * (entry.cost - self.cost_ewma);
        }
        self.costs_seen += 1;
        let tq = self.tenant_entry(tenant);
        tq.queued_cost += entry.cost;
        tq.stats.queued += 1;
        tq.heap.push(Ordered(entry));
        if !tq.in_ring {
            tq.in_ring = true;
            self.ring.push_back(tenant.clone());
        }
        self.depth += 1;
        let depth = self.depth as u64;
        self.counts.peak_queue_depth = self.counts.peak_queue_depth.max(depth);
    }

    /// Dispatches the next entry under DRR + EDF — `None` iff the queue is
    /// empty: the scheduler is work-conserving by construction — numbers
    /// it, and settles an entry that must not run: one cancelled while
    /// queued, and a query whose deadline has passed or that the calibrated
    /// cost model predicts cannot finish by it (shed).
    pub(crate) fn pop(&mut self) -> Option<Dispatch> {
        let entry = self.next_entry()?;
        let now = Instant::now();
        let served_seq = self.dispatched;
        self.dispatched += 1;
        let queue_wait_us = now.duration_since(entry.submitted).as_secs_f64() * 1e6;
        self.counts.queue_wait_us_total += queue_wait_us;
        let settled = if entry.shared.cancel_token().is_cancelled() {
            self.counts.cancelled_while_queued += 1;
            self.tenant_stats_mut(entry.shared.tenant()).cancelled += 1;
            Some(QueryOutcome::Cancelled)
        } else if let Some(deadline) = entry.deadline {
            let passed = now >= deadline;
            let remaining_us = deadline.saturating_duration_since(now).as_secs_f64() * 1e6;
            let late = !passed
                && (self.estimator.estimate_us(entry.cost)).is_some_and(|us| us > remaining_us);
            self.counts.shed_deadline_passed += u64::from(passed);
            self.counts.shed_predicted_late += u64::from(late);
            (passed || late).then(|| {
                self.tenant_stats_mut(entry.shared.tenant()).shed += 1;
                QueryOutcome::Shed
            })
        } else {
            None
        };
        Some(Dispatch {
            entry,
            served_seq,
            queue_wait_us,
            settled,
        })
    }

    /// Takes the next entry under DRR + EDF; `None` iff the queue is empty.
    fn next_entry(&mut self) -> Option<QueueEntry> {
        if self.depth == 0 {
            return None;
        }
        let quantum = self.mean_cost().max(f64::MIN_POSITIVE);
        let mut granted_this_rotation = 0usize;
        let mut visited_since_service = 0usize;
        loop {
            let tid = self.ring.front()?.clone();
            let tq = self.tenants.get_mut(&tid).expect("ring tenant exists");
            let Some(head) = tq.heap.peek() else {
                // Tenant drained since its last visit: leave the ring and
                // reset its credit (standard DRR empty-queue rule).
                tq.in_ring = false;
                tq.deficit = 0.0;
                self.ring.pop_front();
                continue;
            };
            let head_cost = head.0.cost;
            if tq.deficit >= head_cost {
                let entry = tq.heap.pop().expect("peeked entry pops").0;
                tq.deficit -= entry.cost;
                tq.queued_cost = (tq.queued_cost - entry.cost).max(0.0);
                tq.stats.queued = tq.stats.queued.saturating_sub(1);
                match tq.heap.peek() {
                    None => {
                        // Drained: leave the ring, reset credit (standard
                        // DRR empty-queue rule).
                        tq.in_ring = false;
                        tq.deficit = 0.0;
                        self.ring.pop_front();
                    }
                    Some(next) if tq.deficit < next.0.cost => {
                        // Visit exhausted: rotate to the back so the next
                        // tenant gets its turn.
                        self.ring.rotate_left(1);
                    }
                    Some(_) => {} // credit remains; keep dispatching
                }
                self.depth -= 1;
                return Some(entry);
            }
            // Head unaffordable: grant this visit's quantum exactly once,
            // then rotate. If a full rotation grants everyone a quantum and
            // still dispatches nothing, grant the whole ring however many
            // quanta the cheapest head needs — equal credit to every tenant
            // preserves DRR proportionality while making progress O(ring)
            // instead of O(max cost / quantum) rotations.
            tq.deficit += quantum;
            granted_this_rotation += 1;
            visited_since_service += 1;
            if tq.deficit >= head_cost {
                continue; // affordable now; dispatch on the revisit
            }
            let ring_len = self.ring.len();
            self.ring.rotate_left(1);
            if granted_this_rotation >= ring_len && visited_since_service >= 2 * ring_len {
                let needed_quanta = self
                    .ring
                    .iter()
                    .filter_map(|tid| {
                        let tq = &self.tenants[tid];
                        let head = tq.heap.peek()?;
                        Some(((head.0.cost - tq.deficit) / quantum).ceil().max(1.0))
                    })
                    .fold(f64::INFINITY, f64::min);
                if needed_quanta.is_finite() {
                    for tid in self.ring.iter() {
                        if let Some(tq) = self.tenants.get_mut(tid) {
                            tq.deficit += needed_quanta * quantum;
                        }
                    }
                }
                granted_this_rotation = 0;
            }
        }
    }

    /// Books a query that ran for `wall_us` µs: its metrics, or `None` if
    /// it failed. A full completion teaches the cost model the price of its
    /// `cost` work units; interrupted and degraded runs under-report theirs.
    pub(crate) fn retire_query(
        &mut self,
        tenant: &TenantId,
        cost: f64,
        wall_us: f64,
        metrics: Option<&QueryMetrics>,
    ) {
        self.executed += 1;
        let Some(metrics) = metrics else {
            let stats = self.tenant_stats_mut(tenant);
            stats.failed += 1;
            stats.busy_us += wall_us;
            return;
        };
        match metrics.outcome {
            QueryOutcome::Complete => self.estimator.observe(cost, wall_us),
            QueryOutcome::Partial => self.counts.partial_completions += 1,
            _ => {}
        }
        self.counts.retries_total += metrics.fault.retries;
        self.counts.timeouts_total += metrics.fault.timeouts;
        self.counts.duplicates_suppressed_total += metrics.fault.duplicates_suppressed;
        let stats = self.tenant_stats_mut(tenant);
        match metrics.outcome {
            // A degraded query still delivered (partial) rows: it counts as
            // completed for tenant goodput.
            QueryOutcome::Complete | QueryOutcome::Partial => stats.completed += 1,
            QueryOutcome::Cancelled => stats.cancelled += 1,
            QueryOutcome::DeadlineExceeded => stats.deadline_exceeded += 1,
            QueryOutcome::Shed => {}
        }
        stats.rows_delivered += metrics.rows_streamed;
        stats.busy_us += wall_us;
    }

    /// Books an update batch that ran for `wall_us` µs and applied, or
    /// failed validation.
    pub(crate) fn retire_update(&mut self, tenant: &TenantId, wall_us: f64, applied: bool) {
        self.updates_applied += u64::from(applied);
        let stats = self.tenant_stats_mut(tenant);
        stats.busy_us += wall_us;
        if applied {
            stats.completed += 1;
        } else {
            stats.failed += 1;
        }
    }

    /// Everything the book counts: tenants sorted by name, and the totals
    /// that are sums over tenants summed here. The epoch and the cache
    /// counters are kept elsewhere; the engine fills them in.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut tenants: Vec<TenantStats> =
            self.tenants.values().map(|t| t.stats.clone()).collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let sum = |count: fn(&TenantStats) -> u64| tenants.iter().map(count).sum();
        MetricsSnapshot {
            engine: EngineStats {
                queries_executed: self.executed,
                queries_cancelled: sum(|t| t.cancelled),
                queries_deadline_exceeded: sum(|t| t.deadline_exceeded),
                queries_shed: sum(|t| t.shed),
                busy_us: tenants.iter().map(|t| t.busy_us).sum(),
                updates_applied: self.updates_applied,
                epochs_sealed: self.epochs_sealed,
                current_epoch: None,
                cache: None,
            },
            scheduler: SchedulerStats {
                queue_depth: self.depth as u64,
                submitted: sum(|t| t.submitted),
                accepted: sum(|t| t.accepted),
                estimator_samples: self.estimator.samples,
                ..self.counts.clone()
            },
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn chain_query() -> QueryGraph {
        // Labels don't matter for scheduler tests; build the tiniest query
        // possible without touching a cloud.
        let mut qb = QueryGraph::builder();
        let a = qb.vertex(trinity_sim::ids::LabelId(0));
        let b = qb.vertex(trinity_sim::ids::LabelId(1));
        qb.edge(a, b);
        qb.build().unwrap()
    }

    fn entry(
        sched: &mut Scheduler,
        tenant: &TenantId,
        cost: f64,
        deadline: Option<Duration>,
    ) -> QueueEntry {
        let now = Instant::now();
        let seq = sched.next_seq();
        QueueEntry {
            work: Work::Query {
                query: chain_query(),
                mode: None,
                faults: None,
                delivery: Delivery::Collect,
                snapshot: None,
            },
            deadline: deadline.map(|d| now + d),
            submitted: now,
            cost,
            shared: Arc::new(HandleShared::new(tenant.clone(), Default::default())),
            seq,
        }
    }

    fn submit(
        sched: &mut Scheduler,
        tenant: &TenantId,
        cost: f64,
        deadline: Option<Duration>,
    ) -> u64 {
        let e = entry(sched, tenant, cost, deadline);
        let seq = e.seq;
        sched.enqueue(tenant, e);
        seq
    }

    #[test]
    fn drr_alternates_equal_cost_tenants_despite_skew() {
        let mut sched = Scheduler::default();
        let heavy = TenantId::new("heavy");
        let light = TenantId::new("light");
        for _ in 0..20 {
            submit(&mut sched, &heavy, 10.0, None);
        }
        let light_seqs: Vec<u64> = (0..2)
            .map(|_| submit(&mut sched, &light, 10.0, None))
            .collect();
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|d| d.entry.seq)).collect();
        assert_eq!(order.len(), 22, "work conserving: every entry dispatches");
        for (i, &seq) in light_seqs.iter().enumerate() {
            let pos = order.iter().position(|&s| s == seq).unwrap();
            assert!(
                pos <= 2 * (i + 1) + 2,
                "light tenant's query {i} dispatched at {pos} despite 20 queued heavies"
            );
        }
    }

    #[test]
    fn edf_orders_within_a_tenant_and_deadlines_preempt_bulk() {
        let mut sched = Scheduler::default();
        let t = TenantId::new("t");
        let bulk0 = submit(&mut sched, &t, 1.0, None);
        let late = submit(&mut sched, &t, 1.0, Some(Duration::from_secs(60)));
        let bulk1 = submit(&mut sched, &t, 1.0, None);
        let soon = submit(&mut sched, &t, 1.0, Some(Duration::from_secs(1)));
        let bulk2 = submit(&mut sched, &t, 1.0, None);
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|d| d.entry.seq)).collect();
        assert_eq!(order, vec![soon, late, bulk0, bulk1, bulk2]);
    }

    #[test]
    fn expensive_heads_save_deficit_across_rounds() {
        let mut sched = Scheduler::default();
        let a = TenantId::new("a");
        let b = TenantId::new("b");
        // Cheap heads first, so the adaptive quantum sits well below the
        // expensive head and tenant `a` must save credit across rounds.
        let cheap: Vec<u64> = (0..3).map(|_| submit(&mut sched, &b, 1.0, None)).collect();
        let big = submit(&mut sched, &a, 100.0, None);
        assert!(
            sched.mean_cost() < 100.0 / 4.0,
            "quantum {}",
            sched.mean_cost()
        );
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|d| d.entry.seq)).collect();
        assert_eq!(order.len(), 4, "the expensive query must still dispatch");
        assert!(order.contains(&big));
        for c in cheap {
            assert!(order.contains(&c));
        }
    }

    #[test]
    fn the_wait_predictor_divides_queued_work_by_the_threads_serving() {
        let mut sched = Scheduler::default();
        for _ in 0..8 {
            sched.estimator.observe(1.0, 1.0); // 1 µs a unit, calibrated
        }
        let t = TenantId::new("t");
        submit(&mut sched, &t, 100.0, None);
        let config = AdmissionConfig::default();
        let hopeless = Some(Duration::from_nanos(1));
        let mut predicted = |servers| {
            sched.servers = servers;
            match sched.admit(&t, 10.0, hopeless, &config) {
                Err(RejectReason::EstimatedTooLate { predicted_us, .. }) => predicted_us,
                other => panic!("expected EstimatedTooLate, got {other:?}"),
            }
        };
        // No thread serving counts as one.
        assert_eq!(predicted(0), 110.0);
        assert_eq!(predicted(1), 110.0);
        assert_eq!(predicted(2), 60.0);
    }

    #[test]
    fn depth_and_peak_track_the_queue() {
        let mut sched = Scheduler::default();
        let t = TenantId::new("t");
        assert_eq!(sched.depth, 0);
        assert!(sched.pop().is_none());
        for _ in 0..5 {
            submit(&mut sched, &t, 2.0, None);
        }
        assert_eq!(sched.depth, 5);
        assert!((sched.queued_cost() - 10.0).abs() < 1e-9);
        sched.pop().unwrap();
        let snapshot = sched.snapshot();
        assert_eq!(snapshot.scheduler.queue_depth, 4);
        assert_eq!(snapshot.scheduler.peak_queue_depth, 5);
        assert_eq!(snapshot.tenants.len(), 1);
        assert_eq!(snapshot.tenants[0].queued, 4);
    }
}
