//! Per-tenant fair scheduling: deficit round-robin across tenants,
//! earliest-deadline-first with aged priorities within a tenant.
//!
//! ## The model
//!
//! * **Across tenants — deficit round-robin (DRR).** Tenants with queued
//!   work sit in a ring. Each visit grants the tenant one quantum of
//!   *cost credit*: the EWMA of enqueued costs, about one average query
//!   per tenant per round. Costs come from [`crate::serve::CostEstimator`],
//!   so a hub-heavy query debits more than a point lookup — the
//!   scheduler's notion of fairness is estimated work, not request count.
//!   The tenant dispatches queries while its deficit covers the head's
//!   cost, then rotates to the back; unused deficit carries over, so a
//!   tenant whose head is expensive saves up across rounds instead of being
//!   locked out. A tenant with 10× the offered load gets the same service
//!   share as its neighbor — the excess just waits in *its own* queue (or
//!   is refused by admission), never in front of another tenant's work.
//! * **Within a tenant — EDF, then aged priority.** The tenant's queue is a
//!   heap ordered by (deadline, aged rank, submission): deadline-carrying
//!   queries run earliest-deadline-first; among equal deadlines (including
//!   the no-deadline bulk) a query's rank is its submission index minus a
//!   head start of [`AGING_STEP`] submissions per
//!   [`crate::serve::Priority`] level.
//!   Priority is thus a *bounded* head start — a waiting query ages past
//!   any fixed priority level, so low-priority work cannot starve.
//!
//! The scheduler is a passive data structure behind the engine's serve
//! lock; it never blocks and never touches the graph.

use super::tenant::{TenantId, TenantStats};
use super::{HandleShared, SubmitDisposition};
use crate::config::ResultMode;
use crate::query::QueryGraph;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Submissions of head start per [`crate::serve::Priority`] level: a
/// waiting query ages past a priority level once this many later
/// submissions have arrived.
pub const AGING_STEP: u64 = 64;

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
    /// `seq` minus the priority head start: the aging key.
    pub aged_rank: i64,
}

/// Heap wrapper ordering entries min-first: deadline-carrying entries first
/// (earliest deadline wins), then the no-deadline bulk by (aged rank, seq).
/// `BinaryHeap` is a max-heap, so `Ord` is reversed.
#[derive(Debug)]
struct Ordered(QueueEntry);

impl Ordered {
    /// Dispatch order; `Less` dispatches first.
    fn dispatch_cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self.0.deadline, other.0.deadline) {
            (Some(a), Some(b)) => a
                .cmp(&b)
                .then(self.0.aged_rank.cmp(&other.0.aged_rank))
                .then(self.0.seq.cmp(&other.0.seq)),
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (None, None) => self
                .0
                .aged_rank
                .cmp(&other.0.aged_rank)
                .then(self.0.seq.cmp(&other.0.seq)),
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

/// The engine's queue state: per-tenant queues, the DRR ring, and the
/// counters behind [`crate::metrics::SchedulerStats`].
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    tenants: HashMap<TenantId, TenantQueue>,
    ring: VecDeque<TenantId>,
    depth: usize,
    peak_depth: usize,
    seq: u64,
    /// EWMA of enqueued costs — the adaptive quantum.
    cost_ewma: f64,
    costs_seen: u64,
}

impl Scheduler {
    /// Queries currently queued across all tenants.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// High-water mark of [`Scheduler::depth`].
    pub(crate) fn peak_depth(&self) -> usize {
        self.peak_depth
    }

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

    /// The next global submission index, and the aged rank a priority head
    /// start turns it into.
    pub(crate) fn next_seq(&mut self, head_start: i64) -> (u64, i64) {
        let seq = self.seq;
        self.seq += 1;
        (seq, seq as i64 - head_start * AGING_STEP as i64)
    }

    /// Mutable access to a tenant's stats (creating the tenant on first
    /// sight) — used by the engine to account submissions, rejections and
    /// completions.
    pub(crate) fn tenant_stats_mut(&mut self, tenant: &TenantId) -> &mut TenantStats {
        let tq = self.tenant_entry(tenant);
        &mut tq.stats
    }

    fn tenant_entry(&mut self, tenant: &TenantId) -> &mut TenantQueue {
        self.tenants.entry(tenant.clone()).or_insert_with(|| {
            let mut tq = TenantQueue::default();
            tq.stats.tenant = tenant.name().to_string();
            tq
        })
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
        self.peak_depth = self.peak_depth.max(self.depth);
    }

    /// Dispatches the next query under DRR + EDF + aging. `None` iff the
    /// queue is empty — the scheduler is work-conserving by construction.
    pub(crate) fn pop(&mut self) -> Option<QueueEntry> {
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

    /// Snapshot of every tenant's stats, sorted by tenant name.
    pub(crate) fn tenant_snapshot(&self) -> Vec<TenantStats> {
        let mut out: Vec<TenantStats> = self.tenants.values().map(|t| t.stats.clone()).collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Records the admission disposition of a submission on its tenant.
    pub(crate) fn account_submit(&mut self, tenant: &TenantId, disposition: SubmitDisposition) {
        let stats = self.tenant_stats_mut(tenant);
        stats.submitted += 1;
        match disposition {
            SubmitDisposition::Accepted => stats.accepted += 1,
            SubmitDisposition::Rejected => stats.rejected += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tenant::Priority;
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
        priority: Priority,
        deadline: Option<Duration>,
    ) -> QueueEntry {
        let now = Instant::now();
        let (seq, aged_rank) = sched.next_seq(priority.head_start());
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
            aged_rank,
        }
    }

    fn submit(
        sched: &mut Scheduler,
        tenant: &TenantId,
        cost: f64,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> u64 {
        let e = entry(sched, tenant, cost, priority, deadline);
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
            submit(&mut sched, &heavy, 10.0, Priority::Normal, None);
        }
        let light_seqs: Vec<u64> = (0..2)
            .map(|_| submit(&mut sched, &light, 10.0, Priority::Normal, None))
            .collect();
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|e| e.seq)).collect();
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
        let bulk = submit(&mut sched, &t, 1.0, Priority::Normal, None);
        let late = submit(
            &mut sched,
            &t,
            1.0,
            Priority::Normal,
            Some(Duration::from_secs(60)),
        );
        let soon = submit(
            &mut sched,
            &t,
            1.0,
            Priority::Normal,
            Some(Duration::from_secs(1)),
        );
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![soon, late, bulk]);
    }

    #[test]
    fn priority_is_a_bounded_head_start() {
        let mut sched = Scheduler::default();
        let t = TenantId::new("t");
        let old_low = submit(&mut sched, &t, 1.0, Priority::Low, None);
        // A high-priority newcomer within the aging window jumps ahead…
        let fresh_high = submit(&mut sched, &t, 1.0, Priority::High, None);
        let first = sched.pop().unwrap().seq;
        assert_eq!(first, fresh_high);
        // …but after `AGING_STEP × levels` more arrivals, the old query's
        // rank is older than any new high-priority arrival's.
        for _ in 0..AGING_STEP * 4 {
            submit(&mut sched, &t, 1.0, Priority::Normal, None);
        }
        let late_high = submit(&mut sched, &t, 1.0, Priority::High, None);
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|e| e.seq)).collect();
        let low_pos = order.iter().position(|&s| s == old_low).unwrap();
        let high_pos = order.iter().position(|&s| s == late_high).unwrap();
        assert!(
            low_pos < high_pos,
            "aged low-priority query must dispatch before a fresh high-priority one"
        );
    }

    #[test]
    fn expensive_heads_save_deficit_across_rounds() {
        let mut sched = Scheduler::default();
        let a = TenantId::new("a");
        let b = TenantId::new("b");
        // Cheap heads first, so the adaptive quantum sits well below the
        // expensive head and tenant `a` must save credit across rounds.
        let cheap: Vec<u64> = (0..3)
            .map(|_| submit(&mut sched, &b, 1.0, Priority::Normal, None))
            .collect();
        let big = submit(&mut sched, &a, 100.0, Priority::Normal, None);
        assert!(
            sched.mean_cost() < 100.0 / 4.0,
            "quantum {}",
            sched.mean_cost()
        );
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|e| e.seq)).collect();
        assert_eq!(order.len(), 4, "the expensive query must still dispatch");
        assert!(order.contains(&big));
        for c in cheap {
            assert!(order.contains(&c));
        }
    }

    #[test]
    fn depth_and_peak_track_the_queue() {
        let mut sched = Scheduler::default();
        let t = TenantId::new("t");
        assert_eq!(sched.depth(), 0);
        assert!(sched.pop().is_none());
        for _ in 0..5 {
            submit(&mut sched, &t, 2.0, Priority::Normal, None);
        }
        assert_eq!(sched.depth(), 5);
        assert!((sched.queued_cost() - 10.0).abs() < 1e-9);
        sched.pop().unwrap();
        assert_eq!(sched.depth(), 4);
        assert_eq!(sched.peak_depth(), 5);
        let stats = sched.tenant_snapshot();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].queued, 4);
    }
}
