//! Overload-safe serving: admission control, per-tenant fair scheduling,
//! and the handle-based `submit()` surface of
//! [`crate::engine::QueryEngine`].
//!
//! The paper's deployment target is *online* serving — billion-node graphs
//! answering an open stream of subgraph queries from many clients. An open
//! stream offered faster than the engine drains it cannot be absorbed by
//! queueing alone: an unbounded queue turns overload into unbounded latency
//! for everyone. This module is the missing control plane:
//!
//! * [`admission`] — a bounded queue with backpressure
//!   ([`RejectReason::QueueFull`]) and a learned cost model that refuses
//!   deadline-carrying queries predicted to miss
//!   ([`RejectReason::EstimatedTooLate`]) before they cost anything;
//! * [`scheduler`] — deficit round-robin across [`TenantId`]s (fair shares
//!   of estimated work, not of request count), earliest-deadline-first and
//!   then submission order within a tenant, and dispatch-time
//!   shedding ([`crate::metrics::QueryOutcome::Shed`]) of queries that can
//!   no longer make their deadline;
//! * [`tenant`] — tenant identity and per-tenant serving counters.
//!
//! The serving layer keeps no fault state. A fault plan is an option of one
//! request ([`QueryOptions::faults`]), and what it does — retries, a typed
//! [`StwigError::MachineUnavailable`], a
//! [`crate::metrics::QueryOutcome::Partial`] answer — stays with that
//! request: no failure of one request sheds, delays or reroutes another.
//!
//! Queries enter as a [`QueryRequest`] via
//! [`crate::engine::QueryEngine::submit`], which answers
//! [`Submit::Accepted`] with a [`QueryHandle`] (await the result, stream
//! rows, poll status, cancel) or [`Submit::Rejected`] with the reason.

pub mod admission;
pub mod scheduler;
pub mod tenant;

pub use admission::AdmissionConfig;
pub use tenant::{TenantId, TenantStats};

use crate::error::StwigError;
use crate::metrics::{QueryMetrics, QueryOutcome};
use crate::query::QueryGraph;
use crate::stream::{CancelToken, QueryOptions, RowStream};
use crate::table::ResultTable;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Configuration of the serving layer, carried by
/// [`crate::engine::EngineConfig::serve`]. The scheduler has no knobs: its
/// DRR quantum adapts to the queued costs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeConfig {
    /// Bounded-queue and cost-model knobs.
    pub admission: AdmissionConfig,
}

impl ServeConfig {
    /// Sets the admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// One query submission: the pattern plus who is asking and under what
/// service terms. Build with [`QueryRequest::new`] and the `with_*`
/// builders, or attach pre-built [`QueryOptions`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query pattern.
    pub query: QueryGraph,
    /// The tenant charged and scheduled for this query.
    pub tenant: TenantId,
    /// Serving options (deadline, cancellation, result mode).
    pub options: QueryOptions,
}

impl QueryRequest {
    /// A request on the default tenant, no options.
    pub fn new(query: QueryGraph) -> Self {
        QueryRequest {
            query,
            tenant: TenantId::default(),
            options: QueryOptions::none(),
        }
    }

    /// Sets the tenant.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Attaches serving options.
    pub fn with_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the deadline (sugar over the options).
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Attaches a cancel token (sugar over the options).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.options.cancel = Some(token);
        self
    }

    /// Overrides the engine's [`crate::config::ResultMode`] for this query
    /// (sugar over the options).
    pub fn with_result_mode(mut self, mode: crate::config::ResultMode) -> Self {
        self.options.result_mode = Some(mode);
        self
    }
}

/// Why admission refused a submission. Rejection is O(query) — no
/// exploration work is spent and no transport envelope is charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity
    /// ([`AdmissionConfig::queue_capacity`]); back off and retry.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The learned cost model predicts the query cannot finish by its
    /// deadline even if admitted now.
    EstimatedTooLate {
        /// Predicted queue wait + service time, in µs.
        predicted_us: f64,
        /// The submitted deadline, in µs.
        deadline_us: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            RejectReason::EstimatedTooLate {
                predicted_us,
                deadline_us,
            } => write!(
                f,
                "estimated too late (predicted {predicted_us:.0}µs > deadline {deadline_us:.0}µs)"
            ),
        }
    }
}

/// The answer to [`crate::engine::QueryEngine::submit`].
#[derive(Debug)]
pub enum Submit {
    /// Admitted: track, await, stream or cancel through the handle.
    Accepted(QueryHandle),
    /// Refused at the door, with no execution work spent.
    Rejected(RejectReason),
}

impl Submit {
    /// The handle, if admitted.
    pub fn accepted(self) -> Option<QueryHandle> {
        match self {
            Submit::Accepted(handle) => Some(handle),
            Submit::Rejected(_) => None,
        }
    }

    /// The handle; panics with the rejection reason otherwise (test sugar).
    pub fn expect_accepted(self) -> QueryHandle {
        match self {
            Submit::Accepted(handle) => handle,
            Submit::Rejected(reason) => panic!("submission rejected: {reason}"),
        }
    }

    /// The rejection reason, if refused.
    pub fn rejected(&self) -> Option<RejectReason> {
        match self {
            Submit::Accepted(_) => None,
            Submit::Rejected(reason) => Some(*reason),
        }
    }
}

/// Where a submitted query currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Admitted, waiting in its tenant's queue.
    Queued,
    /// Dispatched; executing right now.
    Running,
    /// Finished — [`QueryHandle::wait`] will not block.
    Finished,
}

/// The outcome of one served query.
///
/// `metrics.outcome` says how it ended: [`QueryOutcome::Complete`],
/// interrupted mid-run ([`QueryOutcome::Cancelled`] /
/// [`QueryOutcome::DeadlineExceeded`]), or [`QueryOutcome::Shed`] — refused
/// at dispatch with zero execution work (no table, no rows, no envelopes).
#[derive(Debug)]
pub struct QueryResponse {
    /// The result table (canonical column order), for requests submitted
    /// with [`crate::engine::QueryEngine::submit`]. `None` for shed queries
    /// and row-streamed requests.
    pub table: Option<ResultTable>,
    /// Full per-query metrics (zeroed except `outcome` for shed queries).
    pub metrics: QueryMetrics,
    /// Global dispatch index: response `n` was the `n`-th query the engine
    /// dispatched (shed included). Lets tests assert scheduling order.
    pub served_seq: u64,
    /// Wall-clock the query spent queued before dispatch, in µs.
    pub queue_wait_us: f64,
    /// The graph epoch the request was served against: for queries, the
    /// epoch of the snapshot pinned at admission; for
    /// [`crate::engine::QueryEngine::apply_updates`] requests, the epoch
    /// *after* the batch applied. `None` when the engine serves a static
    /// cloud (no [`trinity_sim::epoch::GraphEpochs`]).
    pub epoch: Option<u64>,
}

impl QueryResponse {
    /// Whether the query was shed at dispatch without executing.
    pub fn was_shed(&self) -> bool {
        self.metrics.outcome == QueryOutcome::Shed
    }

    /// Rows this response delivered (materialized or streamed).
    pub fn rows_delivered(&self) -> u64 {
        self.table
            .as_ref()
            .map(|t| t.num_rows() as u64)
            .unwrap_or(self.metrics.rows_streamed)
    }
}

/// Handle status encoding in [`HandleShared::status`].
const STATUS_QUEUED: u8 = 0;
const STATUS_RUNNING: u8 = 1;
const STATUS_FINISHED: u8 = 2;

/// State shared between a [`QueryHandle`] and the engine's dispatch loop.
#[derive(Debug)]
pub(crate) struct HandleShared {
    tenant: TenantId,
    cancel: CancelToken,
    status: AtomicU8,
    result: Mutex<Option<Result<QueryResponse, StwigError>>>,
    finished: Condvar,
    /// Receiver side of the row stream, for channel-delivery requests;
    /// taken (at most once) by [`QueryHandle::rows`].
    rows: Mutex<Option<RowStream>>,
}

impl HandleShared {
    pub(crate) fn new(tenant: TenantId, cancel: CancelToken) -> Self {
        HandleShared {
            tenant,
            cancel,
            status: AtomicU8::new(STATUS_QUEUED),
            result: Mutex::new(None),
            finished: Condvar::new(),
            rows: Mutex::new(None),
        }
    }

    pub(crate) fn set_rows(&self, rows: RowStream) {
        *self.rows.lock().expect("rows lock") = Some(rows);
    }

    pub(crate) fn mark_running(&self) {
        self.status.store(STATUS_RUNNING, Ordering::Release);
    }

    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    pub(crate) fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Publishes the result and wakes every waiter.
    pub(crate) fn finish(&self, result: Result<QueryResponse, StwigError>) {
        *self.result.lock().expect("result lock") = Some(result);
        self.status.store(STATUS_FINISHED, Ordering::Release);
        self.finished.notify_all();
    }
}

/// Tracks one admitted query: poll it, block on it, stream its rows, or
/// cancel it. Obtained from [`crate::engine::QueryEngine::submit`].
///
/// Results materialize when the engine dispatches the query — from
/// [`crate::engine::QueryEngine::serve`] worker threads, or a
/// [`crate::engine::QueryEngine::drain`] on any thread (including this
/// one). [`QueryHandle::wait`] blocks until then.
#[derive(Debug)]
pub struct QueryHandle {
    pub(crate) shared: Arc<HandleShared>,
}

impl QueryHandle {
    pub(crate) fn from_shared(shared: Arc<HandleShared>) -> Self {
        QueryHandle { shared }
    }

    pub(crate) fn shared(&self) -> &HandleShared {
        &self.shared
    }

    /// The tenant this query is charged to.
    pub fn tenant(&self) -> &TenantId {
        self.shared.tenant()
    }

    /// Where the query currently is.
    pub fn status(&self) -> QueryStatus {
        match self.shared.status.load(Ordering::Acquire) {
            STATUS_QUEUED => QueryStatus::Queued,
            STATUS_RUNNING => QueryStatus::Running,
            _ => QueryStatus::Finished,
        }
    }

    /// Whether [`QueryHandle::wait`] would return without blocking.
    pub fn is_finished(&self) -> bool {
        self.status() == QueryStatus::Finished
    }

    /// Requests cancellation: a queued query resolves to
    /// [`QueryOutcome::Cancelled`] without executing; a running one stops at
    /// its next cooperative check. Idempotent.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// Takes the row stream of a channel-delivery request
    /// ([`crate::engine::QueryEngine::submit_streaming`]); `None` for
    /// collect-delivery requests or if already taken. Rows arrive while the
    /// query runs; the stream ends when it finishes. Dropping the stream
    /// early cancels the query.
    pub fn rows(&self) -> Option<RowStream> {
        self.shared.rows.lock().expect("rows lock").take()
    }

    /// Blocks until the query finishes and returns its response.
    ///
    /// Only blocks while some other thread serves the queue; pair with
    /// [`crate::engine::QueryEngine::serve`] workers, or call
    /// [`crate::engine::QueryEngine::drain`] first on this thread.
    pub fn wait(self) -> Result<QueryResponse, StwigError> {
        let mut slot = self.shared.result.lock().expect("result lock");
        while slot.is_none() {
            slot = self.shared.finished.wait(slot).expect("result lock");
        }
        slot.take().expect("loop exits with a result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_render() {
        let full = RejectReason::QueueFull { capacity: 4 };
        assert!(full.to_string().contains("capacity 4"));
        let late = RejectReason::EstimatedTooLate {
            predicted_us: 1500.0,
            deadline_us: 1000.0,
        };
        assert!(late.to_string().contains("1500"));
    }

    #[test]
    fn handle_lifecycle_and_waiting() {
        let shared = Arc::new(HandleShared::new(TenantId::default(), CancelToken::new()));
        let handle = QueryHandle {
            shared: Arc::clone(&shared),
        };
        assert_eq!(handle.status(), QueryStatus::Queued);
        shared.mark_running();
        assert_eq!(handle.status(), QueryStatus::Running);
        shared.finish(Ok(QueryResponse {
            table: None,
            metrics: QueryMetrics::default(),
            served_seq: 7,
            queue_wait_us: 12.5,
            epoch: None,
        }));
        assert!(handle.is_finished());
        let response = handle.wait().expect("finished ok");
        assert_eq!(response.served_seq, 7);
        assert!(!response.was_shed());
        assert_eq!(response.rows_delivered(), 0);
    }

    #[test]
    fn cancel_propagates_through_the_shared_token() {
        let token = CancelToken::new();
        let shared = Arc::new(HandleShared::new(TenantId::new("t"), token.clone()));
        let handle = QueryHandle { shared };
        assert_eq!(handle.tenant().name(), "t");
        handle.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn submit_accessors() {
        let rejected = Submit::Rejected(RejectReason::QueueFull { capacity: 1 });
        assert!(rejected.rejected().is_some());
        assert!(rejected.accepted().is_none());
    }
}
