//! Tenants and priorities of the serving layer.
//!
//! The engine serves an open stream of queries from many independent
//! clients. A [`TenantId`] names the accounting and scheduling domain a
//! query belongs to (a user, a product surface, an internal batch job); the
//! deficit-round-robin scheduler in [`crate::serve::scheduler`] guarantees
//! each active tenant a fair share of service regardless of how many
//! requests the others have queued. A [`Priority`] orders queries *within*
//! one tenant — it never lets a tenant take service away from another.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifies the tenant a query is submitted on behalf of.
///
/// Cheap to clone (shared string); compared and hashed by name. Queries
/// submitted without an explicit tenant land on [`TenantId::default`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Creates a tenant id from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    /// The anonymous tenant every un-attributed query is charged to.
    fn default() -> Self {
        TenantId::new("default")
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId::new(name)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Scheduling priority of a query *within its tenant*.
///
/// Priority is implemented as an **aged head start**, not an absolute rank:
/// a query of priority `p` is ordered as if it had arrived
/// `p × AGING_STEP` submissions earlier (see
/// [`crate::serve::scheduler::AGING_STEP`]). A stream of high-priority
/// arrivals therefore cannot starve an old low-priority query — once the
/// low-priority query has waited `AGING_STEP` arrivals per priority level,
/// its effective rank is older than any newcomer's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Priority {
    /// Background work: scheduled as if it arrived one aging step late.
    Low,
    /// The default interactive priority.
    #[default]
    Normal,
    /// Latency-sensitive work: one aging step of head start.
    High,
    /// Reserved for operator traffic: three aging steps of head start.
    Critical,
}

impl Priority {
    /// The priority's head start, in aging steps. Negative = pushed back.
    pub(crate) fn head_start(self) -> i64 {
        match self {
            Priority::Low => -1,
            Priority::Normal => 0,
            Priority::High => 1,
            Priority::Critical => 3,
        }
    }
}

/// Per-tenant serving counters, exported through
/// [`crate::metrics::MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant's name.
    pub tenant: String,
    /// Requests submitted (accepted + rejected).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests rejected at admission (queue full or estimated too late).
    pub rejected: u64,
    /// Admitted requests shed at dispatch without touching the graph
    /// (deadline already passed, or predicted not to finish in time).
    pub shed: u64,
    /// Requests that ran to a [`crate::metrics::QueryOutcome::Complete`].
    pub completed: u64,
    /// Requests that ended [`crate::metrics::QueryOutcome::Cancelled`]
    /// (cancelled while queued or mid-execution).
    pub cancelled: u64,
    /// Requests that ended
    /// [`crate::metrics::QueryOutcome::DeadlineExceeded`] mid-execution.
    pub deadline_exceeded: u64,
    /// Admitted requests that resolved with an error: a query that failed
    /// (for example [`crate::StwigError::MachineUnavailable`]) or an update
    /// batch that failed validation. Once the queue drains, `accepted`
    /// equals `completed + cancelled + deadline_exceeded + shed + failed`.
    pub failed: u64,
    /// Embedding rows delivered to this tenant (its goodput numerator).
    pub rows_delivered: u64,
    /// Wall-clock spent executing this tenant's queries, in µs.
    pub busy_us: f64,
    /// Requests currently waiting in the tenant's queue.
    pub queued: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_ids_compare_by_name() {
        let a = TenantId::new("alpha");
        let b: TenantId = "alpha".into();
        let c = TenantId::from("beta".to_string());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "alpha");
        assert_eq!(a.to_string(), "alpha");
        assert_eq!(TenantId::default().name(), "default");
    }

    #[test]
    fn priority_head_starts_are_ordered() {
        assert!(Priority::Low.head_start() < Priority::Normal.head_start());
        assert!(Priority::Normal.head_start() < Priority::High.head_start());
        assert!(Priority::High.head_start() < Priority::Critical.head_start());
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
