//! Execution metrics collected by the matchers.
//!
//! The paper reports wall-clock query time on a physical cluster. Our
//! substrate is simulated, so in addition to measured wall-clock we report
//! *simulated time*: per-machine compute time plus communication time charged
//! by the network cost model, combined as the makespan over machines. The
//! speed-up experiments (Fig. 9) are driven by the simulated numbers.

use serde::{Deserialize, Serialize};
use trinity_sim::network::{Network, Phase};
use trinity_sim::partition::StorageBytes;

/// How a query execution ended.
///
/// `Complete` covers both exhaustive enumeration and a satisfied
/// `FirstK`/`Exists` request; the interrupted outcomes mean the query
/// stopped at a cooperative check — rows streamed before the interrupt are
/// valid embeddings and remain delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// The query ran to its natural end (all results, or the requested k).
    #[default]
    Complete,
    /// The query's [`crate::stream::CancelToken`] fired mid-execution.
    Cancelled,
    /// The query's deadline expired mid-execution.
    DeadlineExceeded,
    /// The admitted query was refused at dispatch — its deadline had already
    /// passed, or the cost model predicted it could not finish in time — so
    /// the engine spent **zero** execution work on it: no exploration, no
    /// join, no transport envelope. See [`crate::serve`].
    Shed,
    /// The query ran to its end under `FailurePolicy::Degrade` with one or
    /// more machines unreachable: every delivered row is a verified match,
    /// but rows that needed a lost machine are absent. The lost machines
    /// and coverage are in [`FaultCounters`].
    Partial,
}

/// Fault-tolerance counters of one query: what the retry layer absorbed and
/// what was permanently lost.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Exchange attempts repeated after a transient failure.
    pub retries: u64,
    /// Exchange attempts that failed with `TransportError::Timeout`.
    pub timeouts: u64,
    /// Exchange attempts that failed with another transient error
    /// (unavailability, corrupt payload).
    pub transient_errors: u64,
    /// Duplicate envelope deliveries suppressed by drain-side dedup.
    pub duplicates_suppressed: u64,
    /// Machines that stayed unreachable after the retry budget and were
    /// dropped under `FailurePolicy::Degrade` (sorted, deduplicated). Empty
    /// for a complete query.
    pub machines_lost: Vec<u16>,
}

impl FaultCounters {
    /// Adds another counter set into this one (lost machines are unioned).
    pub(crate) fn merge(&mut self, other: &FaultCounters) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.transient_errors += other.transient_errors;
        self.duplicates_suppressed += other.duplicates_suppressed;
        for &m in &other.machines_lost {
            self.record_lost(m);
        }
    }

    /// Records machine `m` as permanently lost (idempotent).
    pub(crate) fn record_lost(&mut self, m: u16) {
        if let Err(pos) = self.machines_lost.binary_search(&m) {
            self.machines_lost.insert(pos, m);
        }
    }

    /// Whether machine `m` has been recorded as lost.
    pub(crate) fn is_lost(&self, m: u16) -> bool {
        self.machines_lost.binary_search(&m).is_ok()
    }

    /// Fraction of the cluster that stayed reachable, in `[0, 1]` — the
    /// coverage of a [`QueryOutcome::Partial`] result. `1.0` when nothing
    /// was lost.
    pub fn coverage(&self, num_machines: usize) -> f64 {
        if num_machines == 0 {
            return 1.0;
        }
        1.0 - self.machines_lost.len().min(num_machines) as f64 / num_machines as f64
    }

    /// Whether any fault was observed at all.
    pub fn any(&self) -> bool {
        self.retries != 0
            || self.timeouts != 0
            || self.transient_errors != 0
            || self.duplicates_suppressed != 0
            || !self.machines_lost.is_empty()
    }
}

/// Counters collected while exploring (matching STwigs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreCounters {
    /// Root candidates considered across all STwigs.
    pub roots_scanned: u64,
    /// `Cloud.Load` calls issued.
    pub cells_loaded: u64,
    /// `Index.hasLabel` probes issued: one per neighbor of each root that
    /// passed the signature prune, for every child scanned.
    pub label_probes: u64,
    /// Rows emitted by `MatchSTwig` across all STwigs.
    pub rows_emitted: u64,
    /// Rows discarded because a binding filtered a candidate.
    pub rows_pruned_by_bindings: u64,
    /// Root candidates skipped by the neighborhood-signature prune, which
    /// every exploration applies, before any of their neighbors were
    /// probed. Pruned roots still count in `roots_scanned` and
    /// `cells_loaded`.
    pub roots_pruned: u64,
    /// Roots the signature prune let through, whose run was decoded and
    /// probed, that emitted no row: what a sharper prune could still skip.
    /// They count in `cells_loaded` too.
    pub roots_admitted_empty: u64,
}

impl ExploreCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ExploreCounters) {
        self.roots_scanned += other.roots_scanned;
        self.cells_loaded += other.cells_loaded;
        self.label_probes += other.label_probes;
        self.rows_emitted += other.rows_emitted;
        self.rows_pruned_by_bindings += other.rows_pruned_by_bindings;
        self.roots_pruned += other.roots_pruned;
        self.roots_admitted_empty += other.roots_admitted_empty;
    }
}

/// Counters collected during the join phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinCounters {
    /// Binary joins performed: the levels of the probe chain each round of
    /// the pipelined join reached (a two-table join counts one a round).
    pub joins_performed: u64,
    /// Rows produced across all intermediate join results.
    pub intermediate_rows: u64,
    /// Rows discarded because two query vertices mapped to one data vertex.
    pub rows_pruned_injective: u64,
    /// Number of pipeline rounds executed.
    pub pipeline_rounds: u64,
    /// Build-side rows *this query* hash-indexed (`PreparedJoin::new`): a
    /// rest table whose index came from a cache entry's memo adds none.
    pub build_rows: u64,
    /// Driver (left) rows the probe chain consumed.
    pub driver_rows: u64,
}

impl JoinCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &JoinCounters) {
        self.joins_performed += other.joins_performed;
        self.intermediate_rows += other.intermediate_rows;
        self.rows_pruned_injective += other.rows_pruned_injective;
        self.pipeline_rounds += other.pipeline_rounds;
        self.build_rows += other.build_rows;
        self.driver_rows += other.driver_rows;
    }
}

/// Snapshot of the STwig-result cache counters (see [`crate::cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an *uncacheable* marker (the shape's unbound
    /// exploration exceeded the populate row cap) and fell back to plain
    /// exploration.
    pub bypasses: u64,
    /// Entries stored, including uncacheable markers.
    pub insertions: u64,
    /// Entries and plan memos evicted to stay within the byte budget.
    pub evictions: u64,
    /// Entries lazily evicted because their build epoch went stale and
    /// nothing could be proved about them: the touched-entry log no longer
    /// covers the range, or the entry is a tombstone with a touched pair.
    /// Always 0 against a static cloud.
    pub stale_evictions: u64,
    /// Probes that found a stale entry exact except at a few touched roots
    /// and handed it out for repair. Each is also counted in `misses`: a
    /// repaired probe explores, so it must never raise the hit rate.
    pub repairs: u64,
    /// Join indexes built over an entry's tables and kept in its memo.
    pub index_builds: u64,
    /// Joins that took their index from an entry's memo instead of building
    /// one.
    pub index_hits: u64,
    /// Requests that took their plan from the cache's plan memo.
    pub plan_hits: u64,
    /// Requests that planned: nothing memoized for the query and config, a
    /// memo of another epoch, or a request pinned to an older epoch than
    /// the memo's.
    pub plan_misses: u64,
    /// Machine joins that took their join order from the plan memo.
    pub order_hits: u64,
    /// Machine joins over served tables alone that selected their join
    /// order (and memoized it). A join over explored rows neither hits nor
    /// misses: its order is never memoized.
    pub order_misses: u64,
    /// Entries currently resident (plan memos are not entries).
    pub entries: u64,
    /// Bytes currently resident: table payloads plus `index_bytes`, plus the
    /// plan memos with their join orders.
    pub bytes_resident: u64,
    /// Bytes of memoized join indexes currently resident.
    pub index_bytes: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups — hits, misses *and* bypasses, so the
    /// rate reflects the true fraction of probes served from cache even when
    /// uncacheable shapes fall back to plain exploration. 0 when the cache
    /// was never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.bypasses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Engine-level counters for a [`crate::engine::QueryEngine`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Queries executed (shed and cancelled-while-queued ones are not).
    pub queries_executed: u64,
    /// Queries that ended [`QueryOutcome::Cancelled`], while queued or
    /// mid-execution.
    pub queries_cancelled: u64,
    /// Queries that ended [`QueryOutcome::DeadlineExceeded`] mid-execution.
    pub queries_deadline_exceeded: u64,
    /// Admitted queries shed at dispatch without executing
    /// ([`QueryOutcome::Shed`]). Not counted in `queries_executed`.
    pub queries_shed: u64,
    /// Execution wall-clock summed over executed queries and applied update
    /// batches, in µs (work on concurrent workers adds up, so this is not
    /// elapsed time and yields no throughput figure).
    pub busy_us: f64,
    /// Update batches applied through
    /// [`crate::engine::QueryEngine::apply_updates`] (dynamic engines
    /// only; failed validations are not counted).
    pub updates_applied: u64,
    /// [`crate::engine::QueryEngine::seal_epoch`] calls served.
    pub epochs_sealed: u64,
    /// The current graph epoch of a dynamic engine; `None` for a static
    /// one.
    pub current_epoch: Option<u64>,
    /// Cache counters, when the engine runs with a cache.
    pub cache: Option<CacheStats>,
}

/// Counters of the admission/scheduling layer (see [`crate::serve`]),
/// exported through [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Queries currently queued across all tenants.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` since engine creation.
    pub peak_queue_depth: u64,
    /// Submissions seen by `submit()`, `submit_streaming()` and
    /// `apply_updates()` (accepted + rejected).
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub accepted: u64,
    /// Submissions refused with [`crate::serve::RejectReason::QueueFull`].
    pub rejected_queue_full: u64,
    /// Submissions refused with
    /// [`crate::serve::RejectReason::EstimatedTooLate`].
    pub rejected_estimated_late: u64,
    /// Admitted queries shed at dispatch because their deadline had already
    /// passed.
    pub shed_deadline_passed: u64,
    /// Admitted queries shed at dispatch because the calibrated cost model
    /// predicted they could not finish by their deadline.
    pub shed_predicted_late: u64,
    /// Admitted queries cancelled while still queued (resolved
    /// [`QueryOutcome::Cancelled`] with zero execution work).
    pub cancelled_while_queued: u64,
    /// Total µs dispatched queries spent waiting in the queue.
    pub queue_wait_us_total: f64,
    /// Completions the admission cost model has learned from; predictions
    /// gate rejection/shedding only once calibrated (see
    /// [`crate::serve::admission`]).
    pub estimator_samples: u64,
    /// Exchange retries across all executed queries.
    pub retries_total: u64,
    /// Exchange timeouts across all executed queries.
    pub timeouts_total: u64,
    /// Duplicate envelope deliveries suppressed across all executed queries.
    pub duplicates_suppressed_total: u64,
    /// Queries that resolved [`QueryOutcome::Partial`] under
    /// `FailurePolicy::Degrade`.
    pub partial_completions: u64,
}

impl SchedulerStats {
    /// All submissions refused at admission.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_estimated_late
    }

    /// All admitted queries resolved at dispatch without executing.
    pub fn shed(&self) -> u64 {
        self.shed_deadline_passed + self.shed_predicted_late
    }
}

/// One coherent export of everything the engine counts: engine-level
/// throughput, admission/scheduling counters, and per-tenant goodput.
/// Obtained from [`crate::engine::QueryEngine::metrics_snapshot`]; all three
/// sections are taken while holding the scheduler lock once, so they agree
/// with each other.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Engine-level counters (queries, batches, cache).
    pub engine: EngineStats,
    /// Admission and scheduling counters.
    pub scheduler: SchedulerStats,
    /// Per-tenant serving counters, sorted by tenant name.
    pub tenants: Vec<crate::serve::TenantStats>,
}

/// Cross-machine traffic of one query broken down by execution phase.
///
/// The totals (`QueryMetrics::network_messages` / `network_bytes`) answer
/// "how much traveled"; this breakdown answers "which part of the algorithm
/// sent it" — exploration (remote cell loads, label probes, postings),
/// binding synchronization between STwigs, and load-set result shipping for
/// the distributed join. Each charge names its phase where it is made (an
/// envelope by its variant), and every query charges a ledger of its own, so
/// the three phases sum to the totals exactly, whatever runs concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTraffic {
    /// Cross-machine messages sent during STwig exploration.
    pub explore_messages: u64,
    /// Cross-machine bytes sent during STwig exploration.
    pub explore_bytes: u64,
    /// Messages sent synchronizing binding sets between STwigs.
    pub binding_sync_messages: u64,
    /// Bytes sent synchronizing binding sets between STwigs.
    pub binding_sync_bytes: u64,
    /// Messages sent shipping STwig result rows for the join (Theorem 4).
    pub join_ship_messages: u64,
    /// Bytes sent shipping STwig result rows for the join.
    pub join_ship_bytes: u64,
}

impl PhaseTraffic {
    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseTraffic) {
        self.explore_messages += other.explore_messages;
        self.explore_bytes += other.explore_bytes;
        self.binding_sync_messages += other.binding_sync_messages;
        self.binding_sync_bytes += other.binding_sync_bytes;
        self.join_ship_messages += other.join_ship_messages;
        self.join_ship_bytes += other.join_ship_bytes;
    }

    /// The per-phase totals of a query's ledger.
    pub(crate) fn of(ledger: &Network) -> Self {
        let [explore, sync, join] =
            [Phase::Explore, Phase::Sync, Phase::Join].map(|p| ledger.phase_totals(p));
        PhaseTraffic {
            explore_messages: explore.0,
            explore_bytes: explore.1,
            binding_sync_messages: sync.0,
            binding_sync_bytes: sync.1,
            join_ship_messages: join.0,
            join_ship_bytes: join.1,
        }
    }
}

/// Per-machine accounting of a distributed run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineMetrics {
    /// Index of the machine.
    pub machine: u16,
    /// Measured compute time of this machine's exploration + join, in µs.
    pub compute_us: f64,
    /// Simulated communication time charged to this machine, in µs.
    pub comm_us: f64,
    /// STwig result rows this machine produced.
    pub rows_produced: u64,
    /// STwig result rows this machine received from its load sets.
    pub rows_received: u64,
    /// Final matches this machine contributed.
    pub matches_found: u64,
}

/// Full metrics for one query execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Number of STwigs the query was decomposed into.
    pub num_stwigs: usize,
    /// Rows each STwig contributed to the join, in processing order: what
    /// exploration emitted under the bindings and row cap of the moment, or
    /// — for an STwig the cache served — its complete unbound table.
    pub stwig_rows: Vec<u64>,
    /// Exploration counters.
    pub explore: ExploreCounters,
    /// (Machine, STwig) explorations whose neighbor labels came from the
    /// child labels' postings: the STwig's shared map under `DirectRead`,
    /// fetched postings under `Messages`. With `explore_by_probing` it counts
    /// every exploration once. Which side a `DirectRead` machine takes can
    /// depend on whether another machine built the map first, so the split
    /// (not the sum) may vary with `num_threads > 1`.
    pub explore_from_postings: u64,
    /// (Machine, STwig) explorations that read their neighbors' labels in
    /// place (`DirectRead`) or asked the owners (`Messages`).
    pub explore_by_probing: u64,
    /// Carriers inserted into postings maps: once per `DirectRead` STwig
    /// phase that built its shared map, once per `Messages` exploration that
    /// fetched. A cold `churn_mix` miss (seed 1: 4 machines, `DirectRead`,
    /// two STwigs explored) averages ≈ 6 explorations from postings, ≈ 2 by
    /// probing and ≈ 1,070 carriers: one map per STwig on the postings side,
    /// where a map per machine would insert each carrier four times.
    pub explore_postings_entries: u64,
    /// Join counters.
    pub join: JoinCounters,
    /// Number of final matches produced (possibly truncated by the result limit).
    pub matches_found: u64,
    /// Whether the result limit truncated the output.
    pub truncated: bool,
    /// How the execution ended (complete / cancelled / deadline exceeded).
    pub outcome: QueryOutcome,
    /// Rows the executor delivered to its output — the caller's sink, or
    /// the table it hands back.
    pub rows_streamed: u64,
    /// Wall-clock from admission until the first row was the consumer's to
    /// read, in µs: stamped after the executor handed the row to the sink
    /// *and* flushed it ([`crate::stream::ResultSink::flush`] — the first
    /// row of a query is never held back in a batching sink), so it is as
    /// true through a channel as into a closure. `None` when no row was
    /// ever streamed.
    pub time_to_first_result_us: Option<f64>,
    /// Exploration passes the executor ran: 1 for `All` and for first-k
    /// requests satisfied by the initial slab, +1 per resume (each resume
    /// grows the slab geometrically — 8x).
    pub explore_rounds: u64,
    /// High-water mark of the intermediate-table bytes the query works on
    /// (explored per-machine STwig tables; during the join, a machine's R_k
    /// tables at the bytes one buffer of their row runs would hold, lent or
    /// not, plus whatever the pass stages before delivering — a slab round's
    /// rows, a parallel pass's per-machine rows). A table the cache lends
    /// counts only as an R_k run. The number first-k serving bounds.
    pub peak_table_bytes: u64,
    /// Measured wall-clock time of the whole query, in µs.
    pub wall_us: f64,
    /// Simulated time (makespan over machines of compute + communication), in µs.
    pub simulated_us: f64,
    /// Total cross-machine messages.
    pub network_messages: u64,
    /// Total cross-machine bytes.
    pub network_bytes: u64,
    /// Traffic broken down by phase (exploration, binding sync, join
    /// shipping).
    pub phase_traffic: PhaseTraffic,
    /// Accesses that dereferenced another machine's partition in place
    /// instead of going through the transport: `DirectRead`'s remote
    /// `Cloud.Load`s and `Index.hasLabel` probes. Always 0 under
    /// `TransportMode::Messages`.
    pub direct_remote_reads: u64,
    /// What the fault-tolerance layer absorbed (retries, timeouts,
    /// suppressed duplicates) and lost (unreachable machines) during this
    /// query. All-zero on a fault-free run.
    pub fault: FaultCounters,
    /// Per-machine breakdown (empty for the single-machine executor).
    pub machines: Vec<MachineMetrics>,
    /// Resident bytes of the cloud the query ran against, broken down by
    /// storage component (adjacency / labels / id map / postings /
    /// signatures). A property of the cloud, not the query —
    /// attached here so experiment CSVs can report storage next to query
    /// cost without a second accounting path.
    pub storage: Option<StorageBytes>,
}

impl QueryMetrics {
    /// Simulated time in milliseconds (convenience for reporting).
    pub fn simulated_ms(&self) -> f64 {
        self.simulated_us / 1000.0
    }

    /// Measured wall-clock in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_us / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge() {
        let mut a = ExploreCounters {
            roots_scanned: 1,
            cells_loaded: 2,
            label_probes: 3,
            rows_emitted: 4,
            rows_pruned_by_bindings: 5,
            roots_pruned: 6,
            roots_admitted_empty: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.roots_scanned, 2);
        assert_eq!(a.rows_pruned_by_bindings, 10);
        assert_eq!(a.roots_pruned, 12);
        assert_eq!(a.roots_admitted_empty, 14);

        let mut j = JoinCounters {
            joins_performed: 1,
            intermediate_rows: 10,
            rows_pruned_injective: 2,
            pipeline_rounds: 1,
            build_rows: 7,
            driver_rows: 3,
        };
        j.merge(&j.clone());
        assert_eq!(j.joins_performed, 2);
        assert_eq!(j.intermediate_rows, 20);
        assert_eq!((j.build_rows, j.driver_rows), (14, 6));
    }

    #[test]
    fn phase_traffic_merges_per_phase() {
        let mut a = PhaseTraffic {
            explore_messages: 1,
            explore_bytes: 10,
            binding_sync_messages: 2,
            binding_sync_bytes: 20,
            join_ship_messages: 3,
            join_ship_bytes: 30,
        };
        a.merge(&a.clone());
        let messages = (
            a.explore_messages,
            a.binding_sync_messages,
            a.join_ship_messages,
        );
        assert_eq!(messages, (2, 4, 6));
        let bytes = (a.explore_bytes, a.binding_sync_bytes, a.join_ship_bytes);
        assert_eq!(bytes, (20, 40, 60));
    }

    #[test]
    fn outcome_defaults_to_complete() {
        let m = QueryMetrics::default();
        assert_eq!(m.outcome, QueryOutcome::Complete);
        assert_eq!(m.rows_streamed, 0);
        assert_eq!(m.time_to_first_result_us, None);
    }

    #[test]
    fn fault_counters_merge_union_and_coverage() {
        let mut a = FaultCounters {
            retries: 2,
            timeouts: 1,
            transient_errors: 1,
            duplicates_suppressed: 3,
            machines_lost: vec![2],
        };
        let b = FaultCounters {
            retries: 1,
            machines_lost: vec![0, 2],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.machines_lost, vec![0, 2], "lost set unions sorted");
        a.record_lost(2);
        assert_eq!(a.machines_lost.len(), 2, "record_lost is idempotent");
        assert!((a.coverage(4) - 0.5).abs() < 1e-12);
        assert!((FaultCounters::default().coverage(4) - 1.0).abs() < 1e-12);
        assert!(a.any());
        assert!(!FaultCounters::default().any());
    }

    #[test]
    fn metric_unit_conversions() {
        let m = QueryMetrics {
            wall_us: 2500.0,
            simulated_us: 1500.0,
            ..Default::default()
        };
        assert!((m.wall_ms() - 2.5).abs() < 1e-9);
        assert!((m.simulated_ms() - 1.5).abs() < 1e-9);
    }
}
