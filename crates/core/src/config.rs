//! Tuning knobs of the matcher.

use serde::{Deserialize, Serialize};
use std::time::Duration;
use trinity_sim::fault::FaultPlan;

/// How the distributed executor moves data between logical machines.
///
/// Result tables and `matches_found` are **bit-identical** across modes (the
/// differential and parallel-equality suites sweep both); the modes differ
/// only in how remote data travels and therefore in what the simulated
/// network is charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportMode {
    /// Legacy simulation shortcut: machines dereference remote partitions in
    /// place (`Cloud.Load` / `Index.hasLabel` on foreign vertices) and the
    /// network matrix is charged a per-access estimate. Every such access is
    /// tallied by `MemoryCloud::direct_remote_reads`. The default.
    #[default]
    DirectRead,
    /// Partition-local execution over an explicit batched transport
    /// (`trinity_sim::transport`): exploration runs frontier/superstep style
    /// — collect remote vertex ids per owner, flush one batched `Load`
    /// request per destination per round, continue on the owned label
    /// replies — and binding sync + load-set shipping are actual messages.
    /// The cost model charges the envelopes really sent. Performs **zero**
    /// direct cross-partition reads.
    Messages,
}

/// What the caller wants back from a query — and therefore how much work the
/// executor is allowed to skip.
///
/// The paper's serving experiments (§7) deliver the *first 1024 matches* per
/// query: a client-facing system is judged on time-to-first-k, not on
/// exhaustive enumeration. `FirstK`/`Exists` let the distributed executor
/// interleave exploration and join incrementally and stop as soon as enough
/// *valid* embeddings exist — the delivered rows are genuine matches, but
/// **not** a prefix of the canonical full-enumeration table (see DESIGN.md,
/// "First-k early stop").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResultMode {
    /// Enumerate every match: one uncapped exploration round, then the join
    /// delivers every row. The default.
    #[default]
    All,
    /// Stop after `k` valid embeddings; exploration is bounded to slabs
    /// sized for `k` and resumed only when the join undershoots.
    FirstK(usize),
    /// Only answer whether at least one embedding exists (equivalent to
    /// `FirstK(1)` with a boolean read-out).
    Exists,
}

/// Retry behavior for transport exchanges.
///
/// Exchanges are **pure reads** against an immutable partition (batched
/// `Cloud.Load`, `Index.getID`), so retrying one is always safe: a repeated
/// request returns the same cells. Backoff between attempts is exponential
/// with **deterministic jitter** — the jitter is a hash of `(src, dst,
/// attempt)`, not a random draw, so two runs of the same query back off
/// identically and results stay reproducible.
///
/// Durations are stored in microseconds (plain integers serialize portably;
/// the vendored serde has no `Duration` support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per exchange, including the first (floored at 1).
    /// Keep this above `trinity_sim::fault::MAX_TRANSIENT_FAILURES` (2) so
    /// chaos plans with bounded transient faults always get through.
    pub max_attempts: u32,
    /// Backoff before the second attempt, µs; doubles per further attempt.
    pub base_backoff_us: u64,
    /// Ceiling on a single backoff, µs.
    pub max_backoff_us: u64,
    /// Per-exchange timeout, µs (`None` = wait forever). Threaded into the
    /// transport so a wedged peer surfaces as
    /// `TransportError::Timeout { dst, phase }` instead of blocking the
    /// query thread indefinitely.
    pub timeout_us: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 50,
            max_backoff_us: 5_000,
            timeout_us: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never times out (PR-6 behavior).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_us: 0,
            max_backoff_us: 0,
            timeout_us: None,
        }
    }

    /// Sets the total attempt budget (floored at 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the per-exchange timeout.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout_us = timeout.map(|t| t.as_micros() as u64);
        self
    }

    /// The per-exchange timeout as a `Duration`, if configured.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout_us.map(Duration::from_micros)
    }

    /// The backoff before attempt `attempt + 1` (1-based failed attempt):
    /// exponential from `base_backoff_us`, capped at `max_backoff_us`, plus
    /// up to 50% deterministic jitter derived from `salt` (callers pass a
    /// hash of the link) so synchronized retry storms de-correlate without
    /// sacrificing reproducibility.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if self.base_backoff_us == 0 {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(20);
        let base = self
            .base_backoff_us
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_us.max(self.base_backoff_us));
        let jitter = if base == 0 {
            0
        } else {
            splitmix(salt ^ attempt as u64) % (base / 2 + 1)
        };
        Duration::from_micros(base + jitter)
    }
}

/// SplitMix64 finalizer for deterministic backoff jitter.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a query does when a machine stays unreachable after the whole retry
/// budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Fail the query with `StwigError::MachineUnavailable` (default): the
    /// caller gets a typed error instead of a silently incomplete answer.
    #[default]
    Fail,
    /// Keep going without the lost machine: every delivered row is still a
    /// verified match, rows needing the dead machine are absent, and the
    /// query resolves as `QueryOutcome::Partial` with the lost machines
    /// recorded in its metrics.
    Degrade,
}

/// Configuration of a subgraph-matching run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchConfig {
    /// What to produce: everything, the first k valid embeddings, or a bare
    /// existence check (see [`ResultMode`]). `All` enumerates in one
    /// exploration round; `FirstK`/`Exists` additionally let the executor
    /// bound exploration. This is the **only** result-limit knob —
    /// the historical `max_results` cap is expressed as
    /// `ResultMode::FirstK(n)` — and [`MatchConfig::result_limit`] is its
    /// single interpreter.
    pub result_mode: ResultMode,
    /// Number of rows of the driver table joined per pipeline round
    /// (derived from available memory in the paper; a fixed row budget here).
    /// The join extends one driver row at a time, so this only places the
    /// round boundaries: where a streaming sink flushes and the limit and
    /// the query's control are checked before the next round is counted.
    pub block_rows: usize,
    /// Whether to use binding information from previously-processed STwigs to
    /// prune candidates during exploration (§4.2). Disabling this reproduces
    /// the naive "match every STwig independently, then join" strategy that
    /// §3 argues against; it is exposed for the ablation experiment.
    pub use_bindings: bool,
    /// Rows sampled from each table for join-cardinality estimation.
    pub join_sample_size: usize,
    /// Whether join-order selection is enabled; when disabled tables are
    /// joined in STwig processing order (ablation knob).
    pub optimize_join_order: bool,
    /// Maximum rows MatchSTwig may emit per machine per STwig (guard against
    /// pathological cross products). `None` is unbounded. A cache serves an
    /// STwig only when no machine's complete table exceeds it.
    pub max_stwig_rows: Option<usize>,
    /// Worker threads exploration fans logical machines out over: each
    /// machine's exploration step of an STwig is a work item (see
    /// DESIGN.md). The join runs the machines' load-set joins in machine
    /// order on the query's thread. `None` uses the host's available
    /// parallelism; `Some(1)` explores serially. Result tables and
    /// algorithmic counters are identical for every setting; only measured
    /// times (wall-clock, and the compute component of the simulated
    /// makespan) change.
    pub num_threads: Option<usize>,
    /// How the distributed executor moves data between machines (see
    /// [`TransportMode`]). Results are identical across modes.
    pub transport_mode: TransportMode,
    /// Maximum vertex ids per batched `Load` request envelope in
    /// [`TransportMode::Messages`] (a destination's frontier larger than
    /// this is split into several envelopes). Affects message counts and
    /// therefore simulated time, never results.
    pub transport_batch_ids: usize,
    /// Retry/timeout/backoff behavior for transport exchanges (see
    /// [`RetryPolicy`]). Exchanges are pure reads, so retries never change
    /// results — they only absorb transient faults.
    pub retry: RetryPolicy,
    /// What to do when a machine stays unreachable after retries (see
    /// [`FailurePolicy`]).
    pub failure_policy: FailurePolicy,
    /// Fault-injection plan executed by wrapping the query's transport in a
    /// `trinity_sim::fault::FaultyTransport` (default `None`). Only
    /// effective in [`TransportMode::Messages`].
    pub fault_plan: Option<FaultPlan>,
    /// Read by nothing: the planner is always the paper's f-value
    /// decomposition, and every exploration prunes roots on their
    /// neighborhood signatures. A shim for the frozen benchmark, which sets
    /// it; ROADMAP item 1 deletes it.
    pub pruning: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            result_mode: ResultMode::All,
            block_rows: 4096,
            use_bindings: true,
            join_sample_size: 64,
            optimize_join_order: true,
            max_stwig_rows: None,
            num_threads: None,
            transport_mode: TransportMode::default(),
            transport_batch_ids: 4096,
            retry: RetryPolicy::default(),
            failure_policy: FailurePolicy::default(),
            fault_plan: None,
            pruning: false,
        }
    }
}

impl MatchConfig {
    /// The configuration used in the paper's timing experiments: pipeline join
    /// terminating after 1024 matches ([`ResultMode::FirstK`]). Exploration is
    /// additionally capped at 64k rows per STwig per machine — the paper's
    /// runs are similarly bounded in practice because they stop once 1024
    /// matches are produced.
    pub fn paper_default() -> Self {
        MatchConfig {
            result_mode: ResultMode::FirstK(1024),
            max_stwig_rows: Some(65_536),
            ..Default::default()
        }
    }

    /// Enumerate every match (no early termination).
    pub fn exhaustive() -> Self {
        MatchConfig {
            result_mode: ResultMode::All,
            ..Default::default()
        }
    }

    /// Sets the result mode (see [`ResultMode`]).
    pub fn with_result_mode(mut self, mode: ResultMode) -> Self {
        self.result_mode = mode;
        self
    }

    /// The effective row limit this configuration imposes on the final
    /// result — the **single interpreter** of [`ResultMode`]: unlimited
    /// under [`ResultMode::All`], `k` under [`ResultMode::FirstK`], and `1`
    /// under [`ResultMode::Exists`].
    pub fn result_limit(&self) -> Option<usize> {
        match self.result_mode {
            ResultMode::All => None,
            ResultMode::FirstK(k) => Some(k),
            ResultMode::Exists => Some(1),
        }
    }

    /// Enables or disables binding-based pruning.
    pub fn with_bindings(mut self, on: bool) -> Self {
        self.use_bindings = on;
        self
    }

    /// Enables or disables join-order optimization.
    pub fn with_join_order_optimization(mut self, on: bool) -> Self {
        self.optimize_join_order = on;
        self
    }

    /// Sets the per-machine, per-STwig exploration row cap.
    ///
    /// The cap interacts cleanly with the STwig-result cache: bound
    /// exploration truncated at `n` rows equals the binding-filtered unbound
    /// table truncated at `n` rows, so cached entries (stored unbound and
    /// untruncated) reproduce capped runs exactly (see `crate::cache`).
    pub fn with_max_stwig_rows(mut self, rows: Option<usize>) -> Self {
        self.max_stwig_rows = rows;
        self
    }

    /// Sets the distributed executor's worker-thread count (`None` =
    /// available parallelism, `Some(1)` = serial).
    pub fn with_num_threads(mut self, threads: Option<usize>) -> Self {
        self.num_threads = threads;
        self
    }

    /// Sets the transport mode of the distributed executor.
    pub fn with_transport_mode(mut self, mode: TransportMode) -> Self {
        self.transport_mode = mode;
        self
    }

    /// Sets the per-envelope id cap for batched `Load` requests
    /// (floored at 1).
    pub fn with_transport_batch_ids(mut self, ids: usize) -> Self {
        self.transport_batch_ids = ids.max(1);
        self
    }

    /// Sets the exchange retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the machine-loss policy.
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Sets (or clears) the fault-injection plan.
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The worker-thread count this configuration resolves to on the current
    /// host.
    pub fn resolved_num_threads(&self) -> usize {
        self.num_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exhaustive() {
        let c = MatchConfig::default();
        assert_eq!(c.result_mode, ResultMode::All);
        assert!(c.use_bindings);
        assert!(c.optimize_join_order);
        assert_eq!(c.fault_plan, None);
    }

    #[test]
    fn paper_default_limits_results() {
        assert_eq!(
            MatchConfig::paper_default().result_mode,
            ResultMode::FirstK(1024)
        );
    }

    #[test]
    fn builder_style_setters() {
        let c = MatchConfig::default()
            .with_result_mode(ResultMode::FirstK(7))
            .with_bindings(false)
            .with_join_order_optimization(false)
            .with_max_stwig_rows(Some(99))
            .with_num_threads(Some(3));
        assert_eq!(c.result_mode, ResultMode::FirstK(7));
        assert!(!c.use_bindings);
        assert!(!c.optimize_join_order);
        assert_eq!(c.max_stwig_rows, Some(99));
        assert_eq!(c.num_threads, Some(3));
        assert_eq!(c.resolved_num_threads(), 3);
    }

    #[test]
    fn transport_mode_setters() {
        assert_eq!(
            MatchConfig::default().transport_mode,
            TransportMode::DirectRead
        );
        let c = MatchConfig::default()
            .with_transport_mode(TransportMode::Messages)
            .with_transport_batch_ids(0);
        assert_eq!(c.transport_mode, TransportMode::Messages);
        assert_eq!(c.transport_batch_ids, 1, "batch cap is floored at 1");
    }

    #[test]
    fn result_mode_limits() {
        assert_eq!(MatchConfig::default().result_limit(), None);
        assert_eq!(MatchConfig::paper_default().result_limit(), Some(1024));
        let first_k = MatchConfig::default().with_result_mode(ResultMode::FirstK(7));
        assert_eq!(first_k.result_limit(), Some(7));
        assert_eq!(MatchConfig::exhaustive().result_limit(), None);
        assert_eq!(
            MatchConfig::default()
                .with_result_mode(ResultMode::Exists)
                .result_limit(),
            Some(1)
        );
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1, 42), p.backoff(1, 42), "same inputs, same wait");
        assert_ne!(p.backoff(1, 42), p.backoff(1, 43), "salt moves the jitter");
        // Exponential up to the cap, jitter at most 50% on top.
        assert!(p.backoff(1, 7) <= Duration::from_micros(75));
        assert!(p.backoff(30, 7) <= Duration::from_micros(7_500));
        assert_eq!(RetryPolicy::none().backoff(5, 9), Duration::ZERO);
        assert_eq!(RetryPolicy::none().with_max_attempts(0).max_attempts, 1);
        let timed = RetryPolicy::default().with_timeout(Some(Duration::from_millis(2)));
        assert_eq!(timed.timeout(), Some(Duration::from_millis(2)));
        assert_eq!(RetryPolicy::default().timeout(), None);
    }

    #[test]
    fn failure_policy_and_fault_plan_knobs() {
        let c = MatchConfig::default()
            .with_failure_policy(FailurePolicy::Degrade)
            .with_fault_plan(Some(FaultPlan::lossy(3)))
            .with_retry(RetryPolicy::none());
        assert_eq!(c.failure_policy, FailurePolicy::Degrade);
        assert_eq!(c.fault_plan, Some(FaultPlan::lossy(3)));
        assert_eq!(c.retry.max_attempts, 1);
        assert_eq!(FailurePolicy::default(), FailurePolicy::Fail);
    }

    #[test]
    fn num_threads_resolution() {
        // Explicit settings resolve verbatim (floored at 1); the default
        // resolves to the host's available parallelism, which is ≥ 1.
        assert_eq!(
            MatchConfig::default()
                .with_num_threads(Some(8))
                .resolved_num_threads(),
            8
        );
        assert!(MatchConfig::default().resolved_num_threads() >= 1);
    }
}
