//! Tuning knobs of the matcher.

use serde::{Deserialize, Serialize};
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

/// Configuration of a subgraph-matching run: what the query asks for and
/// how its work is spread, never the environment it runs in. The faults a
/// query meets are a per-request option ([`crate::retry::Faults`], carried
/// in [`crate::stream::QueryOptions`]); the join always selects its order
/// from sampled estimates ([`crate::join::select_join_order`]); and the
/// `Load` envelope cap is the executor's
/// ([`crate::distributed::LOAD_BATCH_IDS`]).
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
    /// Read by nothing: a query's faults travel in
    /// [`crate::stream::QueryOptions::faults`]. A shim for the frozen
    /// benchmark, which sets it: a field cannot move into `compat.rs`, so
    /// the next `[benchmark]` PR deletes it with that file.
    pub fault_plan: Option<FaultPlan>,
    /// Read by nothing: the planner is always the paper's f-value
    /// decomposition, and every exploration prunes roots on their
    /// neighborhood signatures. A shim for the frozen benchmark, which sets
    /// it: a field cannot move into `compat.rs`, so the next `[benchmark]`
    /// PR deletes it with that file.
    pub pruning: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            result_mode: ResultMode::All,
            block_rows: 4096,
            use_bindings: true,
            max_stwig_rows: None,
            num_threads: None,
            transport_mode: TransportMode::default(),
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
            .with_max_stwig_rows(Some(99))
            .with_num_threads(Some(3));
        assert_eq!(c.result_mode, ResultMode::FirstK(7));
        assert!(!c.use_bindings);
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
        let c = MatchConfig::default().with_transport_mode(TransportMode::Messages);
        assert_eq!(c.transport_mode, TransportMode::Messages);
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
