//! The fault stack of a query ([`Faults`]) and the one place it is read:
//! retry with deterministic backoff for transport exchanges, and the
//! decision to go on without a lost machine.
//!
//! A query runs without faults unless its request arms them
//! ([`crate::stream::QueryOptions::faults`]). Without them every exchange
//! is a single `Transport::exchange`, and any error it returns is the
//! peer's protocol violation ([`StwigError::Transport`]). With [`Faults`]
//! armed, the query's transport injects the plan's faults and the policies
//! below absorb them.
//!
//! Exchanges (batched `Cloud.Load`, `Index.getID`) are pure reads against an
//! immutable partition, so a repeated request is idempotent by construction
//! — the retry loop here is safe to wrap around every exchange the executor
//! makes. Transient failures ([`TransportError::is_transient`]) are retried
//! up to [`RetryPolicy::max_attempts`] with exponential, deterministically
//! jittered backoff; a permanent failure ([`TransportError::MachineDown`])
//! or an exhausted budget surfaces as [`StwigError::MachineUnavailable`],
//! and protocol violations are never retried (replaying a bug yields the
//! same bug).
//!
//! Backoff sleeps are **interruptible**: they poll the query's
//! [`QueryControl`] (cancel token + deadline) every millisecond, so a
//! cancelled or expired query never sits out the remainder of a backoff
//! ladder.

use crate::error::StwigError;
use crate::metrics::FaultCounters;
use crate::stream::QueryControl;
use std::time::{Duration, Instant};
use trinity_sim::fault::FaultPlan;
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::transport::{Message, Transport, TransportError};
use trinity_sim::MemoryCloud;

/// Retry behavior for transport exchanges.
///
/// Exchanges are **pure reads** against an immutable partition (batched
/// `Cloud.Load`, `Index.getID`), so retrying one is always safe: a repeated
/// request returns the same cells. Backoff between attempts is exponential
/// with **deterministic jitter** — the jitter is a hash of `(src, dst,
/// attempt)`, not a random draw, so two runs of the same query back off
/// identically and results stay reproducible.
///
/// Durations are in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per exchange, including the first (floored at 1).
    /// Keep this above `trinity_sim::fault::MAX_TRANSIENT_FAILURES` (2) so
    /// chaos plans with bounded transient faults always get through.
    pub max_attempts: u32,
    /// Backoff before the second attempt, µs; doubles per further attempt.
    pub base_backoff_us: u64,
    /// Ceiling on a single backoff, µs.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 50,
            max_backoff_us: 5_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt + 1` (1-based failed attempt):
    /// exponential from `base_backoff_us`, capped at `max_backoff_us`, plus
    /// up to 50% deterministic jitter derived from `salt` (callers pass a
    /// hash of the link) so synchronized retry storms de-correlate without
    /// sacrificing reproducibility.
    pub(crate) fn backoff(&self, attempt: u32, salt: u64) -> Duration {
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// The fault stack one query runs under: the faults its transport injects,
/// the retry policy that absorbs the transient ones, and what the query does
/// about a machine that stays unreachable. A request option
/// ([`crate::stream::QueryOptions::faults`]), effective only under
/// [`crate::config::TransportMode::Messages`]: a `DirectRead` query that
/// arms it fails with [`StwigError::FaultsNeedMessages`] before any work.
#[derive(Debug, Clone, PartialEq)]
pub struct Faults {
    /// What the query's transport injects
    /// (a [`trinity_sim::fault::FaultyTransport`] around its mailboxes).
    pub plan: FaultPlan,
    /// How every exchange retries a transient fault.
    pub retry: RetryPolicy,
    /// What the query does about a machine lost for good.
    pub on_loss: FailurePolicy,
}

impl Faults {
    /// `plan` under the default retry policy, failing on a lost machine.
    pub fn new(plan: FaultPlan) -> Self {
        Faults {
            plan,
            retry: RetryPolicy::default(),
            on_loss: FailurePolicy::Fail,
        }
    }
}

/// Runs `tp.exchange(src, dst, make_msg())` under `policy`: the reply, or
/// `None` when the query was cancelled or its deadline expired mid-backoff
/// (not an error: the caller takes its usual interrupt path, and rows
/// delivered so far stay valid).
///
/// `make_msg` is invoked once per attempt so the fault-free fast path pays
/// no extra clone. Transient-failure accounting lands in `faults`
/// (retries, timeouts, other transient errors).
pub(crate) fn retry_exchange(
    tp: &dyn Transport,
    policy: &RetryPolicy,
    src: MachineId,
    dst: MachineId,
    make_msg: &dyn Fn() -> Message,
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
) -> Result<Option<Message>, StwigError> {
    let budget = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let err = match tp.exchange(src, dst, make_msg()) {
            Ok(reply) => return Ok(Some(reply)),
            Err(err) => err,
        };
        match &err {
            TransportError::Timeout { .. } => faults.timeouts += 1,
            e if e.is_transient() => faults.transient_errors += 1,
            _ => {}
        }
        if let TransportError::MachineDown { dst: dead } = err {
            // Permanent loss: retrying cannot revive the machine.
            return Err(StwigError::MachineUnavailable {
                machine: dead.0,
                attempts: attempt,
                last: err,
            });
        }
        if !err.is_transient() {
            // Protocol violation — deterministic, never retried.
            return Err(StwigError::Transport(err));
        }
        if attempt >= budget {
            return Err(StwigError::MachineUnavailable {
                machine: dst.0,
                attempts: attempt,
                last: err,
            });
        }
        faults.retries += 1;
        let salt = ((src.0 as u64) << 16) | dst.0 as u64;
        if interruptible_sleep(policy.backoff(attempt, salt), control) {
            return Ok(None);
        }
    }
}

/// One exchange under the query's fault stack: a single
/// `tp.exchange` when its request armed no [`Faults`] (any error is
/// [`StwigError::Transport`]), else [`retry_exchange`] under
/// [`Faults::retry`] and [`Faults::on_loss`]. `Ok(None)` says the query goes
/// on without the reply — `dst` was already lost earlier in this query (no
/// second retry ladder rediscovering the same corpse), it stayed unreachable
/// under [`FailurePolicy::Degrade`] (now recorded in
/// `faults.machines_lost`), or the query was interrupted mid-backoff
/// (latched in `control`).
pub(crate) fn exchange_or_skip(
    tp: &dyn Transport,
    src: MachineId,
    dst: MachineId,
    make_msg: &dyn Fn() -> Message,
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
) -> Result<Option<Message>, StwigError> {
    let Some(stack) = control.and_then(QueryControl::faults) else {
        let reply = tp.exchange(src, dst, make_msg());
        return reply.map(Some).map_err(StwigError::Transport);
    };
    if faults.is_lost(dst.0) {
        return Ok(None);
    }
    retry_exchange(tp, &stack.retry, src, dst, make_msg, control, faults).or_else(|err| {
        let machine = degraded_loss(&err, control).ok_or(err)?;
        faults.record_lost(machine);
        Ok(None)
    })
}

/// The machine `err` lost, when the query goes on without it: a
/// [`StwigError::MachineUnavailable`] under [`FailurePolicy::Degrade`].
pub(crate) fn degraded_loss(err: &StwigError, control: Option<&QueryControl>) -> Option<u16> {
    let degrade = control.and_then(QueryControl::faults)?.on_loss == FailurePolicy::Degrade;
    match err {
        StwigError::MachineUnavailable { machine, .. } if degrade => Some(*machine),
        _ => None,
    }
}

/// `Index.getID` over the transport, the one postings fetch (single-vertex
/// queries and the exploration superstep): machine `dst`'s postings for each
/// of `labels`, one run per label in order, or `None` when the query goes on
/// without them ([`exchange_or_skip`]). The reply is validated before any id
/// of it can reach an answer ([`Message::into_postings`]): its run count,
/// and that `dst` owns every id it lists.
pub(crate) fn fetch_postings(
    tp: &dyn Transport,
    cloud: &MemoryCloud,
    src: MachineId,
    dst: MachineId,
    labels: &[LabelId],
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
) -> Result<Option<Vec<Vec<VertexId>>>, StwigError> {
    let request = || Message::GetIdsRequest {
        labels: labels.to_vec(),
    };
    let Some(reply) = exchange_or_skip(tp, src, dst, &request, control, faults)? else {
        return Ok(None);
    };
    reply
        .into_postings(labels.len(), |id| cloud.machine_of(id) == dst)
        .map(Some)
        .map_err(StwigError::Transport)
}

/// Sleeps for `wait`, polling `control` at millisecond granularity; returns
/// `true` if the query was interrupted before the wait elapsed.
fn interruptible_sleep(wait: Duration, control: Option<&QueryControl>) -> bool {
    if wait.is_zero() {
        return control.is_some_and(QueryControl::interrupted);
    }
    let until = Instant::now() + wait;
    loop {
        if control.is_some_and(QueryControl::interrupted) {
            return true;
        }
        let now = Instant::now();
        if now >= until {
            return false;
        }
        std::thread::sleep((until - now).min(Duration::from_millis(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{CancelToken, QueryOptions};
    use std::sync::atomic::{AtomicU32, Ordering};
    use trinity_sim::transport::Envelope;

    /// A transport whose exchanges fail a scripted number of times.
    struct Scripted {
        failures: AtomicU32,
        err: TransportError,
    }

    impl Scripted {
        fn failing(times: u32, err: TransportError) -> Self {
            Scripted {
                failures: AtomicU32::new(times),
                err,
            }
        }
    }

    impl Transport for Scripted {
        fn exchange(
            &self,
            _src: MachineId,
            _dst: MachineId,
            _msg: Message,
        ) -> Result<Message, TransportError> {
            let left = self.failures.load(Ordering::Relaxed);
            if left > 0 {
                self.failures.store(left - 1, Ordering::Relaxed);
                return Err(self.err.clone());
            }
            Ok(Message::LoadReply { cells: vec![] })
        }

        fn alloc_seq(&self, _src: MachineId, _dst: MachineId) -> u64 {
            0
        }

        fn post_envelope(&self, _dst: MachineId, _env: Envelope) {}

        fn drain(&self, _dst: MachineId) -> Vec<Envelope> {
            Vec::new()
        }
    }

    fn req() -> Message {
        Message::LoadRequest {
            ids: vec![],
            with_neighbors: false,
        }
    }

    fn m(i: u16) -> MachineId {
        MachineId(i)
    }

    #[test]
    fn transient_failures_within_budget_are_absorbed() {
        let tp = Scripted::failing(2, TransportError::Unavailable { dst: m(1) });
        let mut faults = FaultCounters::default();
        let out = retry_exchange(
            &tp,
            &RetryPolicy::default(),
            m(0),
            m(1),
            &req,
            None,
            &mut faults,
        )
        .unwrap();
        assert!(out.is_some());
        assert_eq!(faults.retries, 2);
        assert_eq!(faults.transient_errors, 2);
        assert_eq!(faults.timeouts, 0);
    }

    #[test]
    fn exhausted_budget_is_machine_unavailable() {
        let tp = Scripted::failing(
            u32::MAX,
            TransportError::Timeout {
                dst: m(2),
                phase: "LoadRequest",
            },
        );
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1,
            max_backoff_us: 10,
        };
        let mut faults = FaultCounters::default();
        let err = retry_exchange(&tp, &policy, m(0), m(2), &req, None, &mut faults).unwrap_err();
        assert_eq!(
            err,
            StwigError::MachineUnavailable {
                machine: 2,
                attempts: 3,
                last: TransportError::Timeout {
                    dst: m(2),
                    phase: "LoadRequest"
                },
            }
        );
        assert_eq!(faults.timeouts, 3);
        assert_eq!(faults.retries, 2, "no backoff after the final attempt");
    }

    #[test]
    fn machine_down_fails_immediately_without_retries() {
        let tp = Scripted::failing(u32::MAX, TransportError::MachineDown { dst: m(1) });
        let mut faults = FaultCounters::default();
        let err = retry_exchange(
            &tp,
            &RetryPolicy::default(),
            m(0),
            m(1),
            &req,
            None,
            &mut faults,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StwigError::MachineUnavailable {
                machine: 1,
                attempts: 1,
                ..
            }
        ));
        assert_eq!(faults.retries, 0);
    }

    #[test]
    fn protocol_violations_are_never_retried() {
        let tp = Scripted::failing(u32::MAX, TransportError::NotARequest { got: "JoinRows" });
        let mut faults = FaultCounters::default();
        let err = retry_exchange(
            &tp,
            &RetryPolicy::default(),
            m(0),
            m(1),
            &req,
            None,
            &mut faults,
        )
        .unwrap_err();
        assert!(matches!(err, StwigError::Transport(_)));
        assert_eq!(faults.retries, 0);
    }

    #[test]
    fn without_faults_an_exchange_is_tried_once_and_under_degrade_a_loss_is_skipped() {
        let tp = Scripted::failing(1, TransportError::Unavailable { dst: m(1) });
        let mut faults = FaultCounters::default();
        let err = exchange_or_skip(&tp, m(0), m(1), &req, None, &mut faults).unwrap_err();
        let unavailable = TransportError::Unavailable { dst: m(1) };
        assert_eq!(err, StwigError::Transport(unavailable));
        assert!(!faults.any(), "no retry layer, nothing absorbed");
        let tp = Scripted::failing(u32::MAX, TransportError::MachineDown { dst: m(1) });
        let degrade = Faults {
            on_loss: FailurePolicy::Degrade,
            ..Faults::new(FaultPlan::default())
        };
        let control = QueryControl::new(&QueryOptions::none().with_faults(degrade), Instant::now());
        for _ in 0..2 {
            let skipped = exchange_or_skip(&tp, m(0), m(1), &req, Some(&control), &mut faults);
            assert_eq!(skipped, Ok(None));
        }
        assert_eq!(faults.machines_lost, [1], "recorded once");
    }

    /// Regression: a cancelled query must not sit out the rest of a backoff
    /// ladder. With a deliberately huge backoff, cancelling mid-sleep has to
    /// return `None` promptly.
    #[test]
    fn cancel_mid_backoff_returns_promptly() {
        let tp = Scripted::failing(u32::MAX, TransportError::Unavailable { dst: m(1) });
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 2_000_000, // 2 s per backoff: the full ladder is ~20 s
            max_backoff_us: 2_000_000,
        };
        let cancel = CancelToken::new();
        let control = QueryControl::new(
            &QueryOptions::none().with_cancel(cancel.clone()),
            Instant::now(),
        );
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cancel.cancel();
        });
        let started = Instant::now();
        let mut faults = FaultCounters::default();
        let out =
            retry_exchange(&tp, &policy, m(0), m(1), &req, Some(&control), &mut faults).unwrap();
        canceller.join().unwrap();
        assert!(out.is_none());
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "cancel must cut the backoff short (took {:?})",
            started.elapsed()
        );
    }

    /// An already-expired deadline likewise skips the backoff entirely.
    #[test]
    fn expired_deadline_skips_backoff() {
        let tp = Scripted::failing(u32::MAX, TransportError::Unavailable { dst: m(1) });
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 2_000_000,
            max_backoff_us: 2_000_000,
        };
        let control = QueryControl::new(
            &QueryOptions::none().with_deadline(Duration::ZERO),
            Instant::now(),
        );
        let started = Instant::now();
        let mut faults = FaultCounters::default();
        let out =
            retry_exchange(&tp, &policy, m(0), m(1), &req, Some(&control), &mut faults).unwrap();
        assert!(out.is_none());
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1, 42), p.backoff(1, 42), "same inputs, same wait");
        assert_ne!(p.backoff(1, 42), p.backoff(1, 43), "salt moves the jitter");
        // Exponential up to the cap, jitter at most 50% on top.
        assert!(p.backoff(1, 7) <= Duration::from_micros(75));
        assert!(p.backoff(30, 7) <= Duration::from_micros(7_500));
        let no_wait = RetryPolicy {
            base_backoff_us: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(no_wait.backoff(5, 9), Duration::ZERO);
    }
}
