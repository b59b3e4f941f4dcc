//! Retry with deterministic backoff for transport exchanges.
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

use crate::config::{FailurePolicy, MatchConfig, RetryPolicy};
use crate::error::StwigError;
use crate::metrics::FaultCounters;
use crate::stream::QueryControl;
use std::time::{Duration, Instant};
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::transport::{Message, Transport, TransportError};
use trinity_sim::MemoryCloud;

/// How a retried exchange resolved.
#[derive(Debug)]
pub enum ExchangeOutcome {
    /// The destination answered; here is its reply.
    Reply(Message),
    /// The query was cancelled or its deadline expired mid-backoff; the
    /// caller should take its usual interrupt path. Not an error: rows
    /// delivered so far stay valid.
    Interrupted,
}

/// Runs `tp.exchange(src, dst, make_msg())` under `policy`.
///
/// `make_msg` is invoked once per attempt so the fault-free fast path pays
/// no extra clone. Transient-failure accounting lands in `faults`
/// (retries, timeouts, other transient errors).
pub fn retry_exchange(
    tp: &dyn Transport,
    policy: &RetryPolicy,
    src: MachineId,
    dst: MachineId,
    make_msg: &dyn Fn() -> Message,
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
) -> Result<ExchangeOutcome, StwigError> {
    let budget = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let err = match tp.exchange(src, dst, make_msg()) {
            Ok(reply) => return Ok(ExchangeOutcome::Reply(reply)),
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
            return Ok(ExchangeOutcome::Interrupted);
        }
    }
}

/// [`retry_exchange`] under the query's [`FailurePolicy`]: the one place an
/// exchange decides that the query goes on without its reply. `Ok(None)`
/// says it does — `dst` was already lost earlier in this query (no second
/// retry ladder rediscovering the same corpse), it stayed unreachable under
/// [`FailurePolicy::Degrade`] (now recorded in `faults.machines_lost`), or
/// the query was interrupted mid-backoff (latched in `control`).
pub fn exchange_or_skip(
    tp: &dyn Transport,
    config: &MatchConfig,
    src: MachineId,
    dst: MachineId,
    make_msg: &dyn Fn() -> Message,
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
) -> Result<Option<Message>, StwigError> {
    if faults.is_lost(dst.0) {
        return Ok(None);
    }
    match retry_exchange(tp, &config.retry, src, dst, make_msg, control, faults) {
        Ok(ExchangeOutcome::Reply(reply)) => Ok(Some(reply)),
        Ok(ExchangeOutcome::Interrupted) => Ok(None),
        Err(StwigError::MachineUnavailable { machine, .. })
            if config.failure_policy == FailurePolicy::Degrade =>
        {
            faults.record_lost(machine);
            Ok(None)
        }
        Err(err) => Err(err),
    }
}

/// `Index.getID` over the transport, the one postings fetch (single-vertex
/// queries and the exploration superstep): machine `dst`'s postings for each
/// of `labels`, one run per label in order, or `None` when the query goes on
/// without them ([`exchange_or_skip`]). The reply is validated before any id
/// of it can reach an answer ([`Message::into_postings`]): its run count,
/// and that `dst` owns every id it lists.
#[allow(clippy::too_many_arguments)]
pub fn fetch_postings(
    tp: &dyn Transport,
    cloud: &MemoryCloud,
    config: &MatchConfig,
    src: MachineId,
    dst: MachineId,
    labels: &[LabelId],
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
) -> Result<Option<Vec<Vec<VertexId>>>, StwigError> {
    let request = || Message::GetIdsRequest {
        labels: labels.to_vec(),
    };
    let Some(reply) = exchange_or_skip(tp, config, src, dst, &request, control, faults)? else {
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
        assert!(matches!(out, ExchangeOutcome::Reply(_)));
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
            timeout_us: None,
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

    /// Regression: a cancelled query must not sit out the rest of a backoff
    /// ladder. With a deliberately huge backoff, cancelling mid-sleep has to
    /// return [`ExchangeOutcome::Interrupted`] promptly.
    #[test]
    fn cancel_mid_backoff_returns_promptly() {
        let tp = Scripted::failing(u32::MAX, TransportError::Unavailable { dst: m(1) });
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 2_000_000, // 2 s per backoff: the full ladder is ~20 s
            max_backoff_us: 2_000_000,
            timeout_us: None,
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
        assert!(matches!(out, ExchangeOutcome::Interrupted));
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
            timeout_us: None,
        };
        let control = QueryControl::new(
            &QueryOptions::none().with_deadline(Duration::ZERO),
            Instant::now(),
        );
        let started = Instant::now();
        let mut faults = FaultCounters::default();
        let out =
            retry_exchange(&tp, &policy, m(0), m(1), &req, Some(&control), &mut faults).unwrap();
        assert!(matches!(out, ExchangeOutcome::Interrupted));
        assert!(started.elapsed() < Duration::from_millis(500));
    }
}
