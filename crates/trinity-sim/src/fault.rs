//! Deterministic, seed-driven fault injection for any [`Transport`].
//!
//! The paper targets commodity clusters where message loss, stragglers and
//! machine failure are the steady state — so the executor's fault tolerance
//! must be testable *without* a flaky network. [`FaultyTransport`] wraps any
//! [`Transport`] and injects faults according to a [`FaultPlan`]: every
//! decision is a pure function of the plan's seed and the operation's
//! identity (link, sequence number, request fingerprint), so the same run
//! injects the same faults every time, and a failing chaos run replays
//! exactly from its seed.
//!
//! ## Fault vocabulary
//!
//! One-way posts can be **dropped** (first copy lost; the sender-side
//! retransmission arrives at the next drain), **duplicated** (two copies of
//! the same envelope delivered; the mailbox suppresses one), **delayed**
//! (held back and flushed at the next drain, after younger envelopes — which
//! is also how *reordering* happens), or **corrupted** (checksum discards
//! the copy; retransmitted like a drop). Request/reply exchanges can hit
//! **transient unavailability**, a **timeout**, or a **corrupt reply** —
//! each bounded to at most [`MAX_TRANSIENT_FAILURES`] consecutive failures
//! per distinct request, so any retry policy with more attempts than that
//! always gets through. A [`MachineCrash`] is the one *permanent* fault:
//! after serving `after_ops` exchanges the machine falls off the network
//! (exchanges fail with [`TransportError::MachineDown`], posts vanish,
//! drains return nothing) while its partition data stays readable — in the
//! simulation a crash kills the message loop, not the memory.
//!
//! ## Eventual delivery
//!
//! Every plan without a crash is *eventually delivering*: each logical post
//! reaches its mailbox exactly once (drops and corruptions are
//! retransmitted, duplicates are suppressed by the `(src, seq)` identity on
//! drain), and each exchange succeeds within a bounded number of attempts.
//! Under such a plan the executor must produce **bit-identical** results to
//! the fault-free run — the chaos differential suite pins exactly that.
//!
//! A plan is armed per query, as a value: the `stwig` crate carries it with
//! its retry and machine-loss policies in `QueryOptions::faults`.

use crate::ids::MachineId;
use crate::transport::{Envelope, Message, Transport, TransportError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Upper bound on consecutive injected failures of one distinct exchange.
///
/// A transient fault on an exchange fails it for the first one or two
/// attempts (chosen deterministically from the seed) and then lets it
/// through, so a retry policy with more attempts than this (the `stwig`
/// crate's `RetryPolicy::max_attempts`) always absorbs transient faults.
/// Keeping this below the default retry budget is what makes chaos runs
/// deterministic-green instead of probabilistically flaky.
pub const MAX_TRANSIENT_FAILURES: u32 = 2;

/// A permanent machine loss: after `machine` has served `after_ops`
/// exchanges it drops off the network for good.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineCrash {
    /// The machine that dies.
    pub machine: u16,
    /// Exchanges the machine serves before dying (`0` = dead on arrival).
    pub after_ops: u64,
}

/// A deterministic, seed-driven chaos schedule for a [`FaultyTransport`].
///
/// Probabilities are per-operation in `[0, 1]`; which operations are hit is
/// a pure function of `seed` and the operation's identity, never of wall
/// clock or thread timing. The zero plan (`FaultPlan::default()`) injects
/// nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Probability a post's first copy is lost (retransmitted next drain).
    pub drop: f64,
    /// Probability a post is delivered twice (suppressed by drain dedup).
    pub duplicate: f64,
    /// Probability a post is delayed past younger envelopes (reordering).
    pub delay: f64,
    /// Probability of payload corruption: a post's copy is discarded by
    /// checksum and retransmitted; an exchange reply fails with
    /// [`TransportError::CorruptPayload`] for 1–2 attempts.
    pub corrupt: f64,
    /// Probability an exchange hits [`TransportError::Unavailable`]
    /// for 1–2 attempts.
    pub unavailable: f64,
    /// Probability an exchange hits [`TransportError::Timeout`]
    /// for 1–2 attempts.
    pub timeout: f64,
    /// Optional permanent machine crash.
    pub crash: Option<MachineCrash>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            corrupt: 0.0,
            unavailable: 0.0,
            timeout: 0.0,
            crash: None,
        }
    }
}

impl FaultPlan {
    /// A representative lossy-but-eventually-delivering plan: ≥10% drop,
    /// duplication and reordering plus transient exchange faults, no crash.
    pub fn lossy(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.12,
            duplicate: 0.10,
            delay: 0.12,
            corrupt: 0.03,
            unavailable: 0.05,
            timeout: 0.03,
            crash: None,
        }
    }

    /// Returns the plan with a permanent crash of `machine` after it has
    /// served `after_ops` exchanges.
    pub fn with_crash(mut self, machine: u16, after_ops: u64) -> Self {
        self.crash = Some(MachineCrash { machine, after_ops });
        self
    }

    /// Returns the plan with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether every logical send eventually reaches its destination: true
    /// for any plan without a permanent crash. Only eventually-delivering
    /// plans preserve bit-identical query results.
    pub fn eventually_delivers(&self) -> bool {
        self.crash.is_none()
    }
}

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A post's first copy was lost (retransmitted at the next drain).
    Drop,
    /// A post was delivered twice.
    Duplicate,
    /// A post was held back past younger envelopes.
    Delay,
    /// A payload was corrupted (post copy discarded, or exchange reply
    /// failed its checksum).
    Corrupt,
    /// An exchange found the destination transiently unavailable.
    Unavailable,
    /// An exchange timed out.
    Timeout,
    /// An operation was swallowed because a crashed machine was involved.
    CrashDrop,
}

/// One injected fault, for the deterministic fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Sending machine of the afflicted operation.
    pub src: u16,
    /// Destination machine of the afflicted operation.
    pub dst: u16,
    /// Operation identity: the envelope sequence number for posts, the
    /// request fingerprint for exchanges.
    pub op: u64,
}

#[derive(Default)]
struct FaultState {
    /// Envelopes held back (drops, delays, corrupted copies) per
    /// destination, flushed at that machine's next drain.
    pending: HashMap<u16, Vec<Envelope>>,
    /// Remaining injected failures per distinct afflicted exchange.
    transient: HashMap<u64, u32>,
    /// Exchanges served per machine, for crash-at-op-N.
    served: HashMap<u16, u64>,
    log: Vec<FaultEvent>,
}

/// A [`Transport`] decorator executing a [`FaultPlan`].
///
/// Wraps any transport; all fault decisions are deterministic functions of
/// the plan seed and the operation identity (see module docs). The injected
/// [`fault_log`] is itself deterministic for a serial caller, which the
/// chaos proptests pin.
///
/// [`fault_log`]: FaultyTransport::fault_log
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Every fault injected so far, in injection order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.state.lock().expect("fault state poisoned").log.clone()
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> usize {
        self.state.lock().expect("fault state poisoned").log.len()
    }

    /// Whether machine `m` has crashed: from then on its exchanges fail, its
    /// posts vanish and its mailbox drains empty. A one-way round asks this
    /// at its barrier, since no post it makes can be refused.
    pub fn is_down(&self, m: MachineId) -> bool {
        self.dead(&self.state.lock().expect("fault state poisoned"), m)
    }

    fn dead(&self, state: &FaultState, m: MachineId) -> bool {
        self.plan.crash.is_some_and(|c| {
            c.machine == m.0 && state.served.get(&m.0).copied().unwrap_or(0) >= c.after_ops
        })
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn exchange(
        &self,
        src: MachineId,
        dst: MachineId,
        msg: Message,
    ) -> Result<Message, TransportError> {
        if !msg.is_request() {
            // Let the inner transport refuse protocol violations unchanged.
            return self.inner.exchange(src, dst, msg);
        }
        {
            let mut state = self.state.lock().expect("fault state poisoned");
            // A crashed endpoint kills the round-trip before any wire work.
            for end in [src, dst] {
                if self.dead(&state, end) {
                    state.log.push(FaultEvent {
                        kind: FaultKind::CrashDrop,
                        src: src.0,
                        dst: dst.0,
                        op: message_fingerprint(&msg),
                    });
                    return Err(TransportError::MachineDown { dst: end });
                }
            }
            *state.served.entry(dst.0).or_insert(0) += 1;
            let op = message_fingerprint(&msg);
            let key = mix(self.plan.seed ^ SALT_EXCHANGE ^ link(src, dst) ^ op);
            let roll = fraction(key);
            let kind = if roll < self.plan.unavailable {
                Some(FaultKind::Unavailable)
            } else if roll < self.plan.unavailable + self.plan.timeout {
                Some(FaultKind::Timeout)
            } else if roll < self.plan.unavailable + self.plan.timeout + self.plan.corrupt {
                Some(FaultKind::Corrupt)
            } else {
                None
            };
            if let Some(kind) = kind {
                // Bounded transience: this distinct exchange fails for its
                // first 1–2 attempts, then succeeds forever after.
                let budget = state
                    .transient
                    .entry(key)
                    .or_insert(1 + (mix(key) & (MAX_TRANSIENT_FAILURES as u64 - 1)) as u32);
                if *budget > 0 {
                    *budget -= 1;
                    state.log.push(FaultEvent {
                        kind,
                        src: src.0,
                        dst: dst.0,
                        op,
                    });
                    return Err(match kind {
                        FaultKind::Unavailable => TransportError::Unavailable { dst },
                        FaultKind::Timeout => TransportError::Timeout {
                            dst,
                            phase: msg.kind(),
                        },
                        _ => TransportError::CorruptPayload { dst },
                    });
                }
            }
        }
        self.inner.exchange(src, dst, msg)
    }

    fn alloc_seq(&self, src: MachineId, dst: MachineId) -> u64 {
        self.inner.alloc_seq(src, dst)
    }

    fn post_envelope(&self, dst: MachineId, env: Envelope) {
        let mut state = self.state.lock().expect("fault state poisoned");
        if self.dead(&state, env.src) || self.dead(&state, dst) {
            state.log.push(FaultEvent {
                kind: FaultKind::CrashDrop,
                src: env.src.0,
                dst: dst.0,
                op: env.seq,
            });
            return;
        }
        let p = &self.plan;
        let roll = fraction(mix(p.seed ^ SALT_POST ^ link(env.src, dst) ^ env.seq));
        let event = |kind| FaultEvent {
            kind,
            src: env.src.0,
            dst: dst.0,
            op: env.seq,
        };
        if roll < p.drop {
            // First copy lost on the wire; the sender-side retransmission
            // is delivered when the destination next drains.
            state.log.push(event(FaultKind::Drop));
            state.pending.entry(dst.0).or_default().push(env);
        } else if roll < p.drop + p.duplicate {
            // The network delivers two copies of the same logical send;
            // drain-side `(src, seq)` dedup keeps effects exactly-once.
            state.log.push(event(FaultKind::Duplicate));
            self.inner.post_envelope(dst, env.clone());
            self.inner.post_envelope(dst, env);
        } else if roll < p.drop + p.duplicate + p.delay {
            // Held back past every younger envelope: reordering.
            state.log.push(event(FaultKind::Delay));
            state.pending.entry(dst.0).or_default().push(env);
        } else if roll < p.drop + p.duplicate + p.delay + p.corrupt {
            // Checksum discards the mangled copy; retransmitted like a drop.
            state.log.push(event(FaultKind::Corrupt));
            state.pending.entry(dst.0).or_default().push(env);
        } else {
            self.inner.post_envelope(dst, env);
        }
    }

    fn drain(&self, dst: MachineId) -> Vec<Envelope> {
        let mut state = self.state.lock().expect("fault state poisoned");
        if self.dead(&state, dst) {
            state.pending.remove(&dst.0);
            return Vec::new();
        }
        // Flush held-back envelopes *after* everything already in the
        // mailbox: retransmissions and delays arrive late, i.e. reordered.
        if let Some(pending) = state.pending.remove(&dst.0) {
            for env in pending {
                self.inner.post_envelope(dst, env);
            }
        }
        drop(state);
        self.inner.drain(dst)
    }
}

const SALT_EXCHANGE: u64 = 0x45c8_7a12_9d3e_f001;
const SALT_POST: u64 = 0xb7e1_5162_8aed_2a6b;

fn link(src: MachineId, dst: MachineId) -> u64 {
    ((src.0 as u64) << 16) | dst.0 as u64
}

/// SplitMix64 finalizer: the deterministic "coin" behind every decision.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A content fingerprint identifying a distinct request, so a *retry* of the
/// same exchange maps to the same transient-fault budget while different
/// requests roll independent coins.
fn message_fingerprint(msg: &Message) -> u64 {
    let mut h: u64 = match msg {
        Message::LoadRequest { .. } => 1,
        Message::GetIdsRequest { .. } => 2,
        _ => 3,
    };
    match msg {
        Message::LoadRequest {
            ids,
            with_neighbors,
        } => {
            h = mix(h ^ *with_neighbors as u64);
            for id in ids {
                h = mix(h ^ id.0);
            }
        }
        Message::GetIdsRequest { labels } => {
            for label in labels {
                h = mix(h ^ label.0 as u64);
            }
        }
        // Only requests are fingerprinted; other variants never reach the
        // exchange fault path.
        _ => {}
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::cost::CostModel;
    use crate::ids::VertexId;
    use crate::transport::ChannelTransport;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn cloud(machines: usize) -> crate::cloud::MemoryCloud {
        let mut b = GraphBuilder::new_undirected();
        for i in 0..8 {
            b.add_vertex(v(i), if i % 2 == 0 { "a" } else { "b" });
        }
        for i in 0..7 {
            b.add_edge(v(i), v(i + 1));
        }
        b.build(machines, CostModel::default())
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let c = cloud(2);
        let tp = FaultyTransport::new(ChannelTransport::new(&c), FaultPlan::default());
        for i in 0..16 {
            tp.post(
                MachineId(0),
                MachineId(1),
                Message::BindingDelta {
                    cols: vec![(0, vec![v(i)])],
                },
            );
        }
        assert_eq!(tp.drain(MachineId(1)).len(), 16);
        assert_eq!(tp.faults_injected(), 0);
    }

    #[test]
    fn lossy_plan_still_delivers_every_post_exactly_once() {
        let c = cloud(2);
        let tp = FaultyTransport::new(ChannelTransport::new(&c), FaultPlan::lossy(7));
        let sends = 200u64;
        for i in 0..sends {
            tp.post(
                MachineId(0),
                MachineId(1),
                Message::BindingDelta {
                    cols: vec![(0, vec![v(i)])],
                },
            );
        }
        // Two drains: the first flushes nothing pending (posts come first),
        // delivers fresh envelopes; the second delivers retransmissions.
        let mut got: Vec<Envelope> = tp.drain(MachineId(1));
        got.extend(tp.drain(MachineId(1)));
        assert_eq!(got.len() as u64, sends, "exactly-once delivery");
        let mut seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..sends).collect::<Vec<_>>());
        // With 200 sends at ≥10% rates some of every post fault fired.
        let log = tp.fault_log();
        assert!(log.iter().any(|e| e.kind == FaultKind::Drop));
        assert!(log.iter().any(|e| e.kind == FaultKind::Duplicate));
        assert!(log.iter().any(|e| e.kind == FaultKind::Delay));
        assert!(tp.inner().duplicates_suppressed() > 0);
    }

    #[test]
    fn transient_exchange_faults_are_bounded_per_request() {
        let c = cloud(2);
        let plan = FaultPlan {
            seed: 3,
            unavailable: 1.0, // every exchange afflicted …
            ..FaultPlan::default()
        };
        let tp = FaultyTransport::new(ChannelTransport::new(&c), plan);
        let owner = c.machine_of(v(0));
        let src = c.machines().find(|&m| m != owner).unwrap();
        let req = || Message::LoadRequest {
            ids: vec![v(0)],
            with_neighbors: false,
        };
        let mut failures = 0;
        let reply = loop {
            match tp.exchange(src, owner, req()) {
                Ok(r) => break r,
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                    assert!(failures <= MAX_TRANSIENT_FAILURES, "… but boundedly");
                }
            }
        };
        // The fault layer passes the projected load's label-only reply
        // through untouched: header + 4 bytes for the one requested id.
        assert!(matches!(&reply, Message::LabelReply { labels } if labels.len() == 1));
        assert_eq!(reply.wire_bytes(), 16 + 4);
        assert!(failures >= 1);
    }

    #[test]
    fn crashed_machine_is_down_for_exchanges_posts_and_drains() {
        let c = cloud(2);
        let plan = FaultPlan::default().with_crash(1, 0);
        let tp = FaultyTransport::new(ChannelTransport::new(&c), plan);
        let (m0, m1) = (MachineId(0), MachineId(1));
        let err = tp
            .exchange(
                m0,
                m1,
                Message::LoadRequest {
                    ids: vec![v(1)],
                    with_neighbors: false,
                },
            )
            .unwrap_err();
        assert_eq!(err, TransportError::MachineDown { dst: m1 });
        assert!(!err.is_transient());
        tp.post(m0, m1, Message::BindingDelta { cols: vec![] });
        assert!(tp.drain(m1).is_empty());
        // The dead machine cannot send either.
        tp.post(m1, m0, Message::BindingDelta { cols: vec![] });
        assert!(tp.drain(m0).is_empty());
        assert!(tp
            .fault_log()
            .iter()
            .all(|e| e.kind == FaultKind::CrashDrop));
    }

    #[test]
    fn crash_after_n_ops_serves_n_then_dies() {
        let c = cloud(2);
        let plan = FaultPlan::default().with_crash(1, 3);
        let tp = FaultyTransport::new(ChannelTransport::new(&c), plan);
        let (m0, m1) = (MachineId(0), MachineId(1));
        let req = |i: u64| Message::LoadRequest {
            ids: vec![v(i)],
            with_neighbors: false,
        };
        for i in 0..3 {
            assert!(!tp.is_down(m1));
            assert!(tp.exchange(m0, m1, req(i)).is_ok());
        }
        // Down once it has served its exchanges, before anyone asks again.
        assert!(tp.is_down(m1) && !tp.is_down(m0));
        assert_eq!(
            tp.exchange(m0, m1, req(3)).unwrap_err(),
            TransportError::MachineDown { dst: m1 }
        );
    }

    #[test]
    fn same_seed_same_fault_log() {
        let c = cloud(2);
        let run = |seed: u64| {
            let tp = FaultyTransport::new(ChannelTransport::new(&c), FaultPlan::lossy(seed));
            for i in 0..64 {
                tp.post(
                    MachineId(0),
                    MachineId(1),
                    Message::BindingDelta {
                        cols: vec![(0, vec![v(i)])],
                    },
                );
                let _ = tp.exchange(
                    MachineId(1),
                    MachineId(0),
                    Message::LoadRequest {
                        ids: vec![v(i % 8)],
                        with_neighbors: false,
                    },
                );
            }
            tp.drain(MachineId(1));
            tp.fault_log()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds make different weather");
    }
}
