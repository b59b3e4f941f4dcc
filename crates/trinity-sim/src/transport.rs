//! Explicit batched message passing between logical machines.
//!
//! The paper's execution model (§4.2, §6.2) is partition-local: a machine
//! only dereferences its *own* partition, and anything it needs from another
//! machine travels as a message — with Trinity merging many small messages
//! into batches. This module is that boundary made explicit:
//!
//! * [`Message`] is the typed vocabulary: batched `Cloud.Load` requests
//!   answered with **owned** replies ([`CellBuf`]s, or bare labels for a
//!   projected load), `Index.getID` posting requests, binding-exchange
//!   deltas, and shipped join rows;
//! * [`Transport`] is the pluggable carrier: synchronous request/reply
//!   round-trips ([`Transport::exchange`]) plus one-way posts into
//!   per-machine mailboxes ([`Transport::post`] / [`Transport::drain`]);
//! * [`ChannelTransport`] is the in-process backend: requests are served
//!   against the owner's partition (the handler only ever touches the
//!   destination machine's data), posts go through mutex-guarded mailboxes,
//!   and, when the transport is given a ledger
//!   ([`ChannelTransport::with_ledger`]), **every envelope is charged to it
//!   with its actual payload size** under its `Message::phase` — the cost
//!   model then prices what was really sent, rather than a per-access
//!   estimate.
//!
//! A socket- or process-based backend would implement [`Transport`] by
//! serializing [`Message`] (all payload types are plain-old-data); the
//! executor in the `stwig` crate is written against the trait only.
//!
//! ## Determinism
//!
//! `exchange` is synchronous and self-contained: concurrent callers on
//! different machines never observe each other. `drain` returns a mailbox's
//! envelopes in the order they were posted; the distributed executor only
//! posts from its coordinating thread (in machine order) and each machine
//! drains only its own mailbox, so delivery order is a pure function of the
//! program, not of thread scheduling.

use crate::cloud::MemoryCloud;
use crate::hash::FxHashSet;
use crate::ids::{LabelId, MachineId, VertexId};
use crate::network::{Network, Phase};
use crate::partition::{Cell, CellBuf};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The label a [`Message::LabelReply`] carries for a requested id its sender
/// does not own (or that does not exist): the reply stays aligned with the
/// request instead of silently skipping the id.
pub const NOT_OWNED: LabelId = LabelId(u32::MAX);

/// A failure observed on the transport: a protocol violation (malformed
/// peer) or a delivery fault (timeout, transient unavailability, corrupted
/// payload, dead machine).
///
/// A real cluster must expect malformed peers and lossy links: a machine
/// answering a request with the wrong variant, a wedged handler, or a crashed
/// destination must degrade *that query* — never crash the serving process.
/// Every failure is therefore a typed error the executor surfaces as a
/// per-query failure (`stwig::StwigError::Transport` or
/// `stwig::StwigError::MachineUnavailable`), not a `panic!`. Delivery faults
/// report [`TransportError::is_transient`] so the retry layer knows which
/// errors a fresh attempt can fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// [`Transport::exchange`] was called with a message that is not a
    /// request (nothing to reply to).
    NotARequest {
        /// Variant name of the offending message.
        got: &'static str,
    },
    /// A request was answered with an unexpected reply variant.
    UnexpectedReply {
        /// Variant name the caller expected.
        expected: &'static str,
        /// Variant name that actually arrived.
        got: &'static str,
    },
    /// A mailbox drain surfaced a variant the current phase cannot consume.
    UnexpectedMessage {
        /// The phase doing the drain (e.g. `"binding sync"`).
        phase: &'static str,
        /// Variant name that was found in the mailbox.
        got: &'static str,
    },
    /// A message's payload is internally inconsistent (e.g. shipped join
    /// rows whose length is not a multiple of the column count).
    MalformedPayload {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// An exchange did not complete in time (a wedged or overloaded peer;
    /// injected by [`crate::fault::FaultPlan::timeout`]). Transient: retry
    /// may succeed.
    Timeout {
        /// The destination machine that failed to answer in time.
        dst: MachineId,
        /// The request variant that timed out (e.g. `"LoadRequest"`).
        phase: &'static str,
    },
    /// The destination refused service for this attempt (message loop busy,
    /// connection reset, …). Transient: retry may succeed.
    Unavailable {
        /// The destination machine that was unavailable.
        dst: MachineId,
    },
    /// A reply arrived but failed its payload checksum. Transient: the
    /// request is a pure read, so re-asking gets a fresh copy.
    CorruptPayload {
        /// The destination machine whose reply was corrupted.
        dst: MachineId,
    },
    /// The destination machine has permanently crashed. Not transient:
    /// no number of retries will revive it.
    MachineDown {
        /// The machine that is gone.
        dst: MachineId,
    },
}

impl TransportError {
    /// Whether a fresh attempt of the same operation can plausibly succeed.
    ///
    /// Protocol violations ([`TransportError::NotARequest`],
    /// [`TransportError::UnexpectedReply`], …) are deterministic bugs —
    /// retrying replays them. Delivery faults (timeout, unavailability,
    /// corruption) are properties of one attempt; [`MachineDown`]
    /// (permanent loss) is the one delivery fault retries cannot fix.
    ///
    /// [`MachineDown`]: TransportError::MachineDown
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TransportError::Timeout { .. }
                | TransportError::Unavailable { .. }
                | TransportError::CorruptPayload { .. }
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NotARequest { got } => {
                write!(f, "exchange called with non-request message {got}")
            }
            TransportError::UnexpectedReply { expected, got } => {
                write!(f, "expected a {expected} reply, got {got}")
            }
            TransportError::UnexpectedMessage { phase, got } => {
                write!(f, "unexpected {got} message during {phase}")
            }
            TransportError::MalformedPayload { detail } => {
                write!(f, "malformed message payload: {detail}")
            }
            TransportError::Timeout { dst, phase } => {
                write!(f, "{phase} exchange with {dst} timed out")
            }
            TransportError::Unavailable { dst } => {
                write!(f, "machine {dst} temporarily unavailable")
            }
            TransportError::CorruptPayload { dst } => {
                write!(f, "reply from {dst} failed its payload checksum")
            }
            TransportError::MachineDown { dst } => {
                write!(f, "machine {dst} is down")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Size, in bytes, charged for one vertex id on the wire.
const ID_BYTES: u64 = 8;
/// Size, in bytes, charged for one label on the wire.
const LABEL_BYTES: u64 = 4;
/// Fixed per-envelope header charge (source, destination, type tag, length).
const HEADER_BYTES: u64 = 16;

/// A typed message between two logical machines.
///
/// Requests (`*Request`) are answered synchronously through
/// [`Transport::exchange`]; the remaining variants are one-way posts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Batched `Cloud.Load`: "send me the cells of these vertices you own".
    /// Ids are expected deduplicated (one batch per destination per
    /// superstep).
    LoadRequest {
        /// Vertices to load, all owned by the destination.
        ids: Vec<VertexId>,
        /// Whether the reply carries adjacency ([`Message::LoadReply`]) or
        /// only labels ([`Message::LabelReply`]). STwig exploration is
        /// depth-1 — it consumes only the *labels* of frontier vertices —
        /// so the executor requests the projection and the owner keeps hub
        /// adjacency lists at home (shipping them would dominate traffic on
        /// skewed graphs for data nobody reads). A multi-hop explorer would
        /// request full cells.
        with_neighbors: bool,
    },
    /// Reply to a [`Message::LoadRequest`] with `with_neighbors: true`:
    /// owned cells, in request order. Ids the destination does not own are
    /// silently skipped (each cell names its id).
    LoadReply {
        /// The loaded cells (label + copied neighbor list).
        cells: Vec<CellBuf>,
    },
    /// Reply to a projected [`Message::LoadRequest`] (`with_neighbors:
    /// false`): exactly one label per requested id, in request order, with
    /// [`NOT_OWNED`] standing in for ids the destination does not own.
    LabelReply {
        /// `labels[i]` is the label of the request's `ids[i]`.
        labels: Vec<LabelId>,
    },
    /// `Index.getID` forwarded to another machine: "send me your local
    /// postings for these labels". One request carries every label the
    /// caller needs from this owner — a single-vertex query's one, or all
    /// the distinct child labels of an STwig — so a superstep stays one
    /// round-trip per owner.
    GetIdsRequest {
        /// The labels to look up in the destination's string index.
        labels: Vec<LabelId>,
    },
    /// Reply to [`Message::GetIdsRequest`]: the destination's local
    /// postings, one run per requested label, in request order. Consumed
    /// through [`Message::into_postings`], which trusts neither the run
    /// count nor the ids.
    GetIdsReply {
        /// `runs[i]`: locally-owned vertices with the request's `labels[i]`,
        /// sorted.
        runs: Vec<Vec<VertexId>>,
    },
    /// Binding-exchange delta: the distinct data vertices the sender newly
    /// bound per synchronized query-vertex column (raw `QVid` values — the
    /// cloud layer does not know query types).
    BindingDelta {
        /// `(query vertex, distinct matched data vertices)` per column.
        cols: Vec<(u16, Vec<VertexId>)>,
    },
    /// Shipped STwig result rows for the distributed join (Theorem 4 load
    /// sets): one machine's table for one STwig, flattened row-major.
    JoinRows {
        /// Index of the STwig (in plan order) these rows match.
        stwig: u32,
        /// Raw query-vertex ids of the table's columns.
        columns: Vec<u16>,
        /// Row-major vertex data; `columns.len()` ids per row.
        rows: Vec<VertexId>,
    },
}

impl Message {
    /// The payload size this message is charged on the wire, in bytes.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES
            + match self {
                Message::LoadRequest { ids, .. } => 1 + ids.len() as u64 * ID_BYTES,
                Message::LoadReply { cells } => cells.iter().map(CellBuf::wire_bytes).sum(),
                Message::LabelReply { labels } => labels.len() as u64 * LABEL_BYTES,
                Message::GetIdsRequest { labels } => labels.len() as u64 * LABEL_BYTES,
                Message::GetIdsReply { runs } => {
                    runs.iter().map(|run| run.len() as u64 * ID_BYTES).sum()
                }
                Message::BindingDelta { cols } => cols
                    .iter()
                    .map(|(_, ids)| 2 + ids.len() as u64 * ID_BYTES)
                    .sum(),
                Message::JoinRows { columns, rows, .. } => {
                    4 + columns.len() as u64 * 2 + rows.len() as u64 * ID_BYTES
                }
            }
    }

    /// The query phase this message belongs to.
    pub(crate) fn phase(&self) -> Phase {
        match self {
            Message::BindingDelta { .. } => Phase::Sync,
            Message::JoinRows { .. } => Phase::Join,
            _ => Phase::Explore,
        }
    }

    /// Whether this message is a request expecting a synchronous reply.
    pub(crate) fn is_request(&self) -> bool {
        matches!(
            self,
            Message::LoadRequest { .. } | Message::GetIdsRequest { .. }
        )
    }

    /// Consumes the reply to a projected load of `requested` ids. The peer is
    /// not trusted: any other variant is [`TransportError::UnexpectedReply`],
    /// and a reply that is not aligned with the request — too short or too
    /// long — is [`TransportError::MalformedPayload`], because every label
    /// after the first gap would otherwise land on the wrong vertex.
    pub fn into_labels(self, requested: usize) -> Result<Vec<LabelId>, TransportError> {
        match self {
            Message::LabelReply { labels } if labels.len() == requested => Ok(labels),
            Message::LabelReply { labels } => Err(TransportError::MalformedPayload {
                detail: format!(
                    "LabelReply carries {} labels for {requested} requested ids",
                    labels.len()
                ),
            }),
            other => Err(TransportError::UnexpectedReply {
                expected: "LabelReply",
                got: other.kind(),
            }),
        }
    }

    /// Consumes the reply to a [`Message::GetIdsRequest`] for `requested`
    /// labels. The peer is not trusted: any other variant is
    /// [`TransportError::UnexpectedReply`]; a run count that differs from
    /// the request (every later run would land on the wrong label) or an id
    /// the sender does not own by `sender_owns` — ownership is a pure hash of
    /// the id, and postings decide answers and child labels — is
    /// [`TransportError::MalformedPayload`].
    pub fn into_postings(
        self,
        requested: usize,
        sender_owns: impl Fn(VertexId) -> bool,
    ) -> Result<Vec<Vec<VertexId>>, TransportError> {
        let malformed = |detail| Err(TransportError::MalformedPayload { detail });
        match self {
            Message::GetIdsReply { runs } if runs.len() != requested => malformed(format!(
                "GetIdsReply carries {} runs for {requested} requested labels",
                runs.len()
            )),
            Message::GetIdsReply { runs } => {
                match runs.iter().flatten().find(|&&id| !sender_owns(id)) {
                    Some(id) => malformed(format!(
                        "GetIdsReply lists {id}, which its sender does not own"
                    )),
                    None => Ok(runs),
                }
            }
            other => Err(TransportError::UnexpectedReply {
                expected: "GetIdsReply",
                got: other.kind(),
            }),
        }
    }

    /// The variant name, for protocol-violation diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::LoadRequest { .. } => "LoadRequest",
            Message::LoadReply { .. } => "LoadReply",
            Message::LabelReply { .. } => "LabelReply",
            Message::GetIdsRequest { .. } => "GetIdsRequest",
            Message::GetIdsReply { .. } => "GetIdsReply",
            Message::BindingDelta { .. } => "BindingDelta",
            Message::JoinRows { .. } => "JoinRows",
        }
    }
}

/// A one-way [`Message`] in flight, stamped with its sender and a per-link
/// sequence number.
///
/// The `(src, seq)` pair identifies a *logical* send: every retransmission
/// or network-duplicated copy of the same post carries the same pair, which
/// is what lets the receiving mailbox suppress duplicates on drain and turn
/// at-least-once delivery into exactly-once consumption.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The machine that sent this message.
    pub src: MachineId,
    /// Sequence number, unique per `(src, dst)` link for each logical send.
    pub seq: u64,
    /// The payload.
    pub msg: Message,
}

/// The carrier moving [`Message`]s between logical machines.
///
/// Implementations must be `Send + Sync`: logical machines run on a worker
/// pool and use the transport concurrently (each machine only exchanges on
/// its own behalf and drains its own mailbox).
///
/// One-way sends are split into [`alloc_seq`] (assign the logical send its
/// `(src, seq)` identity) and [`post_envelope`] (put one physical copy on
/// the wire) so that decorators — fault injectors, retransmitters — can
/// deliver *additional copies of the same logical send* without minting new
/// identities; [`post`] is the convenience composition of the two.
///
/// [`alloc_seq`]: Transport::alloc_seq
/// [`post_envelope`]: Transport::post_envelope
/// [`post`]: Transport::post
pub trait Transport: Send + Sync {
    /// Sends a request from `src` to `dst` and returns the destination
    /// machine's reply (one request/reply round-trip; both envelopes are
    /// charged). Calling it with a non-request message is a protocol
    /// violation reported as [`TransportError::NotARequest`].
    fn exchange(
        &self,
        src: MachineId,
        dst: MachineId,
        msg: Message,
    ) -> Result<Message, TransportError>;

    /// Allocates the next sequence number for the `src → dst` link.
    fn alloc_seq(&self, src: MachineId, dst: MachineId) -> u64;

    /// Puts one physical copy of `env` into `dst`'s mailbox (charged as one
    /// envelope). Posting the same envelope twice models network
    /// duplication; the drain side suppresses the second copy.
    fn post_envelope(&self, dst: MachineId, env: Envelope);

    /// Posts a one-way message from `src` into `dst`'s mailbox (charged as
    /// one envelope): allocates a fresh sequence number and sends one copy.
    fn post(&self, src: MachineId, dst: MachineId, msg: Message) {
        let seq = self.alloc_seq(src, dst);
        self.post_envelope(dst, Envelope { src, seq, msg });
    }

    /// Removes and returns every message posted to `dst`, in arrival order,
    /// with duplicate `(src, seq)` deliveries suppressed.
    fn drain(&self, dst: MachineId) -> Vec<Envelope>;
}

/// In-process [`Transport`] over a shared [`MemoryCloud`].
///
/// Requests are served inline against the **destination's** partition only —
/// the handler plays the role of the remote machine's message loop, so the
/// requester never touches foreign memory; it gets owned [`CellBuf`]s,
/// label vectors or id vectors back. One-way messages go through
/// per-machine mailboxes (mutex-guarded vectors). All envelopes are recorded
/// on the transport's ledger, when it has one, with their actual
/// [`Message::wire_bytes`] size; envelopes between co-located endpoints are
/// recorded on the diagonal and therefore free, like every other local
/// access.
pub struct ChannelTransport<'c> {
    cloud: &'c MemoryCloud,
    /// `None` charges nothing.
    ledger: Option<&'c Network>,
    mailboxes: Vec<Mutex<Mailbox>>,
    /// Next sequence number per `src → dst` link, row-major `src * n + dst`.
    seqs: Vec<AtomicU64>,
    duplicates_suppressed: AtomicU64,
}

/// One machine's inbox: queued envelopes plus every `(src, seq)` identity it
/// has ever accepted, so re-deliveries are suppressed even across drains.
/// The identities are machine ids and sequence numbers, and nothing reads
/// the set's order, so the workspace's fast hasher keys it.
#[derive(Default)]
struct Mailbox {
    queue: Vec<Envelope>,
    seen: FxHashSet<(u16, u64)>,
}

impl std::fmt::Debug for ChannelTransport<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("machines", &self.mailboxes.len())
            .finish()
    }
}

impl<'c> ChannelTransport<'c> {
    /// Creates a transport connecting the machines of `cloud`, charging
    /// nothing until it is given a ledger.
    pub fn new(cloud: &'c MemoryCloud) -> Self {
        let n = cloud.num_machines();
        ChannelTransport {
            cloud,
            ledger: None,
            mailboxes: (0..n).map(|_| Mutex::new(Mailbox::default())).collect(),
            seqs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            duplicates_suppressed: AtomicU64::new(0),
        }
    }

    /// Charges every envelope to `ledger`: a query's own, or a test's.
    pub fn with_ledger(mut self, ledger: &'c Network) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Number of duplicate envelope deliveries suppressed on drain.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed.load(Ordering::Relaxed)
    }

    /// Serves a request against machine `dst`'s own partition.
    fn handle(&self, dst: MachineId, msg: &Message) -> Result<Message, TransportError> {
        let partition = self.cloud.partition(dst);
        match msg {
            Message::LoadRequest {
                ids,
                with_neighbors: true,
            } => Ok(Message::LoadReply {
                cells: ids
                    .iter()
                    .filter_map(|&id| partition.load(id))
                    .map(Cell::to_buf)
                    .collect(),
            }),
            Message::LoadRequest {
                ids,
                with_neighbors: false,
            } => Ok(Message::LabelReply {
                labels: ids
                    .iter()
                    .map(|&id| partition.label_of(id).unwrap_or(NOT_OWNED))
                    .collect(),
            }),
            Message::GetIdsRequest { labels } => Ok(Message::GetIdsReply {
                runs: (labels.iter())
                    .map(|&label| partition.vertices_with_label(label).to_vec())
                    .collect(),
            }),
            other => Err(TransportError::NotARequest { got: other.kind() }),
        }
    }

    fn record(&self, src: MachineId, dst: MachineId, msg: &Message) {
        if let Some(ledger) = self.ledger {
            ledger.record(src, dst, 1, msg.wire_bytes(), msg.phase());
        }
    }
}

impl Transport for ChannelTransport<'_> {
    fn exchange(
        &self,
        src: MachineId,
        dst: MachineId,
        msg: Message,
    ) -> Result<Message, TransportError> {
        if !msg.is_request() {
            // A non-request has no reply; refuse before charging the wire.
            return Err(TransportError::NotARequest { got: msg.kind() });
        }
        self.record(src, dst, &msg);
        let reply = self.handle(dst, &msg)?;
        self.record(dst, src, &reply);
        Ok(reply)
    }

    fn alloc_seq(&self, src: MachineId, dst: MachineId) -> u64 {
        let n = self.mailboxes.len();
        self.seqs[src.index() * n + dst.index()].fetch_add(1, Ordering::Relaxed)
    }

    fn post_envelope(&self, dst: MachineId, env: Envelope) {
        self.record(env.src, dst, &env.msg);
        self.mailboxes[dst.index()]
            .lock()
            .expect("mailbox poisoned")
            .queue
            .push(env);
    }

    fn drain(&self, dst: MachineId) -> Vec<Envelope> {
        let mut box_ = self.mailboxes[dst.index()]
            .lock()
            .expect("mailbox poisoned");
        let queue = std::mem::take(&mut box_.queue);
        let mut out = Vec::with_capacity(queue.len());
        for env in queue {
            if box_.seen.insert((env.src.0, env.seq)) {
                out.push(env);
            } else {
                self.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}

// The executor shares one transport across worker threads (one logical
// machine per work item); pin thread safety at compile time like the cloud
// does.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<ChannelTransport<'static>>();
    assert_send_sync::<Message>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::cost::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// Triangle a(0)-b(1)-c(2)-a(0) plus a pendant d(3) on c, over `machines`.
    fn small_cloud(machines: usize) -> MemoryCloud {
        let mut b = GraphBuilder::default();
        b.add_vertex(v(0), "a");
        b.add_vertex(v(1), "b");
        b.add_vertex(v(2), "c");
        b.add_vertex(v(3), "d");
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(0));
        b.add_edge(v(2), v(3));
        b.build(machines, CostModel::default())
    }

    #[test]
    fn load_exchange_returns_owned_cells_in_request_order() {
        let cloud = small_cloud(3);
        let ledger = Network::new(3);
        let transport = ChannelTransport::new(&cloud).with_ledger(&ledger);
        let owner = cloud.machine_of(v(2));
        let src = cloud.machines().find(|&m| m != owner).unwrap();
        let reply = transport
            .exchange(
                src,
                owner,
                Message::LoadRequest {
                    ids: vec![v(2), v(999)],
                    with_neighbors: true,
                },
            )
            .unwrap();
        let Message::LoadReply { cells } = reply else {
            panic!("expected LoadReply");
        };
        // v(999) does not exist; v(2) comes back owned with its 3 neighbors.
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].id, v(2));
        assert_eq!(cells[0].neighbors, vec![v(0), v(1), v(3)]);
        // Request + reply were both charged as one envelope each.
        assert_eq!(ledger.snapshot().total_messages(), 2);
        assert!(ledger.snapshot().total_bytes() >= cells[0].wire_bytes());
        // No direct remote read happened: the handler served its own
        // partition.
        assert_eq!(ledger.direct_remote_reads(), 0);
    }

    #[test]
    fn get_ids_exchange_returns_remote_postings() {
        let cloud = small_cloud(4);
        let ledger = Network::new(4);
        let transport = ChannelTransport::new(&cloud).with_ledger(&ledger);
        let label = cloud.labels().get("d").unwrap();
        let owner = cloud.machine_of(v(3));
        let src = cloud.machines().find(|&m| m != owner).unwrap();
        let reply = transport
            .exchange(
                src,
                owner,
                Message::GetIdsRequest {
                    labels: vec![label, NOT_OWNED, label],
                },
            )
            .unwrap();
        // One run per requested label, in request order; a label nobody
        // carries keeps its (empty) position.
        let runs = vec![vec![v(3)], vec![], vec![v(3)]];
        assert_eq!(reply, Message::GetIdsReply { runs });
        // 4 B per label out, 8 B per id back, plus the two headers.
        assert_eq!(
            ledger.snapshot().total_bytes(),
            2 * HEADER_BYTES + 3 * 4 + 2 * 8
        );
    }

    #[test]
    fn non_request_exchange_is_a_typed_error_not_a_panic() {
        let cloud = small_cloud(2);
        let ledger = Network::new(2);
        let transport = ChannelTransport::new(&cloud).with_ledger(&ledger);
        let err = transport
            .exchange(
                MachineId(0),
                MachineId(1),
                Message::BindingDelta { cols: vec![] },
            )
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::NotARequest {
                got: "BindingDelta"
            }
        );
        assert!(err.to_string().contains("BindingDelta"));
        // The refused envelope was never charged to the wire.
        assert_eq!(ledger.snapshot().total_messages(), 0);
        let err = transport
            .exchange(
                MachineId(0),
                MachineId(1),
                Message::LoadReply { cells: vec![] },
            )
            .unwrap_err();
        assert_eq!(err, TransportError::NotARequest { got: "LoadReply" });
    }

    #[test]
    fn transport_error_displays_are_informative() {
        let e = TransportError::UnexpectedReply {
            expected: "LoadReply",
            got: "GetIdsReply",
        };
        assert!(e.to_string().contains("LoadReply"));
        assert!(e.to_string().contains("GetIdsReply"));
        let e = TransportError::UnexpectedMessage {
            phase: "binding sync",
            got: "JoinRows",
        };
        assert!(e.to_string().contains("binding sync"));
        let e = TransportError::MalformedPayload {
            detail: "rows not a multiple of columns".into(),
        };
        assert!(e.to_string().contains("multiple"));
    }

    #[test]
    fn mailboxes_preserve_posting_order_and_drain_empties() {
        let cloud = small_cloud(2);
        let transport = ChannelTransport::new(&cloud);
        let (m0, m1) = (MachineId(0), MachineId(1));
        transport.post(
            m1,
            m0,
            Message::BindingDelta {
                cols: vec![(0, vec![v(1)])],
            },
        );
        transport.post(
            m1,
            m0,
            Message::JoinRows {
                stwig: 0,
                columns: vec![0, 1],
                rows: vec![v(1), v(2)],
            },
        );
        let drained = transport.drain(m0);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].src, m1);
        assert!(matches!(drained[0].msg, Message::BindingDelta { .. }));
        assert!(matches!(drained[1].msg, Message::JoinRows { .. }));
        // Sequence numbers are per-link and consecutive.
        assert_eq!(drained[0].seq, 0);
        assert_eq!(drained[1].seq, 1);
        assert!(transport.drain(m0).is_empty());
        // The other mailbox was untouched.
        assert!(transport.drain(m1).is_empty());
    }

    #[test]
    fn duplicate_envelopes_are_suppressed_on_drain() {
        let cloud = small_cloud(2);
        let transport = ChannelTransport::new(&cloud);
        let (m0, m1) = (MachineId(0), MachineId(1));
        let msg = Message::BindingDelta {
            cols: vec![(0, vec![v(1)])],
        };
        let seq = transport.alloc_seq(m1, m0);
        let env = Envelope {
            src: m1,
            seq,
            msg: msg.clone(),
        };
        // The network delivered the same logical send twice …
        transport.post_envelope(m0, env.clone());
        transport.post_envelope(m0, env.clone());
        let drained = transport.drain(m0);
        // … but the consumer observes it exactly once.
        assert_eq!(drained.len(), 1);
        assert_eq!(transport.duplicates_suppressed(), 1);
        // Even a late re-delivery after the drain stays suppressed.
        transport.post_envelope(m0, env);
        assert!(transport.drain(m0).is_empty());
        assert_eq!(transport.duplicates_suppressed(), 2);
        // A genuinely new send is delivered.
        transport.post(m1, m0, msg);
        assert_eq!(transport.drain(m0).len(), 1);
    }

    #[test]
    fn transient_classification_of_errors() {
        let m = MachineId(1);
        assert!(TransportError::Unavailable { dst: m }.is_transient());
        assert!(TransportError::CorruptPayload { dst: m }.is_transient());
        assert!(!TransportError::MachineDown { dst: m }.is_transient());
        assert!(!TransportError::NotARequest { got: "LoadReply" }.is_transient());
        assert!(TransportError::MachineDown { dst: m }
            .to_string()
            .contains("M1"));
        assert!(TransportError::Unavailable { dst: m }
            .to_string()
            .contains("unavailable"));
    }

    #[test]
    fn every_envelope_is_charged_with_actual_payload() {
        let cloud = small_cloud(2);
        let ledger = Network::new(2);
        let transport = ChannelTransport::new(&cloud).with_ledger(&ledger);
        let msg = Message::JoinRows {
            stwig: 1,
            columns: vec![0, 1, 2],
            rows: vec![v(1); 9],
        };
        let bytes = msg.wire_bytes();
        transport.post(MachineId(0), MachineId(1), msg);
        assert_eq!(ledger.snapshot().total_messages(), 1);
        assert_eq!(ledger.snapshot().total_bytes(), bytes);
        // Local posts land on the diagonal: recorded, but free.
        transport.post(
            MachineId(0),
            MachineId(0),
            Message::GetIdsRequest {
                labels: vec![LabelId(0)],
            },
        );
        assert_eq!(ledger.snapshot().total_messages(), 1);
        assert_eq!(transport.drain(MachineId(0)).len(), 1);
    }

    #[test]
    fn a_ledger_transport_charges_its_ledger_by_phase_and_nothing_else() {
        let cloud = small_cloud(2);
        let ledger = Network::new(2);
        let transport = ChannelTransport::new(&cloud).with_ledger(&ledger);
        let (m0, m1) = (MachineId(0), MachineId(1));
        let delta = Message::BindingDelta {
            cols: vec![(0, vec![v(1)])],
        };
        let rows = Message::JoinRows {
            stwig: 0,
            columns: vec![0],
            rows: vec![v(2)],
        };
        let request = Message::GetIdsRequest {
            labels: vec![LabelId(0)],
        };
        let sizes = (delta.wire_bytes(), rows.wire_bytes());
        transport.post(m0, m1, delta);
        transport.post(m1, m0, rows);
        let reply = transport.exchange(m0, m1, request.clone()).unwrap();
        assert_eq!(ledger.phase_totals(Phase::Sync), (1, sizes.0));
        assert_eq!(ledger.phase_totals(Phase::Join), (1, sizes.1));
        let explore = request.wire_bytes() + reply.wire_bytes();
        assert_eq!(ledger.phase_totals(Phase::Explore), (2, explore));
        assert_eq!(ledger.snapshot().total_messages(), 4);
        // A transport without a ledger carries the same envelopes and
        // charges no one.
        let bare = ChannelTransport::new(&cloud);
        assert_eq!(bare.exchange(m0, m1, request).unwrap(), reply);
        assert_eq!(ledger.snapshot().total_messages(), 4);
    }

    #[test]
    fn projected_load_keeps_adjacency_at_home() {
        let cloud = small_cloud(3);
        let transport = ChannelTransport::new(&cloud);
        let owner = cloud.machine_of(v(2));
        let src = cloud.machines().find(|&m| m != owner).unwrap();
        // v(999) does not exist: its position is kept, marked not-owned.
        let ids = vec![v(999), v(2)];
        let reply = transport
            .exchange(
                src,
                owner,
                Message::LoadRequest {
                    ids: ids.clone(),
                    with_neighbors: false,
                },
            )
            .unwrap();
        // Header plus one 4-byte label per requested id — no adjacency, no
        // ids (the reply is aligned with the request).
        assert_eq!(reply.wire_bytes(), HEADER_BYTES + 2 * LABEL_BYTES);
        assert_eq!(
            reply,
            Message::LabelReply {
                labels: vec![NOT_OWNED, cloud.labels().get("c").unwrap()]
            }
        );
        // The projection is what the wire is charged for.
        let full = transport
            .exchange(
                src,
                owner,
                Message::LoadRequest {
                    ids,
                    with_neighbors: true,
                },
            )
            .unwrap();
        assert!(full.wire_bytes() > reply.wire_bytes());
    }

    #[test]
    fn misaligned_or_mistyped_label_reply_is_a_typed_error() {
        let c = LabelId(2);
        assert_eq!(
            Message::LabelReply { labels: vec![c; 3] }.into_labels(3),
            Ok(vec![c; 3])
        );
        for wrong in [2usize, 4] {
            let err = Message::LabelReply { labels: vec![c; 3] }
                .into_labels(wrong)
                .unwrap_err();
            assert!(
                matches!(&err, TransportError::MalformedPayload { detail }
                    if detail.contains("3 labels") && detail.contains(&wrong.to_string())),
                "{err}"
            );
            assert!(!err.is_transient(), "replaying a bug yields the same bug");
        }
        assert_eq!(
            Message::LoadReply { cells: vec![] }.into_labels(0),
            Err(TransportError::UnexpectedReply {
                expected: "LabelReply",
                got: "LoadReply"
            })
        );
    }

    #[test]
    fn postings_reply_is_checked_for_shape_and_ownership() {
        let reply = || Message::GetIdsReply {
            runs: vec![vec![v(2), v(4)], vec![]],
        };
        let even = |id: VertexId| id.0.is_multiple_of(2);
        assert_eq!(
            reply().into_postings(2, even),
            Ok(vec![vec![v(2), v(4)], vec![]])
        );
        // A run too few or too many, or an id the sender cannot own.
        for (requested, owns_four) in [(1, true), (3, true), (2, false)] {
            let err = reply()
                .into_postings(requested, |id| even(id) && (owns_four || id != v(4)))
                .unwrap_err();
            assert!(
                matches!(err, TransportError::MalformedPayload { .. }),
                "{err}"
            );
            assert!(!err.is_transient(), "replaying a bug yields the same bug");
        }
        assert_eq!(
            Message::LabelReply { labels: vec![] }.into_postings(0, even),
            Err(TransportError::UnexpectedReply {
                expected: "GetIdsReply",
                got: "LabelReply"
            })
        );
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = Message::LoadRequest {
            ids: vec![v(1)],
            with_neighbors: false,
        };
        let large = Message::LoadRequest {
            ids: vec![v(1); 100],
            with_neighbors: false,
        };
        assert!(large.wire_bytes() > small.wire_bytes());
        assert!(small.is_request());
        assert!(!Message::LoadReply { cells: vec![] }.is_request());
        let delta = Message::BindingDelta {
            cols: vec![(3, vec![v(1), v(2)])],
        };
        assert_eq!(delta.wire_bytes(), HEADER_BYTES + 2 + 16);
    }

    #[test]
    fn concurrent_exchanges_are_isolated_per_caller() {
        // Four threads, each playing a different machine, all exchanging with
        // every owner concurrently: replies must always match the serial
        // answer and the traffic matrix must not lose envelopes.
        let cloud = small_cloud(4);
        let ledger = Network::new(4);
        let transport = ChannelTransport::new(&cloud).with_ledger(&ledger);
        // Machine 0 sends: its own requests to remote owners, plus replies to
        // the three other callers for every vertex machine 0 owns.
        let remote_owners: u64 = (0..4u64)
            .filter(|&i| cloud.machine_of(v(i)) != MachineId(0))
            .count() as u64;
        let owned_by_zero: u64 = (0..4u64)
            .filter(|&i| cloud.machine_of(v(i)) == MachineId(0))
            .count() as u64;
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let transport = &transport;
                let cloud = &cloud;
                scope.spawn(move || {
                    let caller = MachineId(t);
                    for _ in 0..32 {
                        for i in 0..4u64 {
                            let owner = cloud.machine_of(v(i));
                            let reply = transport
                                .exchange(
                                    caller,
                                    owner,
                                    Message::LoadRequest {
                                        ids: vec![v(i)],
                                        with_neighbors: true,
                                    },
                                )
                                .unwrap();
                            let Message::LoadReply { cells } = reply else {
                                panic!("expected LoadReply");
                            };
                            assert_eq!(cells.len(), 1);
                            assert_eq!(cells[0].id, v(i));
                        }
                    }
                });
            }
        });
        let snap = ledger.snapshot();
        let m0_traffic = snap.messages_from(MachineId(0));
        assert_eq!(m0_traffic, 32 * (remote_owners + 3 * owned_by_zero));
    }
}
