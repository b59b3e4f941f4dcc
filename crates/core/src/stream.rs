//! Streaming result delivery and per-query control (deadlines,
//! cancellation).
//!
//! A serving system cannot let one hub-heavy query hold a worker and its
//! memory hostage: every query carries [`QueryOptions`] — an optional
//! deadline and an optional [`CancelToken`] — and the streaming executor
//! checks them cooperatively at every superstep flush and join round. Rows
//! are delivered through a [`ResultSink`] *as they are produced* instead of
//! a materialized table, so a first-k client sees its first embedding long
//! before exhaustive enumeration would finish, and an interrupted query
//! still hands over the valid rows it produced (partial delivery + a
//! [`crate::metrics::QueryOutcome`] describing why it stopped).
//!
//! Across a thread boundary rows travel in batches: a [`ChannelSink`]
//! packs the rows it is given into [`RowBatch`]es and the consumer reads
//! them — row by row or batch by batch — from a [`RowStream`].

use crate::query::QVid;
use crate::table::ResultTable;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trinity_sim::ids::VertexId;

/// A shareable cancellation flag: clone it, hand one copy to the query and
/// keep the other; [`CancelToken::cancel`] makes every in-flight check on
/// any clone observe the cancellation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Per-query serving options, orthogonal to the algorithmic knobs in
/// [`crate::config::MatchConfig`]. The tenant a submitted query is charged
/// to is set on its request ([`crate::serve::QueryRequest::with_tenant`]).
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Wall-clock budget measured from query admission. When it expires the
    /// query stops at the next cooperative check and reports
    /// [`crate::metrics::QueryOutcome::DeadlineExceeded`]; rows already
    /// streamed remain delivered. Submitted queries may additionally be
    /// rejected or shed when the engine predicts the deadline cannot be met
    /// (see [`crate::serve`]).
    pub deadline: Option<Duration>,
    /// External cancellation; see [`CancelToken`]. Reported as
    /// [`crate::metrics::QueryOutcome::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Per-query override of the engine's [`crate::config::ResultMode`]
    /// (`None` inherits the engine configuration).
    pub result_mode: Option<crate::config::ResultMode>,
    /// The fault stack the query runs under (see [`crate::retry::Faults`]);
    /// `None` runs it fault-free.
    pub faults: Option<crate::retry::Faults>,
}

impl QueryOptions {
    /// Options with neither deadline nor cancellation.
    pub fn none() -> Self {
        QueryOptions::default()
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Overrides the engine's result mode for this query.
    pub fn with_result_mode(mut self, mode: crate::config::ResultMode) -> Self {
        self.result_mode = Some(mode);
        self
    }

    /// Runs the query under `faults`.
    pub fn with_faults(mut self, faults: crate::retry::Faults) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Why a cooperative check asked the query to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The [`CancelToken`] fired.
    Cancelled,
    /// The deadline expired.
    DeadlineExceeded,
}

/// The resolved, checkable form of [`QueryOptions`]: the deadline pinned to
/// an absolute [`Instant`] at query admission. Checks are cheap (one atomic
/// load, plus one clock read while a deadline is armed) and latch: once a
/// check observes an interrupt, every later check reports the same one, so
/// all layers of the executor agree on the outcome. It also carries the
/// query's fault stack to every exchange, which already takes it for its
/// interruptible backoff.
#[derive(Debug)]
pub struct QueryControl {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    faults: Option<crate::retry::Faults>,
    /// Latched interrupt (0 = none, 1 = cancelled, 2 = deadline), so the
    /// deadline race (cancel and expiry in the same superstep) resolves to
    /// whichever check fired first.
    latched: std::sync::atomic::AtomicU8,
}

impl QueryControl {
    /// Resolves `options` against the query's admission time.
    pub fn new(options: &QueryOptions, admitted: Instant) -> Self {
        QueryControl {
            deadline: options.deadline.map(|d| admitted + d),
            cancel: options.cancel.clone(),
            faults: options.faults.clone(),
            latched: std::sync::atomic::AtomicU8::new(0),
        }
    }

    /// The fault stack the query runs under; `None` runs it fault-free.
    pub(crate) fn faults(&self) -> Option<&crate::retry::Faults> {
        self.faults.as_ref()
    }

    /// The cooperative check: returns the interrupt to honor, if any.
    pub(crate) fn check(&self) -> Option<Interrupt> {
        match self.latched.load(Ordering::Acquire) {
            1 => return Some(Interrupt::Cancelled),
            2 => return Some(Interrupt::DeadlineExceeded),
            _ => {}
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                let _ = self
                    .latched
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
                return self.check();
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                let _ = self
                    .latched
                    .compare_exchange(0, 2, Ordering::AcqRel, Ordering::Acquire);
                return self.check();
            }
        }
        None
    }

    /// Whether an interrupt is pending (convenience for loop guards).
    pub fn interrupted(&self) -> bool {
        self.check().is_some()
    }
}

/// Receives streamed embedding rows.
///
/// [`ResultSink::begin`] is called exactly once before the first row with
/// the column order every subsequent row uses — for streamed queries that is
/// the *canonical* order (query vertices ascending), independent of which
/// machine produced a row or which join order it chose. `begin` is called
/// even when the query ends up producing no rows.
pub trait ResultSink {
    /// Announces the column order of all subsequent rows.
    fn begin(&mut self, columns: &[QVid]) {
        let _ = columns;
    }

    /// Delivers one valid embedding.
    fn row(&mut self, row: &[VertexId]);

    /// Delivers one valid embedding given in another column order: value
    /// `i` of the row is `row[projection[i]]`. The default builds the row
    /// in the caller's `scratch` buffer and hands it to
    /// [`ResultSink::row`]; a sink that can land each value where it
    /// belongs without that copy overrides it.
    fn row_projected(
        &mut self,
        row: &[VertexId],
        projection: &[usize],
        scratch: &mut Vec<VertexId>,
    ) {
        scratch.clear();
        scratch.extend(projection.iter().map(|&p| row[p]));
        self.row(scratch);
    }

    /// Asks a sink that buffers rows to hand over what it holds. The
    /// executor calls it right after a query's first row (so the time to
    /// the first result is the time the consumer could read it), at the end
    /// of every join round, and once more when the query stops for whatever
    /// reason — a consumer never waits on a row the executor has already
    /// produced and moved on from. Sinks that consume each row in
    /// [`ResultSink::row`] keep the default no-op.
    fn flush(&mut self) {}
}

/// Every `FnMut(&[VertexId])` closure is a sink (column order implied).
impl<F: FnMut(&[VertexId])> ResultSink for F {
    fn row(&mut self, row: &[VertexId]) {
        self(row)
    }
}

/// A table collects the rows it is handed: the one way to turn a stream
/// back into a table. A table with no columns yet (`ResultTable::default()`)
/// takes the columns `begin` announces; any other must be announced its
/// own. Both that and each row's width are checked in every build — a row
/// of another schema would corrupt the table silently.
impl ResultSink for ResultTable {
    fn begin(&mut self, columns: &[QVid]) {
        if self.width() == 0 {
            *self = ResultTable::new(columns.to_vec());
        }
        assert_eq!(
            self.columns(),
            columns,
            "a table takes rows of its own columns"
        );
    }

    fn row(&mut self, row: &[VertexId]) {
        assert_eq!(row.len(), self.width(), "a row as wide as the table");
        self.push_row(row);
    }

    /// One write per value, straight into the table's buffer.
    fn row_projected(&mut self, row: &[VertexId], projection: &[usize], _: &mut Vec<VertexId>) {
        assert_eq!(projection.len(), self.width(), "a row as wide as the table");
        self.push_projected(row, projection);
    }
}

/// Rows a [`ChannelSink`] collects before it sends a [`RowBatch`] without
/// being asked: large enough that the per-batch allocation, channel send and
/// consumer wake-up vanish next to the rows themselves, small enough (a few
/// KiB at typical widths) that a consumer is never more than one batch
/// behind a producer that forgot to flush.
const BATCH_ROWS: usize = 256;

/// A run of consecutive rows of one stream, stored flat: what crosses the
/// thread boundary between a [`ChannelSink`] and its [`RowStream`]. Never
/// empty when it came through a channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBatch {
    /// Entries per row (≥ 1 unless the batch is empty).
    width: usize,
    /// `width` entries per row, rows in stream order.
    ids: Vec<VertexId>,
}

impl RowBatch {
    /// Entries per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.ids.len().checked_div(self.width).unwrap_or(0)
    }

    /// The rows, in stream order, borrowed from the batch's one buffer.
    pub fn rows(&self) -> impl Iterator<Item = &[VertexId]> {
        self.ids.chunks_exact(self.width.max(1))
    }
}

/// A sink that forwards rows to an [`std::sync::mpsc`] channel in
/// [`RowBatch`]es — the adapter for a consumer thread that renders results
/// while the query is still running; wrap the receiving end in a
/// [`RowStream`]. Rows are appended to one flat buffer that is sent when it
/// holds 256 rows, on every [`ResultSink::flush`], and when the sink is
/// dropped, so the per-row cost is a copy: no allocation, no channel
/// operation. The channel closes when the sink is dropped, after its last
/// batch.
///
/// A failed send means the receiver is gone. A sink built with
/// [`ChannelSink::new`] ignores that and keeps swallowing rows; one given a
/// token with `ChannelSink::cancel_on_disconnect` cancels it, which stops
/// a query running under the same token at its next cooperative check
/// ([`crate::engine::QueryEngine::submit_streaming`] wires the handle's
/// token this way).
#[derive(Debug)]
pub struct ChannelSink {
    sender: Sender<RowBatch>,
    /// The rows collected since the last send.
    batch: RowBatch,
    on_disconnect: Option<CancelToken>,
}

impl ChannelSink {
    /// Wraps a channel sender.
    pub fn new(sender: Sender<RowBatch>) -> Self {
        ChannelSink {
            sender,
            batch: RowBatch::default(),
            on_disconnect: None,
        }
    }

    /// Cancels `token` on the first batch the receiver is no longer there
    /// to take.
    pub(crate) fn cancel_on_disconnect(mut self, token: CancelToken) -> Self {
        self.on_disconnect = Some(token);
        self
    }
}

impl ResultSink for ChannelSink {
    fn row(&mut self, row: &[VertexId]) {
        if self.batch.ids.is_empty() {
            // One allocation per batch; its buffer leaves with the batch.
            self.batch.width = row.len();
            self.batch.ids.reserve_exact(BATCH_ROWS * row.len());
        }
        debug_assert_eq!(
            row.len(),
            self.batch.width,
            "rows of one stream share a width"
        );
        self.batch.ids.extend_from_slice(row);
        if self.batch.ids.len() >= BATCH_ROWS * self.batch.width {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.batch.ids.is_empty() {
            return;
        }
        if self.sender.send(std::mem::take(&mut self.batch)).is_err() {
            if let Some(token) = &self.on_disconnect {
                token.cancel();
            }
        }
    }
}

impl Drop for ChannelSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The consumer's end of a streamed query: rows in the order the query
/// produced them, read from the [`RowBatch`]es a [`ChannelSink`] sends. The
/// stream ends ("disconnected") once the sink is gone and every batch has
/// been read — for an engine query, when the query has finished, so the end
/// of the stream means the last row is in hand.
///
/// The row-at-a-time reads ([`RowStream::recv`], [`RowStream::iter`])
/// allocate one `Vec` per row on the consumer's side;
/// [`RowStream::batches`] hands out whole batches at no per-row cost. The
/// two can be mixed: a batch partly read row by row yields its unread rest
/// as the next batch. Dropping the stream of an engine query cancels the
/// query.
#[derive(Debug)]
pub struct RowStream {
    receiver: Receiver<RowBatch>,
    /// The batch being handed out row by row, and how many of its rows have
    /// been. Behind a `RefCell` so reading takes `&self`, as a `Receiver`'s
    /// does (the stream is `Send`, not `Sync`, like the `Receiver` in it).
    partial: RefCell<(RowBatch, usize)>,
}

impl RowStream {
    /// Wraps the receiving end of a [`ChannelSink`]'s channel.
    pub fn new(receiver: Receiver<RowBatch>) -> Self {
        RowStream {
            receiver,
            partial: RefCell::default(),
        }
    }

    /// Blocks for the next row — from the batch in hand, else from the next
    /// batch; `Err` once the stream has ended.
    pub fn recv(&self) -> Result<Vec<VertexId>, RecvError> {
        let mut partial = self.partial.borrow_mut();
        loop {
            let (batch, taken) = &mut *partial;
            if let Some(row) = batch.rows().nth(*taken) {
                *taken += 1;
                return Ok(row.to_vec());
            }
            *partial = (self.receiver.recv()?, 0);
        }
    }

    /// Blocking iterator over the remaining rows; ends with the stream.
    pub fn iter(&self) -> impl Iterator<Item = Vec<VertexId>> + '_ {
        std::iter::from_fn(|| self.recv().ok())
    }

    /// Blocking iterator over the remaining rows as whole batches — first
    /// the unread rest of a batch the row methods were part-way through,
    /// then each batch as it arrives; ends with the stream.
    pub fn batches(&self) -> impl Iterator<Item = RowBatch> + '_ {
        std::iter::from_fn(|| {
            let (batch, taken) = self.partial.take();
            if taken < batch.num_rows() {
                return Some(RowBatch {
                    width: batch.width,
                    ids: batch.ids[taken * batch.width..].to_vec(),
                });
            }
            self.receiver.recv().ok()
        })
    }
}

/// Consuming the stream as an iterator blocks for each remaining row and
/// ends with the stream, like [`RowStream::iter`].
impl Iterator for RowStream {
    type Item = Vec<VertexId>;

    fn next(&mut self) -> Option<Vec<VertexId>> {
        self.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QVid;
    use std::sync::mpsc::TryRecvError;
    use trinity_sim::ids::VertexId;

    #[test]
    fn cancel_token_propagates_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn control_latches_first_interrupt() {
        let token = CancelToken::new();
        let options = QueryOptions::none()
            .with_cancel(token.clone())
            .with_deadline(Duration::ZERO);
        // Deadline already expired at admission; the first check latches it
        // even if cancellation arrives later.
        let control = QueryControl::new(&options, Instant::now() - Duration::from_secs(1));
        assert_eq!(control.check(), Some(Interrupt::DeadlineExceeded));
        token.cancel();
        assert_eq!(control.check(), Some(Interrupt::DeadlineExceeded));
        assert!(control.interrupted());
    }

    #[test]
    fn control_without_options_never_interrupts() {
        let control = QueryControl::new(&QueryOptions::none(), Instant::now());
        assert_eq!(control.check(), None);
        assert!(!control.interrupted());
    }

    #[test]
    fn cancellation_is_observed_by_check() {
        let token = CancelToken::new();
        let control = QueryControl::new(
            &QueryOptions::none().with_cancel(token.clone()),
            Instant::now(),
        );
        assert_eq!(control.check(), None);
        token.cancel();
        assert_eq!(control.check(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn a_table_without_columns_adopts_the_announced_ones() {
        let mut table = ResultTable::default();
        let sink: &mut dyn ResultSink = &mut table;
        sink.begin(&[QVid(0), QVid(1)]);
        sink.row(&[VertexId(1), VertexId(2)]);
        sink.row(&[VertexId(3), VertexId(4)]);
        // Announcing its own columns again keeps the rows.
        sink.begin(&[QVid(0), QVid(1)]);
        assert_eq!(table.columns(), &[QVid(0), QVid(1)]);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.row(1), &[VertexId(3), VertexId(4)]);
    }

    #[test]
    #[should_panic(expected = "a row as wide as the table")]
    fn a_table_refuses_a_row_of_another_width() {
        let mut table = ResultTable::new(vec![QVid(0), QVid(1)]);
        ResultSink::row(&mut table, &[VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn a_projected_row_lands_in_canonical_order_in_every_sink() {
        // Source rows are in (q2, q0, q1) order.
        let (row, projection) = ([VertexId(30), VertexId(10), VertexId(20)], [1, 2, 0]);
        let canonical = [VertexId(10), VertexId(20), VertexId(30)];
        let mut scratch = Vec::new();
        let mut table = ResultTable::new(vec![QVid(0), QVid(1), QVid(2)]);
        table.row_projected(&row, &projection, &mut scratch);
        assert!(scratch.is_empty(), "the table writes in place");
        let mut seen = Vec::new();
        let mut closure = |row: &[VertexId]| seen.push(row.to_vec());
        closure.row_projected(&row, &projection, &mut scratch);
        assert_eq!(
            (table.row(0), &seen[..]),
            (&canonical[..], &[canonical.to_vec()][..])
        );
    }

    /// Row `i` of a width-2 test stream.
    fn pair(i: u64) -> [VertexId; 2] {
        [VertexId(i), VertexId(i + 1_000)]
    }

    #[test]
    fn channel_sink_batches_rows_and_survives_dropped_receiver() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sink = ChannelSink::new(tx);
        sink.row(&[VertexId(7)]);
        assert!(rx.try_recv().is_err(), "a lone row waits for a flush");
        sink.flush();
        sink.flush(); // nothing held: sends nothing
        let batch = rx.recv().unwrap();
        assert_eq!((batch.width(), batch.num_rows()), (1, 1));
        assert_eq!(batch.rows().collect::<Vec<_>>(), [&[VertexId(7)]]);
        assert!(rx.try_recv().is_err());
        // A full batch leaves on its own; the rest leaves with the sink,
        // and only then does the channel close.
        for i in 0..BATCH_ROWS as u64 + 3 {
            sink.row(&pair(i));
        }
        assert_eq!(rx.try_recv().unwrap().num_rows(), BATCH_ROWS);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        drop(sink);
        let rest = rx.recv().unwrap();
        assert_eq!(rest.rows().next(), Some(&pair(BATCH_ROWS as u64)[..]));
        assert_eq!(rest.num_rows(), 3);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));

        // Receiver gone: a plain sink swallows rows, a cancelling one says so.
        let (tx, rx) = std::sync::mpsc::channel();
        drop(rx);
        let mut sink = ChannelSink::new(tx.clone());
        sink.row(&[VertexId(8)]);
        sink.flush(); // must not panic
        let token = CancelToken::new();
        let mut sink = ChannelSink::new(tx).cancel_on_disconnect(token.clone());
        sink.row(&[VertexId(9)]);
        assert!(!token.is_cancelled(), "nothing was sent yet");
        sink.flush();
        assert!(token.is_cancelled());
    }

    #[test]
    fn row_stream_interleaves_row_and_batch_reads_in_order() {
        const ROWS: u64 = 2 * BATCH_ROWS as u64 + 40;
        let (tx, rx) = std::sync::mpsc::channel();
        let stream = RowStream::new(rx);
        let mut sink = ChannelSink::new(tx);
        for i in 0..ROWS {
            sink.row(&pair(i));
            if i == 2 {
                sink.flush(); // batches: 3, 256, 256, 25 rows
            }
        }
        drop(sink);
        let mut seen: Vec<Vec<VertexId>> = Vec::new();
        for _ in 0..3 {
            seen.push(stream.recv().unwrap());
        }
        // Crossing into the next batch, then leaving it half read …
        seen.extend(stream.iter().take(10));
        // … its unread rest comes out as one batch, the next one whole.
        let mut batches = stream.batches();
        for expected in [BATCH_ROWS - 10, BATCH_ROWS] {
            let batch = batches.next().unwrap();
            assert_eq!((batch.width(), batch.num_rows()), (2, expected));
            seen.extend(batch.rows().map(<[VertexId]>::to_vec));
        }
        drop(batches);
        seen.push(stream.recv().unwrap());
        seen.extend(stream); // IntoIterator drains to the end of the stream
        let expected: Vec<Vec<VertexId>> = (0..ROWS).map(|i| pair(i).to_vec()).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn row_stream_of_a_rowless_sink_ends_without_a_batch() {
        let (tx, rx) = std::sync::mpsc::channel();
        let stream = RowStream::new(rx);
        let mut sink = ChannelSink::new(tx);
        sink.begin(&[QVid(0), QVid(1)]);
        sink.flush();
        drop(sink);
        assert!(stream.batches().next().is_none());
        assert!(stream.recv().is_err());
        assert_eq!(stream.into_iter().count(), 0);
    }

    #[test]
    fn closure_sinks_count_rows() {
        let mut n = 0usize;
        {
            let mut sink = |_row: &[VertexId]| n += 1;
            let sink: &mut dyn ResultSink = &mut sink;
            sink.begin(&[QVid(0)]);
            sink.row(&[VertexId(1)]);
            sink.row(&[VertexId(2)]);
        }
        assert_eq!(n, 2);
    }
}
