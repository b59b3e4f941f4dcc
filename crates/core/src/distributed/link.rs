//! How a query reaches the other machines. [`Link`] is the one
//! place in the executor that knows the query's transport: each exchange of
//! §4.3 is one of its methods, holding the `Messages` arm (envelopes over the
//! query's mailboxes) beside the `DirectRead` arm (reads in place, charged
//! as an estimate). The phases call the exchange and never ask which.

use super::explore::StwigTableSet;
use super::plan::QueryPlan;
use crate::cache::RkMemo;
use crate::config::{MatchConfig, TransportMode};
use crate::error::StwigError;
use crate::hash::VertexSet;
use crate::head::load_set;
use crate::matcher::{Mode, SharedPostings};
use crate::metrics::FaultCounters;
use crate::query::QVid;
use crate::retry::{degraded_loss, fetch_postings, Faults};
use crate::stream::QueryControl;
use crate::table::ResultTable;
use trinity_sim::fault::FaultyTransport;
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::network::{Network, Phase};
use trinity_sim::transport::{ChannelTransport, Message, Transport, TransportError};
use trinity_sim::MemoryCloud;

/// Maximum vertex ids per batched `Load` request envelope under
/// [`TransportMode::Messages`]: a destination's frontier larger than this is
/// split into several envelopes. Moves message counts, never results.
pub const LOAD_BATCH_IDS: usize = 4096;

/// How a query reaches the other machines, charging its ledger: a transport
/// stack under `Messages` (its envelopes charge themselves), the ledger
/// alone under `DirectRead`. A query builds one and every phase and slab
/// round uses it, so the fault state of its stack — the exchanges each
/// machine has served, a crash — lasts the whole query.
pub(crate) struct Link<'c> {
    ledger: &'c Network,
    stack: Option<Stack<'c>>,
}

/// The transport stack of `Messages` mode: a [`ChannelTransport`] charging
/// the query's ledger, wrapped in a [`FaultyTransport`] when the request
/// armed [`Faults`]. The wrapper is an enum rather than a boxed trait object
/// so the fault-free path stays allocation-free.
enum Stack<'c> {
    /// Fault-free mailboxes.
    Plain(ChannelTransport<'c>),
    /// Seeded fault injection around the mailboxes (boxed: the fault
    /// machinery dwarfs the plain variant, and this path already pays for
    /// injected delays).
    Faulty(Box<FaultyTransport<ChannelTransport<'c>>>),
}

/// The fault guard: [`Faults`] need a transport to inject them into, and only
/// `Messages` has one. Every public entry point that takes a request's
/// control checks it before any work, so a fault run never silently runs
/// fault-free.
pub(crate) fn check_faults(
    config: &MatchConfig,
    control: Option<&QueryControl>,
) -> Result<(), StwigError> {
    let armed = control.is_some_and(|c| c.faults().is_some());
    if armed && config.transport_mode != TransportMode::Messages {
        return Err(StwigError::FaultsNeedMessages);
    }
    Ok(())
}

/// Machine `k`'s assembled R_k(q_t) tables, one per STwig and under the
/// query's column names, beside the index memo of each one that holds
/// nothing but one cache entry's rows.
pub(crate) struct Assembled<'a> {
    pub(crate) tables: Vec<ResultTable>,
    pub(crate) memos: Vec<Option<RkMemo<'a>>>,
    /// Rows received from other machines.
    pub(super) received: u64,
}

impl<'c> Link<'c> {
    /// The link of `config`'s transport mode, injecting `faults` under
    /// `Messages`. Every entry point has refused faults on a `DirectRead`
    /// query ([`check_faults`]).
    pub(crate) fn new(
        cloud: &'c MemoryCloud,
        ledger: &'c Network,
        config: &MatchConfig,
        faults: Option<&Faults>,
    ) -> Self {
        let stack = (config.transport_mode == TransportMode::Messages).then(|| {
            let tp = ChannelTransport::new(cloud).with_ledger(ledger);
            match faults {
                Some(faults) => {
                    Stack::Faulty(Box::new(FaultyTransport::new(tp, faults.plan.clone())))
                }
                None => Stack::Plain(tp),
            }
        });
        Link { ledger, stack }
    }

    /// The transport of `Messages` mode; `None` under `DirectRead`.
    fn transport(&self) -> Option<&dyn Transport> {
        match self.stack.as_ref()? {
            Stack::Plain(tp) => Some(tp),
            Stack::Faulty(tp) => Some(&**tp),
        }
    }

    /// Drain-side duplicate deliveries suppressed so far (exactly-once
    /// accounting, harvested into `QueryMetrics::fault` once, by whoever
    /// built the link, after its last phase).
    pub(crate) fn duplicates_suppressed(&self) -> u64 {
        match &self.stack {
            Some(Stack::Plain(tp)) => tp.duplicates_suppressed(),
            Some(Stack::Faulty(tp)) => tp.inner().duplicates_suppressed(),
            None => 0,
        }
    }

    /// The barrier before a one-way round (the binding broadcast, join
    /// shipping). A post asks for no reply, so a crashed peer refuses none:
    /// its envelopes would vanish unseen, and the round would go on as if it
    /// had sent nothing. The fault stack knows which machines are down, as
    /// a real barrier learns it from a missed heartbeat. Each one `faults`
    /// has not recorded yet fails the query with
    /// [`StwigError::MachineUnavailable`] under `FailurePolicy::Fail`, or is
    /// recorded lost under `Degrade`. Without armed faults there is nothing
    /// to settle.
    pub(super) fn settle_crashes(
        &self,
        cloud: &MemoryCloud,
        control: Option<&QueryControl>,
        faults: &mut FaultCounters,
    ) -> Result<(), StwigError> {
        let Some(Stack::Faulty(tp)) = &self.stack else {
            return Ok(());
        };
        for m in cloud.machines() {
            if faults.is_lost(m.0) || !tp.is_down(m) {
                continue;
            }
            let err = StwigError::MachineUnavailable {
                machine: m.0,
                attempts: 0,
                last: TransportError::MachineDown { dst: m },
            };
            faults.record_lost(degraded_loss(&err, control).ok_or(err)?);
        }
        Ok(())
    }

    /// How one machine's exploration meets the cloud: partition-local
    /// batched matching over the transport, tallying what the retry layer
    /// absorbed in `faults`; or the direct-read matcher over the STwig's
    /// `shared` postings, charging the ledger.
    pub(super) fn explore_mode<'a>(
        &'a self,
        shared: &'a SharedPostings,
        faults: &'a mut FaultCounters,
    ) -> Mode<'a> {
        match self.transport() {
            Some(tp) => Mode::Messages(tp, faults, LOAD_BATCH_IDS),
            None => Mode::InPlace(shared, self.ledger),
        }
    }

    /// The binding broadcast after one STwig: each `(vertex, column, set)`
    /// of `columns` becomes the union over machines of what `extend(set, k,
    /// column)` adds from machine `k`'s table; `rows(k)` is how many rows
    /// machine `k` contributes.
    ///
    /// `Messages`: every machine posts one `BindingDelta` — its *distinct*
    /// values per column — to every other machine, and the union is
    /// assembled from machine 0's view (its own delta plus its inbox). Every
    /// machine's view is the same union; building it once keeps the
    /// in-process run cheap without changing what travelled. `DirectRead`:
    /// the union is filled machine by machine, and the broadcast is charged
    /// as a per-entry estimate (each machine ships its rows' entries to
    /// every other machine). A malformed delta fails with
    /// [`StwigError::Transport`].
    pub(super) fn broadcast_bindings(
        &self,
        cloud: &MemoryCloud,
        columns: &mut [(QVid, usize, VertexSet)],
        extend: impl Fn(&mut VertexSet, usize, usize),
        rows: impl Fn(usize) -> usize,
    ) -> Result<(), StwigError> {
        let num_machines = cloud.num_machines();
        let Some(tp) = self.transport() else {
            for (_, ci, set) in columns.iter_mut() {
                for k in 0..num_machines {
                    extend(set, k, *ci);
                }
            }
            for k in 0..num_machines {
                let entries = rows(k) as u64 * columns.len() as u64;
                for j in cloud.machines() {
                    if j.index() != k {
                        (self.ledger).ship_rows(MachineId(k as u16), j, entries, 1, Phase::Sync);
                    }
                }
            }
            return Ok(());
        };
        let deltas: Vec<Vec<(u16, Vec<VertexId>)>> = (0..num_machines)
            .map(|k| {
                (columns.iter())
                    .map(|&(col, ci, _)| {
                        let mut distinct = VertexSet::default();
                        extend(&mut distinct, k, ci);
                        let mut vals: Vec<VertexId> = distinct.into_iter().collect();
                        // Sorted payloads make the envelope deterministic
                        // byte for byte.
                        vals.sort_unstable();
                        (col.0, vals)
                    })
                    .collect()
            })
            .collect();
        for (k, cols) in deltas.iter().enumerate() {
            for j in cloud.machines() {
                if j.index() != k {
                    let msg = Message::BindingDelta { cols: cols.clone() };
                    tp.post(MachineId(k as u16), j, msg);
                }
            }
        }
        // Drain every mailbox (each machine consumes its inbox); machine 0's
        // is the one the union is materialized from. The union is a set, so
        // fault-injected reordering of the deltas cannot change it;
        // duplicates were already suppressed by the drain-side dedup.
        let inboxes: Vec<_> = cloud.machines().map(|m| tp.drain(m)).collect();
        let expected = columns.len();
        for (ci, (.., set)) in columns.iter_mut().enumerate() {
            set.extend(deltas[0][ci].1.iter().copied());
            for env in &inboxes[0] {
                let msg = &env.msg;
                let Message::BindingDelta { cols } = msg else {
                    // A malformed peer degrades this query only.
                    return Err(StwigError::Transport(TransportError::UnexpectedMessage {
                        phase: "binding sync",
                        got: msg.kind(),
                    }));
                };
                let Some((_, vals)) = cols.get(ci) else {
                    return Err(StwigError::Transport(TransportError::MalformedPayload {
                        detail: format!(
                            "binding delta carries {} columns, expected {expected}",
                            cols.len()
                        ),
                    }));
                };
                set.extend(vals.iter().copied());
            }
        }
        Ok(())
    }

    /// Machine `ki`'s `R_k(q_t)` for every STwig `t`: its own exploration
    /// tables plus the rows of its load set (Theorem 4). `Messages`: every
    /// load-set table bound for `ki` is posted as one `JoinRows` envelope
    /// per non-empty (STwig, sender) pair, then drained from `ki`'s mailbox.
    /// `DirectRead`: the tables are read in place and charged to the ledger.
    ///
    /// An R_k(q_t) concatenated from a served STwig's tables alone keeps
    /// that entry's index memo, addressed by what was concatenated; one whose
    /// rows really came through `JoinRows` does not (the rows are what
    /// arrived, not by construction what is cached). A malformed `JoinRows`
    /// envelope (wrong variant, out-of-range STwig index, foreign columns,
    /// ragged row payload) fails with [`StwigError::Transport`].
    pub(crate) fn assemble_rk<'a>(
        &self,
        plan: &QueryPlan,
        tables: &'a StwigTableSet,
        ki: usize,
    ) -> Result<Assembled<'a>, StwigError> {
        let k = MachineId(ki as u16);
        let n = plan.stwigs.len();
        let mut rk = Assembled {
            tables: Vec::with_capacity(n),
            memos: Vec::new(),
            received: 0,
        };
        let Some(tp) = self.transport() else {
            // Without a served STwig there is no memo to keep, and no list
            // of them.
            let memoized = (0..n).any(|t| tables.served(t).is_some());
            for (t, stwig) in plan.stwigs.iter().enumerate() {
                let own = tables.table(ki, t);
                // Sized once for the machine's own rows plus its whole load
                // set.
                let senders: Vec<MachineId> = load_set(&plan.cluster, &plan.head, k, t);
                let shipped = |j: &MachineId| tables.table(j.index(), t).num_rows();
                let rows = own.num_rows() + senders.iter().map(shipped).sum::<usize>();
                let mut table = ResultTable::with_capacity(stwig.vertices().collect(), rows);
                table.append_rows(own);
                for j in &senders {
                    let remote = tables.table(j.index(), t);
                    if remote.is_empty() {
                        continue;
                    }
                    let (rows, width) = (remote.num_rows() as u64, remote.width() as u64);
                    self.ledger.ship_rows(*j, k, rows, width, Phase::Join);
                    rk.received += remote.num_rows() as u64;
                    table.append_rows(remote);
                }
                // No dedup pass: rows within one machine's table are
                // distinct (the cross product emits each assignment once),
                // and tables from different machines are root-disjoint
                // because STwig roots are restricted to locally-owned
                // vertices — so R_k is duplicate-free by construction.
                rk.tables.push(table);
                if memoized {
                    let memo = |entry| RkMemo::new(entry, k, senders);
                    rk.memos.push(tables.served(t).map(memo));
                }
            }
            return Ok(rk);
        };
        // The posting order is (STwig, sender) ascending, at most one
        // envelope per pair.
        for (t, stwig) in plan.stwigs.iter().enumerate() {
            for j in load_set(&plan.cluster, &plan.head, k, t) {
                let remote = tables.table(j.index(), t);
                if remote.is_empty() {
                    continue;
                }
                let columns = stwig.vertices().map(|c| c.0).collect();
                let rows = remote.rows().flatten().copied().collect();
                tp.post(
                    j,
                    k,
                    Message::JoinRows {
                        stwig: t as u32,
                        columns,
                        rows,
                    },
                );
            }
        }
        for (t, stwig) in plan.stwigs.iter().enumerate() {
            let own = tables.table(ki, t);
            let mut table = ResultTable::with_capacity(stwig.vertices().collect(), own.num_rows());
            table.append_rows(own);
            rk.tables.push(table);
            let memo = |entry| RkMemo::new(entry, k, Vec::new());
            rk.memos.push(tables.served(t).map(memo));
        }
        let mut inbox = tp.drain(k);
        // Canonicalize arrival order: a stable no-op on a clean run, and
        // under fault-injected delay/reorder it restores the posting order,
        // keeping R_k row-for-row deterministic.
        inbox.sort_by_key(|env| match &env.msg {
            Message::JoinRows { stwig, .. } => (*stwig, env.src.0, env.seq),
            _ => (u32::MAX, env.src.0, env.seq),
        });
        for env in inbox {
            let src = env.src;
            let Message::JoinRows {
                stwig,
                columns,
                rows,
            } = env.msg
            else {
                return Err(StwigError::Transport(TransportError::UnexpectedMessage {
                    phase: "join shipping",
                    got: env.msg.kind(),
                }));
            };
            let Some(table) = rk.tables.get_mut(stwig as usize) else {
                return Err(StwigError::Transport(TransportError::MalformedPayload {
                    detail: format!(
                        "machine {src} shipped rows for STwig {stwig}, but the plan has {n}"
                    ),
                }));
            };
            let expected: Vec<u16> = table.columns().iter().map(|c| c.0).collect();
            if columns != expected {
                return Err(StwigError::Transport(TransportError::MalformedPayload {
                    detail: format!(
                        "machine {src} shipped STwig {stwig} with columns {columns:?}, \
                         expected {expected:?}"
                    ),
                }));
            }
            let width = table.width();
            if width == 0 || rows.len() % width != 0 {
                return Err(StwigError::Transport(TransportError::MalformedPayload {
                    detail: format!(
                        "machine {src} shipped {} ids for width-{width} STwig {stwig}",
                        rows.len()
                    ),
                }));
            }
            for row in rows.chunks(width) {
                table.push_row(row);
            }
            rk.memos[stwig as usize] = None;
            rk.received += (rows.len() / width) as u64;
        }
        Ok(rk)
    }

    /// Machine `k`'s postings of `label`, as the `proxy` gathers them for a
    /// single-vertex query: one `GetIds` exchange under `Messages` (none for
    /// the proxy's own), read in place under `DirectRead`. A machine the
    /// query goes on without contributes nothing.
    pub(super) fn postings(
        &self,
        cloud: &MemoryCloud,
        proxy: MachineId,
        k: MachineId,
        label: LabelId,
        control: &QueryControl,
        faults: &mut FaultCounters,
    ) -> Result<Vec<VertexId>, StwigError> {
        Ok(match self.transport() {
            Some(tp) if k != proxy => {
                fetch_postings(tp, cloud, proxy, k, &[label], Some(control), faults)?
                    // One label asked, one run back (checked by the fetch).
                    .and_then(|mut runs| runs.pop())
                    .unwrap_or_default()
            }
            _ => cloud.get_ids(k, label).to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::produce_stwig_tables;
    use crate::distributed::plan_query;
    use crate::distributed::tests::{sample_cloud, triangle_query};
    use crate::metrics::{MachineMetrics, QueryMetrics};

    fn messages() -> MatchConfig {
        MatchConfig::default().with_transport_mode(TransportMode::Messages)
    }

    /// The transport error inside `err`, which must be one.
    fn transport_error(err: StwigError) -> TransportError {
        match err {
            StwigError::Transport(err) => err,
            other => panic!("expected a typed transport error, got {other:?}"),
        }
    }

    #[test]
    fn a_malformed_binding_delta_fails_the_sync_typed() {
        let cloud = sample_cloud(3);
        let ledger = Network::new(cloud.num_machines());
        let link = Link::new(&cloud, &ledger, &messages(), None);
        // One synchronized column; machine k discovered the vertex k.
        let broadcast = || {
            let mut columns = vec![(QVid(0), 0, VertexSet::default())];
            let extend = |set: &mut VertexSet, k: usize, _| {
                set.insert(VertexId(k as u64));
            };
            link.broadcast_bindings(&cloud, &mut columns, extend, |_| 1)
                .map(|()| columns.pop().unwrap().2)
        };
        assert_eq!(broadcast().unwrap().len(), 3);
        let tp = link.transport().unwrap();
        let (peer, proxy) = (MachineId(1), MachineId(0));
        let rows = Message::JoinRows {
            stwig: 0,
            columns: vec![0],
            rows: Vec::new(),
        };
        tp.post(peer, proxy, rows);
        let err = transport_error(broadcast().unwrap_err());
        assert!(
            matches!(
                err,
                TransportError::UnexpectedMessage {
                    phase: "binding sync",
                    got: "JoinRows",
                }
            ),
            "{err:?}"
        );
        tp.post(peer, proxy, Message::BindingDelta { cols: Vec::new() });
        let err = transport_error(broadcast().unwrap_err());
        let TransportError::MalformedPayload { detail } = err else {
            panic!("{err:?}");
        };
        assert!(detail.contains("carries 0 columns, expected 1"), "{detail}");
        // Each failed sync drained the mailboxes: the next one is clean.
        assert_eq!(broadcast().unwrap().len(), 3);
    }

    #[test]
    fn a_malformed_join_rows_envelope_fails_the_shipping_typed() {
        let cloud = sample_cloud(3);
        let query = triangle_query(&cloud);
        let plan = plan_query(&cloud, &query).unwrap();
        let config = messages();
        let mut metrics = QueryMetrics::default();
        let mut machines: Vec<_> = (0..3).map(|_| MachineMetrics::default()).collect();
        let tables = produce_stwig_tables(
            &cloud,
            &query,
            &plan,
            &config,
            None,
            None,
            &mut metrics,
            &mut machines,
        )
        .unwrap()
        .expect("the triangle has answers");
        let columns: Vec<u16> = plan.stwigs[0].vertices().map(|c| c.0).collect();
        let width = columns.len();
        let join_rows = |stwig, columns, ids| Message::JoinRows {
            stwig,
            columns,
            rows: vec![VertexId(1); ids],
        };
        let past_the_plan = plan.stwigs.len() as u32;
        let cases = [
            (Message::BindingDelta { cols: Vec::new() }, "BindingDelta"),
            (
                join_rows(past_the_plan, columns.clone(), 0),
                "but the plan has",
            ),
            (join_rows(0, vec![63; width], width), "with columns [63"),
            (join_rows(0, columns.clone(), width + 1), "ids for width-"),
        ];
        for (msg, expected) in cases {
            let ledger = Network::new(cloud.num_machines());
            let link = Link::new(&cloud, &ledger, &config, None);
            link.transport()
                .unwrap()
                .post(MachineId(1), MachineId(0), msg);
            let err = link.assemble_rk(&plan, &tables, 0).err();
            let err = transport_error(err.expect(expected));
            let seen = match &err {
                TransportError::UnexpectedMessage { phase, got } => {
                    assert_eq!(*phase, "join shipping");
                    got.to_string()
                }
                TransportError::MalformedPayload { detail } => detail.clone(),
                other => panic!("{other:?}"),
            };
            assert!(seen.contains(expected), "{seen} lacks {expected}");
            // The well-formed envelopes alone assemble.
            assert!(link.assemble_rk(&plan, &tables, 0).is_ok());
        }
    }
}
