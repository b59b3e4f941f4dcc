//! The join phase (§4.3 step 3): every machine joins its R_k tables — its
//! own STwig tables plus its load set's (Theorem 4), read where they lie as
//! row runs — with the block-based pipeline, delivering each row in
//! canonical column order as it is joined.

use super::explore::StwigTableSet;
use super::link::Link;
use super::plan::QueryPlan;
use super::StreamState;
use crate::cache::PlanMemo;
use crate::config::MatchConfig;
use crate::error::StwigError;
use crate::metrics::{JoinCounters, MachineMetrics, QueryMetrics};
use crate::pipeline::{join_order, pipelined_join_streaming};
use crate::query::QVid;
use crate::stream::{QueryControl, ResultSink};
use std::time::Instant;
use trinity_sim::ids::VertexId;
use trinity_sim::MemoryCloud;

/// The join's sink: re-projects each row of a machine's join output
/// (whose column order depends on its join-order choice) into the canonical
/// column order and delivers it as the join finishes it, flushing at the end
/// of every round. Checks `control` before each row — an atomic load (the
/// clock is only read while an untripped deadline is armed) — so no row is
/// delivered after a cancellation the consumer raised mid-stream, even
/// before the join's own next check stops it.
struct ProjectingSink<'a, 's, S: ResultSink + ?Sized> {
    canonical: &'a [QVid],
    projection: Vec<usize>,
    control: &'a QueryControl,
    state: &'a mut StreamState<'s, S>,
}

impl<S: ResultSink + ?Sized> ResultSink for ProjectingSink<'_, '_, S> {
    fn begin(&mut self, columns: &[QVid]) {
        self.projection = self
            .canonical
            .iter()
            .map(|&c| {
                columns
                    .iter()
                    .position(|&mc| mc == c)
                    .expect("final join output covers every query vertex")
            })
            .collect();
    }

    fn row(&mut self, row: &[VertexId]) {
        if !self.control.interrupted() {
            self.state.deliver_projected(row, &self.projection);
        }
    }

    fn flush(&mut self) {
        self.state.flush();
    }
}

/// Outcome of one join pass over all machines.
pub(crate) struct JoinPass {
    /// Rows the pass delivered.
    pub(super) rows: u64,
    /// Whether every contributing machine's join ran its driver dry — i.e.
    /// the pass enumerated everything these tables contain. Means nothing
    /// once `control` reports an interrupt.
    pub(crate) exhausted: bool,
}

/// The one join pass: runs the per-machine load-set joins over `tables` in
/// machine order on the calling thread, delivering surviving rows to `state`
/// in canonical column order as they are joined, up to `limit`.
///
/// The pass stops at the machine that satisfies the limit; a machine's
/// load-set rows are shipped to it right before it joins
/// ([`Link::assemble_rk`]), so a machine the pass never reaches costs no
/// simulated traffic. A machine it reaches reads its R_k tables where they
/// lie: no row is copied for the join but a `JoinRows` payload under
/// `Messages`, the simulated wire. Each row stays delivered if an interrupt
/// follows.
///
/// `memo` is the cache's memo of `plan`: a machine whose R_k tables are all
/// served takes its join order from it ([`PlanMemo::join_order`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_pass<S: ResultSink + ?Sized>(
    cloud: &MemoryCloud,
    plan: &QueryPlan,
    memo: Option<&PlanMemo>,
    tables: &StwigTableSet,
    config: &MatchConfig,
    limit: Option<usize>,
    control: &QueryControl,
    canonical: &[QVid],
    link: &Link<'_>,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
    state: &mut StreamState<'_, S>,
) -> Result<JoinPass, StwigError> {
    // The pass walks the machines through their metrics: a short slice would
    // silently skip machines and return an incomplete answer.
    assert_eq!(
        machine_metrics.len(),
        cloud.num_machines(),
        "join_pass needs one MachineMetrics per machine"
    );
    // A single table leaves nothing to select.
    let memo = memo.filter(|_| plan.stwigs.len() > 1);
    let mut pass = JoinPass {
        rows: 0,
        exhausted: true,
    };
    // A discarded slab round must not leave stale per-machine match counts.
    for mm in machine_metrics.iter_mut() {
        mm.matches_found = 0;
    }
    for (ki, mm) in machine_metrics.iter_mut().enumerate() {
        let remaining = limit.map(|l| (l as u64).saturating_sub(pass.rows) as usize);
        if remaining == Some(0) || control.interrupted() {
            pass.exhausted = false;
            break;
        }
        let t0 = Instant::now();
        link.settle_crashes(cloud, Some(control), &mut metrics.fault)?;
        // A lost machine joins nothing: its rows are not part of the answer.
        // The loss is reported as `Partial`; `exhausted` stays, as it only
        // says whether the result limit cut the joins that ran.
        if metrics.fault.is_lost(ki as u16) {
            continue;
        }
        let rk = link.assemble_rk(plan, tables, ki)?;
        let mut counters = JoinCounters::default();
        let before = state.streamed;
        // A machine with no head-STwig results contributes nothing (§5.3),
        // and nothing is all there was to enumerate.
        let exhausted = rk.tables[plan.head.head_index].is_empty() || {
            let select = || join_order(&rk.tables);
            let (memoized, selected);
            let order: &[usize] = match memo.and_then(|m| m.join_order(ki, &rk.memos, select)) {
                Some(order) => {
                    memoized = order;
                    &memoized
                }
                None => {
                    selected = select();
                    &selected
                }
            };
            let mut sink = ProjectingSink {
                canonical,
                projection: Vec::new(),
                control,
                state,
            };
            pipelined_join_streaming(
                &rk.tables,
                &rk.memos,
                config,
                order,
                remaining,
                Some(control),
                &mut counters,
                &mut sink,
            )
            .exhausted
        };
        // `delivered` is what the output took of the machine's rows — a
        // first-k "satisfied" decision must reflect delivered rows only.
        let delivered = state.streamed - before;
        pass.rows += delivered;
        pass.exhausted &= exhausted;
        metrics.join.merge(&counters);
        let table_bytes = rk.tables.iter().map(|t| t.memory_bytes() as u64).sum();
        metrics.peak_table_bytes = metrics.peak_table_bytes.max(table_bytes);
        mm.rows_received += rk.received;
        mm.compute_us += t0.elapsed().as_secs_f64() * 1e6;
        mm.matches_found = delivered;
        if control.interrupted() {
            break;
        }
    }
    Ok(pass)
}
