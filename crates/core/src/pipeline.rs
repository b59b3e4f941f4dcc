//! Block-based pipelined join (§4.2 step 3, last paragraph).
//!
//! Even after exploration-time pruning and join-order selection, the
//! intermediate results of a multi-way join can exceed the memory budget of a
//! memory-cloud node. The paper therefore splits the join into rounds: in
//! each round only a block of the driver table participates, so partial
//! results stream out before the full join completes and the query can stop
//! as soon as the requested number of matches (1024 in the paper's
//! experiments) has been produced.

use crate::cache::RkMemo;
use crate::config::MatchConfig;
use crate::join::{select_join_order, PreparedJoin, ProbeChain};
use crate::metrics::JoinCounters;
use crate::query::QVid;
use crate::stream::{CollectSink, QueryControl, ResultSink};
use crate::table::ResultTable;

/// Report of one (possibly streamed) pipelined join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinRun {
    /// Whether the driver table was fully consumed with no limit cut — i.e.
    /// the emitted rows are *all* the embeddings these tables contain.
    /// Conservative: a limit reached on the final block reports `false`.
    pub exhausted: bool,
    /// Whether a cooperative deadline/cancel check stopped the join.
    pub interrupted: bool,
}

/// Joins the STwig result tables into final embeddings using the block-based
/// pipeline strategy.
///
/// * `order` is a permutation of the tables, driver first: the executor
///   always joins in the order [`crate::join::select_join_order`] selects
///   from 64-row samples; a caller may fix its own.
/// * The first table in the join order becomes the *driver*; the other
///   tables are indexed **once** ([`PreparedJoin`]) and never copied.
/// * Each driver row is extended depth-first through those indexes by one
///   `ProbeChain`: nothing is materialized between the joins, a finished
///   row goes straight to the output, and the configured result limit
///   (`MatchConfig::result_limit`) stops every level the moment it is
///   reached — memory beyond the output is one row.
/// * `config.block_rows` driver rows make a round; a round boundary is where
///   a satisfied limit or an interrupt is noticed *before* the next round is
///   counted, and where a streaming sink flushes.
pub fn pipelined_join(
    tables: &[ResultTable],
    config: &MatchConfig,
    order: &[usize],
    counters: &mut JoinCounters,
) -> ResultTable {
    let mut output = CollectSink::new();
    pipelined_join_streaming(
        tables,
        &[],
        config,
        order,
        config.result_limit(),
        None,
        counters,
        &mut output,
    );
    output.into_table().expect("join always announces a schema")
}

/// Rows sampled from each table to estimate a join's size.
const JOIN_SAMPLE_ROWS: usize = 64;

/// The order the executor joins `tables` in: the cost model's choice
/// ([`select_join_order`]) from [`JOIN_SAMPLE_ROWS`]-row samples.
pub(crate) fn join_order(tables: &[ResultTable]) -> Vec<usize> {
    select_join_order(tables, JOIN_SAMPLE_ROWS)
}

/// The streaming core behind [`pipelined_join`]: identical join semantics,
/// but rows flow to `sink` one by one, the row budget is an explicit `limit`
/// (the caller's *remaining* first-k budget rather than the config's own),
/// an optional [`QueryControl`] is checked at every round boundary and every
/// few hundred rows inside a round, so a deadline or cancellation stops the
/// join promptly, and the join `order` (a permutation of the tables, driver
/// first) is the caller's — [`join_order`], or one it memoized.
/// `memos[i]`, where present, is the index memo of the cache-resident tables
/// `tables[i]` was concatenated from: a rest table that has one is not
/// indexed again ([`PreparedJoin::with_memo`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipelined_join_streaming<S: ResultSink + ?Sized>(
    tables: &[ResultTable],
    memos: &[Option<RkMemo<'_>>],
    config: &MatchConfig,
    order: &[usize],
    limit: Option<usize>,
    control: Option<&QueryControl>,
    counters: &mut JoinCounters,
    sink: &mut S,
) -> JoinRun {
    assert!(!tables.is_empty(), "cannot join zero tables");
    debug_assert_eq!(order.len(), tables.len(), "the order is a permutation");

    if let [table] = tables {
        // Single-table fast path: hand over at most `limit` rows.
        sink.begin(table.columns());
        counters.pipeline_rounds += 1;
        let take = limit.map_or(table.num_rows(), |l| l.min(table.num_rows()));
        table.rows().take(take).for_each(|row| sink.row(row));
        sink.flush();
        return JoinRun {
            exhausted: take == table.num_rows(),
            interrupted: false,
        };
    }

    let driver = &tables[order[0]];
    // Index every rest table once against the schema the chain has when it
    // reaches that table. The schemas are data-independent, so this also
    // yields the output schema (an empty driver then still produces a table
    // with the right columns).
    let mut schema: Vec<QVid> = driver.columns().to_vec();
    let mut prepared: Vec<PreparedJoin<'_>> = Vec::with_capacity(order.len() - 1);
    for &i in &order[1..] {
        let memo = memos.get(i).and_then(Option::as_ref);
        let join = PreparedJoin::with_memo(&schema, &tables[i], memo, counters);
        schema = join.output_columns(&schema);
        prepared.push(join);
    }
    sink.begin(&schema);

    let block_rows = config.block_rows.max(1);
    let mut chain = ProbeChain::new(&prepared, schema.len(), limit, control, counters, sink);
    let mut start = 0usize;
    // Both stop conditions come *before* the round is counted.
    while start < driver.num_rows() && chain.budget > 0 {
        if control.is_some_and(QueryControl::interrupted) {
            chain.interrupted = true;
            break;
        }
        chain.counters.pipeline_rounds += 1;
        let end = driver.num_rows().min(start.saturating_add(block_rows));
        while start < end && chain.drive(driver.row(start)) {
            start += 1;
        }
        start = end;
        // `joins_performed` counts the levels each round reached.
        chain.counters.joins_performed += std::mem::take(&mut chain.deepest);
        chain.sink.flush();
    }
    JoinRun {
        exhausted: start >= driver.num_rows() && !chain.interrupted && chain.budget > 0,
        interrupted: chain.interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResultMode;
    use crate::join::multiway_join;
    use trinity_sim::ids::VertexId;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }
    fn q(x: u16) -> QVid {
        QVid(x)
    }

    fn table(cols: &[u16], rows: &[&[u64]]) -> ResultTable {
        let mut t = ResultTable::new(cols.iter().map(|&c| q(c)).collect());
        for r in rows {
            let row: Vec<VertexId> = r.iter().map(|&x| v(x)).collect();
            t.push_row(&row);
        }
        t
    }

    fn chain_tables(pairs: usize) -> Vec<ResultTable> {
        // q0-q1 and q1-q2 tables with `pairs` matching chains.
        let rows_a: Vec<Vec<u64>> = (0..pairs as u64).map(|i| vec![i, 1000 + i]).collect();
        let rows_b: Vec<Vec<u64>> = (0..pairs as u64)
            .map(|i| vec![1000 + i, 2000 + i])
            .collect();
        let a = {
            let refs: Vec<&[u64]> = rows_a.iter().map(|r| r.as_slice()).collect();
            table(&[0, 1], &refs)
        };
        let b = {
            let refs: Vec<&[u64]> = rows_b.iter().map(|r| r.as_slice()).collect();
            table(&[1, 2], &refs)
        };
        vec![a, b]
    }

    #[test]
    fn pipeline_equals_full_join() {
        let tables = chain_tables(100);
        let mut c1 = JoinCounters::default();
        let full = multiway_join(&tables, &[0, 1], None, &mut c1);
        let mut c2 = JoinCounters::default();
        let cfg = MatchConfig {
            block_rows: 7,
            ..MatchConfig::default()
        };
        let mut piped = pipelined_join(&tables, &cfg, &join_order(&tables), &mut c2);
        assert_eq!(piped.num_rows(), full.num_rows());
        assert!(c2.pipeline_rounds > 1);
        // Same set of rows.
        piped.dedup_rows();
        let mut full_sorted = full.clone();
        full_sorted.dedup_rows();
        assert_eq!(piped, full_sorted);
    }

    #[test]
    fn pipeline_stops_at_limit() {
        let tables = chain_tables(1000);
        let cfg = MatchConfig {
            block_rows: 10,
            result_mode: ResultMode::FirstK(25),
            ..MatchConfig::default()
        };
        let mut c = JoinCounters::default();
        let out = pipelined_join(&tables, &cfg, &join_order(&tables), &mut c);
        assert_eq!(out.num_rows(), 25);
        // Only a few rounds should have run (25 results at ≥10 per round).
        assert!(c.pipeline_rounds <= 4, "rounds = {}", c.pipeline_rounds);
    }

    #[test]
    fn pipeline_single_table() {
        let t = table(&[0, 1], &[&[1, 2], &[3, 4]]);
        let cfg = MatchConfig {
            result_mode: ResultMode::FirstK(1),
            ..MatchConfig::default()
        };
        let mut c = JoinCounters::default();
        let out = pipelined_join(&[t], &cfg, &[0], &mut c);
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn pipeline_empty_driver_yields_empty_with_schema() {
        let a = table(&[0, 1], &[]);
        let b = table(&[1, 2], &[&[1, 2]]);
        let cfg = MatchConfig::default();
        let mut c = JoinCounters::default();
        let out = pipelined_join(&[a, b], &cfg, &[0, 1], &mut c);
        assert!(out.is_empty());
        assert_eq!(out.width(), 3);
    }

    #[test]
    fn pipeline_in_a_given_order() {
        let tables = chain_tables(10);
        let cfg = MatchConfig::default();
        for order in [[0, 1], [1, 0]] {
            let mut c = JoinCounters::default();
            let out = pipelined_join(&tables, &cfg, &order, &mut c);
            assert_eq!(out.num_rows(), 10, "order {order:?}");
            // The given driver leads the output schema.
            let driver = tables[order[0]].columns();
            assert_eq!(&out.columns()[..driver.len()], driver, "order {order:?}");
        }
    }

    #[test]
    fn collecting_sinks_take_rows_one_at_a_time() {
        let round = table(&[0, 1], &[&[1, 2], &[3, 4]]);
        let mut sink = CollectSink::new();
        sink.begin(round.columns());
        round.rows().for_each(|row| sink.row(row));
        sink.flush();
        let mut out = sink.into_table().expect("schema announced");
        assert_eq!(out, round);
        out.begin(round.columns());
        ResultSink::row(&mut out, round.row(0));
        assert!(out.rows().eq(round.rows().chain([round.row(0)])));
    }

    #[test]
    fn satisfied_limit_costs_no_phantom_round() {
        // Regression: the block loop used to count a round *before*
        // noticing the limit was already satisfied.
        // With the check hoisted, a zero budget runs zero rounds, and a
        // limit satisfied mid-driver never adds a round that produces
        // nothing.
        let tables = chain_tables(100);
        let cfg = MatchConfig {
            block_rows: 10,
            result_mode: ResultMode::FirstK(0),
            ..MatchConfig::default()
        };
        let mut c = JoinCounters::default();
        let out = pipelined_join(&tables, &cfg, &join_order(&tables), &mut c);
        assert!(out.is_empty());
        assert_eq!(c.pipeline_rounds, 0, "zero budget must run zero rounds");

        // Limit an exact multiple of the per-round yield: the round that
        // fills the budget is the last one counted.
        let cfg = MatchConfig {
            block_rows: 10,
            result_mode: ResultMode::FirstK(20),
            ..MatchConfig::default()
        };
        let mut c = JoinCounters::default();
        let out = pipelined_join(&tables, &cfg, &join_order(&tables), &mut c);
        assert_eq!(out.num_rows(), 20);
        assert_eq!(c.pipeline_rounds, 2, "no phantom third round");
    }

    #[test]
    fn streaming_join_reports_rows_and_exhaustion() {
        let tables = chain_tables(50);
        let cfg = MatchConfig {
            block_rows: 10,
            ..MatchConfig::default()
        };
        #[derive(Default)]
        struct Count {
            rows: usize,
            rounds_seen: usize,
        }
        impl ResultSink for Count {
            fn row(&mut self, _row: &[VertexId]) {
                self.rows += 1;
            }
            fn flush(&mut self) {
                self.rounds_seen += 1;
            }
        }
        // Unlimited: everything flows through, driver exhausted.
        let order = join_order(&tables);
        let mut sink = Count::default();
        let mut c = JoinCounters::default();
        let run =
            pipelined_join_streaming(&tables, &[], &cfg, &order, None, None, &mut c, &mut sink);
        assert_eq!(sink.rows, 50);
        assert_eq!(sink.rounds_seen, 5);
        assert!(run.exhausted);
        assert!(!run.interrupted);
        assert_eq!((c.driver_rows, c.build_rows), (50, 50));

        // Limited: stops early — inside the third round, at the driver row
        // that fills the budget — and reports non-exhaustion.
        let mut sink = Count::default();
        let mut c = JoinCounters::default();
        let run = pipelined_join_streaming(
            &tables,
            &[],
            &cfg,
            &order,
            Some(25),
            None,
            &mut c,
            &mut sink,
        );
        assert_eq!((sink.rows, sink.rounds_seen), (25, 3));
        assert!(!run.exhausted);
        assert_eq!(c.pipeline_rounds, 3);
        assert_eq!((c.driver_rows, c.intermediate_rows), (25, 25));

        // Single-table path streams the limited prefix.
        let single = vec![tables[0].clone()];
        let mut any = Count::default();
        let mut c = JoinCounters::default();
        let run =
            pipelined_join_streaming(&single, &[], &cfg, &[0], Some(3), None, &mut c, &mut any);
        assert_eq!((any.rows, any.rounds_seen), (3, 1));
        assert!(!run.exhausted);
    }

    #[test]
    fn streaming_join_stops_at_an_interrupt() {
        use crate::stream::{CancelToken, QueryOptions};
        use std::time::Instant;
        // One round would cover the whole 1000-row driver.
        let tables = chain_tables(1000);
        let cfg = MatchConfig::default();
        let token = CancelToken::new();
        let control = QueryControl::new(
            &QueryOptions::none().with_cancel(token.clone()),
            Instant::now(),
        );
        struct CancelAtFirstRow {
            rows: u64,
            token: CancelToken,
        }
        impl ResultSink for CancelAtFirstRow {
            fn row(&mut self, _row: &[VertexId]) {
                self.rows += 1;
                // The chain must observe this at its next check, not at
                // the round boundary.
                self.token.cancel();
            }
        }
        let mut sink = CancelAtFirstRow { rows: 0, token };
        let mut c = JoinCounters::default();
        let run = pipelined_join_streaming(
            &tables,
            &[],
            &cfg,
            &join_order(&tables),
            None,
            Some(&control),
            &mut c,
            &mut sink,
        );
        assert!(run.interrupted);
        assert!(!run.exhausted);
        assert_eq!(c.pipeline_rounds, 1);
        // Checks come every 256 kept rows: the row that would have been the
        // 257th is dropped, and nothing after it is probed.
        assert_eq!(
            (sink.rows, c.intermediate_rows, c.driver_rows),
            (256, 256, 257)
        );

        // Already interrupted at the first boundary: no round at all.
        let mut c = JoinCounters::default();
        let run = pipelined_join_streaming(
            &tables,
            &[],
            &cfg,
            &join_order(&tables),
            None,
            Some(&control),
            &mut c,
            &mut sink,
        );
        assert!(run.interrupted);
        assert_eq!((c.pipeline_rounds, c.driver_rows, sink.rows), (0, 0, 256));
    }

    #[test]
    fn pipeline_join_counters_stay_proportional_to_rounds() {
        // Each round reaches exactly `rest.len()` levels of the prepared
        // indexes — a level counts once per round, not once per row.
        let tables = chain_tables(100);
        let cfg = MatchConfig {
            block_rows: 10,
            ..MatchConfig::default()
        };
        let mut c = JoinCounters::default();
        let out = pipelined_join(&tables, &cfg, &join_order(&tables), &mut c);
        assert_eq!(out.num_rows(), 100);
        assert_eq!(c.pipeline_rounds, 10);
        assert_eq!(c.joins_performed, 10, "one rest table joined per round");
    }
}
