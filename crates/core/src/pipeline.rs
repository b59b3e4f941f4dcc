//! Block-based pipelined join (§4.2 step 3, last paragraph).
//!
//! Even after exploration-time pruning and join-order selection, the
//! intermediate results of a multi-way join can exceed the memory budget of a
//! memory-cloud node. The paper therefore splits the join into rounds: in
//! each round only a block of the driver table participates, so partial
//! results stream out before the full join completes and the query can stop
//! as soon as the requested number of matches (1024 in the paper's
//! experiments) has been produced.

use crate::config::MatchConfig;
use crate::join::{select_join_order_with_priors, PreparedJoin};
use crate::metrics::JoinCounters;
use crate::query::QVid;
use crate::stream::QueryControl;
use crate::table::ResultTable;

/// Receives the pipeline's output incrementally: the schema once, then each
/// round's surviving rows as the round completes. This is what lets the
/// streaming executor deliver first-k rows while later rounds (or later
/// machines) are still pending. A sink that only collects lends its table
/// instead, and each row is written once, where it stays ([`fill_round`]).
pub(crate) trait RoundSink {
    /// The column order of the lent table and of every `on_rows` table.
    fn on_schema(&mut self, columns: &[QVid]);
    /// The table to append a round's rows to, if the sink keeps one.
    fn lend(&mut self) -> Option<&mut ResultTable> {
        None
    }
    /// One round's surviving rows (already limit-capped), if nothing is lent.
    fn on_rows(&mut self, rows: &ResultTable);
}

/// The collecting sink: the output table, once the schema is known.
impl RoundSink for Option<ResultTable> {
    fn on_schema(&mut self, columns: &[QVid]) {
        *self = Some(ResultTable::new(columns.to_vec()));
    }
    fn lend(&mut self) -> Option<&mut ResultTable> {
        self.as_mut()
    }
    fn on_rows(&mut self, rows: &ResultTable) {
        let out = self.as_mut().expect("schema precedes rows");
        out.append_projected(rows);
    }
}

/// Runs `fill` on the table `sink` lends, else on a new one of `columns`
/// that `on_rows` then receives; returns the rows `fill` added.
fn fill_round(
    sink: &mut dyn RoundSink,
    columns: &[QVid],
    fill: impl FnOnce(&mut ResultTable),
) -> usize {
    if let Some(out) = sink.lend() {
        let before = out.num_rows();
        fill(out);
        return out.num_rows() - before;
    }
    let mut rows = ResultTable::new(columns.to_vec());
    fill(&mut rows);
    if !rows.is_empty() {
        sink.on_rows(&rows);
    }
    rows.num_rows()
}

/// Report of one (possibly streamed) pipelined join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinRun {
    /// Rows handed to the sink.
    pub rows_emitted: usize,
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
/// * The join order is chosen by [`crate::join::select_join_order`] (unless
///   disabled in the config, in which case the given table order is used).
/// * The first table in the join order becomes the *driver*; it is processed
///   in blocks of `config.block_rows` rows.
/// * The non-driver tables are indexed **once**, before the block loop
///   ([`PreparedJoin`]); each round probes those prepared indexes with one
///   driver block, so per-round memory stays bounded by the block and its
///   join output, as §4.2 intends — the rest tables are never copied or
///   re-indexed.
/// * Each round appends the surviving rows to the output, stopping as soon
///   as the configured result limit (`MatchConfig::result_limit`) has been
///   produced. The limit is checked *before* a round starts, so a satisfied
///   limit costs neither a phantom `pipeline_rounds` increment nor a wasted
///   driver-block copy.
pub fn pipelined_join(
    tables: &[ResultTable],
    config: &MatchConfig,
    counters: &mut JoinCounters,
) -> ResultTable {
    pipelined_join_with_priors(tables, config, None, counters)
}

/// [`pipelined_join`] with per-table selectivity priors forwarded to
/// [`select_join_order_with_priors`] — the label-pair-aware cost-model entry
/// point used when `MatchConfig::pruning` is on. `None` priors make this
/// identical to [`pipelined_join`].
pub fn pipelined_join_with_priors(
    tables: &[ResultTable],
    config: &MatchConfig,
    priors: Option<&[f64]>,
    counters: &mut JoinCounters,
) -> ResultTable {
    let mut output = None;
    pipelined_join_streaming(
        tables,
        config,
        priors,
        config.result_limit(),
        None,
        counters,
        &mut output,
    );
    output.expect("join always announces a schema")
}

/// The streaming core behind [`pipelined_join`]: identical join semantics,
/// but rows flow to `sink` round by round, the row budget is an explicit
/// `limit` (the caller's *remaining* first-k budget rather than the config's
/// own), an optional [`QueryControl`] is checked at every round boundary
/// so a deadline or cancellation stops the join between blocks, and optional
/// per-table selectivity `priors` bias the join-order choice.
pub(crate) fn pipelined_join_streaming(
    tables: &[ResultTable],
    config: &MatchConfig,
    priors: Option<&[f64]>,
    limit: Option<usize>,
    control: Option<&QueryControl>,
    counters: &mut JoinCounters,
    sink: &mut dyn RoundSink,
) -> JoinRun {
    assert!(!tables.is_empty(), "cannot join zero tables");
    let order: Vec<usize> = if config.optimize_join_order {
        select_join_order_with_priors(tables, config.join_sample_size, priors)
    } else {
        (0..tables.len()).collect()
    };

    if let [table] = tables {
        // Single-table fast path: copy at most `limit` rows — cloning a
        // 1M-row table to then truncate it to one row would allocate the
        // whole buffer for nothing.
        sink.on_schema(table.columns());
        counters.pipeline_rounds += 1;
        let take = limit.map_or(table.num_rows(), |l| l.min(table.num_rows()));
        let rows_emitted = fill_round(sink, table.columns(), |out| {
            out.append_prefix(table, take);
        });
        return JoinRun {
            rows_emitted,
            exhausted: rows_emitted == table.num_rows(),
            interrupted: false,
        };
    }

    let driver = &tables[order[0]];
    let rest: Vec<&ResultTable> = order[1..].iter().map(|&i| &tables[i]).collect();

    // Index every rest table once against the schema the accumulated join
    // has when it reaches that table. The schemas are data-independent, so
    // this also yields the output schema (an empty driver then still
    // produces a table with the right columns).
    let mut schema: Vec<QVid> = driver.columns().to_vec();
    let mut prepared: Vec<PreparedJoin<'_>> = Vec::with_capacity(rest.len());
    for t in &rest {
        let join = PreparedJoin::new(&schema, t);
        schema = join.output_columns(&schema);
        prepared.push(join);
    }
    sink.on_schema(&schema);
    let (last, earlier) = prepared.split_last().expect("two tables or more");

    let block_rows = config.block_rows.max(1);
    let mut start = 0usize;
    let mut emitted = 0usize;
    let mut interrupted = false;
    while start < driver.num_rows() {
        // Both stop conditions come *before* the round is counted and the
        // driver block copied.
        let remaining_limit = limit.map(|l| l.saturating_sub(emitted));
        if remaining_limit == Some(0) {
            break;
        }
        if control.is_some_and(QueryControl::interrupted) {
            interrupted = true;
            break;
        }
        counters.pipeline_rounds += 1;
        let block = driver.take_block(start, block_rows);
        start += block_rows;

        // Probe the prepared rest-table indexes with this block (in order).
        // A limit is only safe on the last join: earlier truncation could
        // drop rows that would survive the remaining joins. The control
        // handle reaches into each probe pass so even one fat block cannot
        // blow through a deadline.
        let mut acc = block;
        for join in earlier {
            if acc.is_empty() {
                break;
            }
            acc = join.join_with_control(&acc, None, control, counters);
        }
        if acc.is_empty() {
            continue;
        }
        emitted += fill_round(sink, &schema, |out| {
            last.join_into(&acc, remaining_limit, control, counters, out);
        });
    }
    JoinRun {
        rows_emitted: emitted,
        exhausted: start >= driver.num_rows() && !interrupted && limit.is_none_or(|l| emitted < l),
        interrupted,
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
        let mut piped = pipelined_join(&tables, &cfg, &mut c2);
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
        let out = pipelined_join(&tables, &cfg, &mut c);
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
        let out = pipelined_join(&[t], &cfg, &mut c);
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn pipeline_empty_driver_yields_empty_with_schema() {
        let a = table(&[0, 1], &[]);
        let b = table(&[1, 2], &[&[1, 2]]);
        let cfg = MatchConfig::default();
        let mut c = JoinCounters::default();
        let out = pipelined_join(&[a, b], &cfg, &mut c);
        assert!(out.is_empty());
        assert_eq!(out.width(), 3);
    }

    #[test]
    fn pipeline_without_order_optimization() {
        let tables = chain_tables(10);
        let cfg = MatchConfig::default().with_join_order_optimization(false);
        let mut c = JoinCounters::default();
        let out = pipelined_join(&tables, &cfg, &mut c);
        assert_eq!(out.num_rows(), 10);
    }

    #[test]
    fn round_result_reprojection_matches_schema_order() {
        // The re-projection branch of the round append: per-round results and
        // the output schema are produced by the same data-independent chain,
        // so their column orders only diverge if that invariant is ever
        // broken — the append is routed through `append_projected`, which
        // re-projects instead of corrupting rows. Exercise exactly the
        // mismatch the pipeline would hit: a round result carrying the same
        // column set in a different order.
        let mut output = ResultTable::new(vec![q(0), q(1), q(2)]);
        output.push_row(&[v(1), v(1001), v(2001)]);
        let mut round_result = ResultTable::new(vec![q(1), q(2), q(0)]);
        round_result.push_row(&[v(1002), v(2002), v(2)]);
        round_result.push_row(&[v(1003), v(2003), v(3)]);
        assert_ne!(round_result.columns(), output.columns());
        output.append_projected(&round_result);
        assert_eq!(output.num_rows(), 3);
        assert_eq!(output.row(1), &[v(2), v(1002), v(2002)]);
        assert_eq!(output.row(2), &[v(3), v(1003), v(2003)]);
        // The re-projected rows agree with a value() lookup by column name.
        for r in 0..output.num_rows() {
            for &c in output.columns() {
                assert_eq!(
                    output.value(r, c),
                    output.row(r)[output.column_index(c).unwrap()]
                );
            }
        }
    }

    #[test]
    fn collecting_sink_takes_rows_lent_or_handed_over() {
        let round = table(&[0, 1], &[&[1, 2], &[3, 4]]);
        let mut sink: Option<ResultTable> = None;
        sink.on_schema(round.columns());
        sink.lend()
            .expect("lends once it has a schema")
            .append(&round);
        sink.on_rows(&round);
        let out = sink.expect("schema announced");
        assert!(out.rows().eq(round.rows().chain(round.rows())));
    }

    #[test]
    fn satisfied_limit_costs_no_phantom_round() {
        // Regression: the block loop used to count a round (and copy a
        // driver block) *before* noticing the limit was already satisfied.
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
        let out = pipelined_join(&tables, &cfg, &mut c);
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
        let out = pipelined_join(&tables, &cfg, &mut c);
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
        struct Count {
            rows: usize,
            rounds_seen: usize,
        }
        impl RoundSink for Count {
            fn on_schema(&mut self, columns: &[QVid]) {
                assert_eq!(columns.len(), 3);
            }
            fn on_rows(&mut self, rows: &ResultTable) {
                self.rows += rows.num_rows();
                self.rounds_seen += 1;
            }
        }
        // Unlimited: everything flows through, driver exhausted.
        let mut sink = Count {
            rows: 0,
            rounds_seen: 0,
        };
        let mut c = JoinCounters::default();
        let run = pipelined_join_streaming(&tables, &cfg, None, None, None, &mut c, &mut sink);
        assert_eq!(run.rows_emitted, 50);
        assert_eq!(sink.rows, 50);
        assert_eq!(sink.rounds_seen, 5);
        assert!(run.exhausted);
        assert!(!run.interrupted);

        // Limited: stops early, reports non-exhaustion.
        let mut sink = Count {
            rows: 0,
            rounds_seen: 0,
        };
        let mut c = JoinCounters::default();
        let run = pipelined_join_streaming(&tables, &cfg, None, Some(25), None, &mut c, &mut sink);
        assert_eq!(run.rows_emitted, 25);
        assert!(!run.exhausted);
        assert_eq!(c.pipeline_rounds, 3);

        // Single-table path streams the limited copy.
        let single = vec![tables[0].clone()];
        struct CountAny {
            rows: usize,
        }
        impl RoundSink for CountAny {
            fn on_schema(&mut self, _c: &[QVid]) {}
            fn on_rows(&mut self, rows: &ResultTable) {
                self.rows += rows.num_rows();
            }
        }
        let mut any = CountAny { rows: 0 };
        let mut c = JoinCounters::default();
        let run = pipelined_join_streaming(&single, &cfg, None, Some(3), None, &mut c, &mut any);
        assert_eq!(run.rows_emitted, 3);
        assert_eq!(any.rows, 3);
        assert!(!run.exhausted);
    }

    #[test]
    fn streaming_join_stops_at_an_interrupt() {
        use crate::stream::{CancelToken, QueryOptions};
        use std::time::Instant;
        let tables = chain_tables(100);
        let cfg = MatchConfig {
            block_rows: 10,
            ..MatchConfig::default()
        };
        let token = CancelToken::new();
        let control = QueryControl::new(
            &QueryOptions::none().with_cancel(token.clone()),
            Instant::now(),
        );
        struct CancelAfter {
            rows: usize,
            token: CancelToken,
        }
        impl RoundSink for CancelAfter {
            fn on_schema(&mut self, _c: &[QVid]) {}
            fn on_rows(&mut self, rows: &ResultTable) {
                self.rows += rows.num_rows();
                // Cancel after the first round lands: the next round
                // boundary must observe it.
                self.token.cancel();
            }
        }
        let mut sink = CancelAfter { rows: 0, token };
        let mut c = JoinCounters::default();
        let run =
            pipelined_join_streaming(&tables, &cfg, None, None, Some(&control), &mut c, &mut sink);
        assert!(run.interrupted);
        assert!(!run.exhausted);
        assert_eq!(run.rows_emitted, 10, "exactly the pre-cancel round");
        assert_eq!(c.pipeline_rounds, 1);
    }

    #[test]
    fn pipeline_join_counters_stay_proportional_to_rounds() {
        // Each round performs exactly `rest.len()` binary joins against the
        // prepared indexes — no extra joins (or table copies) per round.
        let tables = chain_tables(100);
        let cfg = MatchConfig {
            block_rows: 10,
            ..MatchConfig::default()
        };
        let mut c = JoinCounters::default();
        let out = pipelined_join(&tables, &cfg, &mut c);
        assert_eq!(out.num_rows(), 100);
        assert_eq!(c.pipeline_rounds, 10);
        assert_eq!(c.joins_performed, 10, "one rest table joined per round");
    }
}
