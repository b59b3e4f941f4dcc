//! The hash join against a nested loop: `hash_join`,
//! `PreparedJoin::join_into` and `pipelined_join` must write exactly the
//! rows — in exactly the order — that the textbook double loop over
//! (left row, right row) writes, stop where it stops under a limit, and
//! count what it counts. The joins build each row in place and test only
//! the values they append; the reference builds the whole row and runs the
//! full pairwise duplicate check, so any row the shortcut let through (or
//! dropped) shows up here.

use proptest::prelude::*;
use stwig::join::{hash_join, PreparedJoin};
use stwig::metrics::JoinCounters;
use stwig::pipeline::pipelined_join;
use stwig::query::QVid;
use stwig::table::ResultTable;
use stwig::{MatchConfig, ResultMode};
use trinity_sim::ids::VertexId;

/// Nested-loop natural join with the injectivity filter. Returns the table
/// and `(intermediate_rows, rows_pruned_injective)` as a join stopping at
/// `limit` kept rows counts them.
fn nested_loop(
    left: &ResultTable,
    right: &ResultTable,
    limit: Option<usize>,
) -> (ResultTable, (u64, u64)) {
    let shared: Vec<(usize, usize)> = (left.columns().iter().enumerate())
        .filter_map(|(li, &c)| right.column_index(c).map(|ri| (li, ri)))
        .collect();
    let extra: Vec<usize> = (0..right.width())
        .filter(|ri| shared.iter().all(|&(_, r)| r != *ri))
        .collect();
    let mut columns = left.columns().to_vec();
    columns.extend(extra.iter().map(|&ri| right.columns()[ri]));
    let mut out = ResultTable::new(columns);
    let (mut kept, mut pruned) = (0u64, 0u64);
    'rows: for lrow in left.rows() {
        for rrow in right.rows() {
            if limit.is_some_and(|l| kept as usize >= l) {
                break 'rows;
            }
            if shared.iter().any(|&(li, ri)| lrow[li] != rrow[ri]) {
                continue;
            }
            let mut row = lrow.to_vec();
            row.extend(extra.iter().map(|&ri| rrow[ri]));
            if ResultTable::row_has_duplicates(&row) {
                pruned += 1;
            } else {
                out.push_row(&row);
                kept += 1;
            }
        }
    }
    (out, (kept, pruned))
}

/// A table over `columns` whose value at position `p` of a row is
/// `value(columns[p], raw[p])`.
fn table(columns: &[u16], raw_rows: &[Vec<u64>], value: impl Fn(u16, u64) -> u64) -> ResultTable {
    let mut t = ResultTable::new(columns.iter().map(|&c| QVid(c)).collect());
    for raw in raw_rows {
        let row: Vec<VertexId> = (columns.iter().zip(raw))
            .map(|(&c, &x)| VertexId(value(c, x)))
            .collect();
        t.push_row(&row);
    }
    t
}

/// Values a query vertex of the left table may take: three per column, and
/// no two columns share one — so left rows are injective, as a join's left
/// input always is, while keys still repeat.
fn left_value(column: u16, raw: u64) -> u64 {
    u64::from(column) * 3 + raw % 3
}

fn counted(c: &JoinCounters) -> (u64, u64) {
    (c.intermediate_rows, c.rows_pruned_injective)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    #[test]
    fn joins_write_what_a_nested_loop_writes(
        shared in 0usize..6,
        left_only in 0usize..3,
        right_only in 0usize..3,
        left_rows in proptest::collection::vec(proptest::collection::vec(0u64..63, 8), 0..40),
        right_rows in proptest::collection::vec(proptest::collection::vec(0u64..63, 8), 0..40),
        limit in 0usize..60,
        prefill in 0usize..3,
    ) {
        // Left: shared columns then its own; right: its own then the shared
        // ones reversed, so key positions differ on the two sides. With no
        // shared column each side still needs one of its own.
        let left_only = left_only.max(usize::from(shared == 0));
        let right_only = right_only.max(usize::from(shared == 0));
        let left_cols: Vec<u16> = (0..(shared + left_only) as u16).collect();
        let right_cols: Vec<u16> = (100..100 + right_only as u16)
            .chain((0..shared as u16).rev())
            .collect();
        let left = table(&left_cols, &left_rows, left_value);
        // What the right side appends ranges over every left column's
        // values: it collides with the row it extends, and with itself.
        let right = table(&right_cols, &right_rows, |column, raw| {
            if column < 100 { left_value(column, raw) } else { raw % 21 }
        });
        // A third table for the pipeline's non-final joins: it shares the
        // left table's first column and appends one of its own.
        let third = table(&[0, 200], &right_rows, |column, raw| {
            if column == 0 { left_value(column, raw) } else { raw % 21 }
        });
        // Unlimited, and a limit that may land anywhere: at zero, inside a
        // chain of equal keys, past the last row.
        let limits = [None, Some(limit)];

        let expected_all = nested_loop(&left, &right, None).0;
        for limit in limits {
            let (expected, counts) = nested_loop(&left, &right, limit);

            let mut c = JoinCounters::default();
            prop_assert_eq!(&hash_join(&left, &right, limit, &mut c), &expected);
            prop_assert_eq!(counted(&c), counts);
            prop_assert_eq!(c.joins_performed, 1);

            // Appending to a table that already holds rows: the limit counts
            // the appended ones only, and what was there stays.
            let prepared = PreparedJoin::new(left.columns(), &right);
            let mut out = ResultTable::new(prepared.output_columns(left.columns()));
            let filler: Vec<VertexId> = (0..out.width() as u64).map(|x| VertexId(1000 + x)).collect();
            for _ in 0..prefill {
                out.push_row(&filler);
            }
            let mut c = JoinCounters::default();
            prepared.join_into(&left, limit, None, &mut c, &mut out);
            prop_assert_eq!(out.num_rows(), prefill + expected.num_rows());
            prop_assert!(out.rows().take(prefill).all(|row| row == filler));
            prop_assert!(out.rows().skip(prefill).eq(expected.rows()));
            prop_assert_eq!(counted(&c), counts);

            // The block pipeline over the same two tables in the same order.
            for block_rows in [1usize, 7, 4096] {
                let config = MatchConfig {
                    block_rows,
                    optimize_join_order: false,
                    result_mode: limit.map_or(ResultMode::All, ResultMode::FirstK),
                    ..MatchConfig::default()
                };
                let mut c = JoinCounters::default();
                let piped = pipelined_join(&[left.clone(), right.clone()], &config, &mut c);
                prop_assert_eq!(&piped, &expected, "block_rows {}", block_rows);
                prop_assert_eq!(counted(&c), counts, "block_rows {}", block_rows);

                // Three tables: the limit caps the last join only, so the
                // answer is a prefix of the unlimited chain — and without a
                // limit every join of the chain counts what its loop counts.
                let (chained, last_counts) = nested_loop(&expected_all, &third, limit);
                let tables = [left.clone(), right.clone(), third.clone()];
                let mut c = JoinCounters::default();
                let piped = pipelined_join(&tables, &config, &mut c);
                prop_assert_eq!(&piped, &chained, "block_rows {}", block_rows);
                if limit.is_none() {
                    let both = (counts.0 + last_counts.0, counts.1 + last_counts.1);
                    prop_assert_eq!(counted(&c), both, "block_rows {}", block_rows);
                }
            }
        }
    }
}

/// A left row that maps two query vertices to one data vertex breaks the
/// precondition the appended-values-only check rests on; debug builds say
/// so instead of letting the row through.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "must be injective")]
fn a_non_injective_left_row_trips_the_debug_assert() {
    let left = table(&[0, 1], &[vec![5, 5]], |_, raw| raw);
    let right = table(&[1, 2], &[vec![5, 6]], |_, raw| raw);
    hash_join(&left, &right, None, &mut JoinCounters::default());
}
