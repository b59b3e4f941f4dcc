//! The join against a nested loop: `pipelined_join` must write exactly the
//! rows — in exactly the order — that the textbook loop nest over (driver
//! row, table-1 row, table-2 row, …) writes, stop where it stops under a
//! limit — at every level, not only the last — and count what it counts. The probe chain builds each row in place and tests only the
//! values it appends; the reference builds the whole row and runs the full
//! pairwise duplicate check, so any row the shortcut let through (or
//! dropped) shows up here.

use proptest::prelude::*;
use stwig::join::select_join_order;
use stwig::metrics::JoinCounters;
use stwig::pipeline::pipelined_join;
use stwig::query::QVid;
use stwig::table::ResultTable;
use stwig::{MatchConfig, ResultMode};
use trinity_sim::ids::VertexId;

/// The loop nest under construction: the tables, the output, and
/// `(intermediate_rows, rows_pruned_injective)` as a join stopping at `limit`
/// finished rows counts them.
struct LoopNest<'a> {
    tables: &'a [&'a ResultTable],
    limit: Option<usize>,
    out: ResultTable,
    counts: (u64, u64),
}

impl LoopNest<'_> {
    /// One loop of the nest: every row of `tables[depth]` against the partial
    /// row `prefix` over `columns`. `false` once the limit stopped the nest.
    fn level(&mut self, depth: usize, columns: &[QVid], prefix: &[VertexId]) -> bool {
        let Some(table) = self.tables.get(depth) else {
            self.out.push_row(prefix);
            return true;
        };
        let position = |c: &QVid| columns.iter().position(|have| have == c);
        for rrow in table.rows() {
            if self.limit.is_some_and(|l| self.out.num_rows() >= l) {
                return false;
            }
            let agrees =
                |(c, &value): (&QVid, &VertexId)| position(c).is_none_or(|p| prefix[p] == value);
            if !table.columns().iter().zip(rrow).all(agrees) {
                continue;
            }
            let mut wider = columns.to_vec();
            let mut row = prefix.to_vec();
            for (c, &value) in table.columns().iter().zip(rrow) {
                if position(c).is_none() {
                    wider.push(*c);
                    row.push(value);
                }
            }
            if ResultTable::row_has_duplicates(&row) {
                self.counts.1 += 1;
                continue;
            }
            self.counts.0 += 1;
            if !self.level(depth + 1, &wider, &row) {
                return false;
            }
        }
        true
    }
}

/// Nested-loop natural join of `tables`, in that order, with the injectivity
/// filter. Returns the table and its counts.
fn nested_loops(tables: &[&ResultTable], limit: Option<usize>) -> (ResultTable, (u64, u64)) {
    let (driver, rest) = tables.split_first().expect("a driver");
    let mut columns = driver.columns().to_vec();
    for table in rest {
        for c in table.columns() {
            if !columns.contains(c) {
                columns.push(*c);
            }
        }
    }
    let mut nest = LoopNest {
        tables: rest,
        limit,
        out: ResultTable::new(columns),
        counts: (0, 0),
    };
    for lrow in driver.rows() {
        if limit == Some(0) || !nest.level(0, driver.columns(), lrow) {
            break;
        }
    }
    (nest.out, nest.counts)
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
        // Unlimited, nothing, a limit that may land anywhere — inside a
        // chain of equal keys, on a round's last row, past the last row —
        // and one that is exactly the number of rows there are.
        let all_three = nested_loops(&[&left, &right, &third], None).0.num_rows();
        let limits = [None, Some(0), Some(limit), Some(all_three)];

        for limit in limits {
            let (expected, counts) = nested_loops(&[&left, &right], limit);

            // The block pipeline over the two tables, left driving, and over
            // three — whatever the block size.
            for block_rows in [1usize, 7, 4096] {
                let config = MatchConfig {
                    block_rows,
                    result_mode: limit.map_or(ResultMode::All, ResultMode::FirstK),
                    ..MatchConfig::default()
                };
                let mut c = JoinCounters::default();
                let piped = pipelined_join(&[left.clone(), right.clone()], &config, &[0, 1], &mut c);
                prop_assert_eq!(&piped, &expected, "block_rows {}", block_rows);
                prop_assert_eq!(counted(&c), counts, "block_rows {}", block_rows);

                // Three tables: the limit stops all three loops at once, so
                // no level counts a row the answer did not need.
                let (chained, chain_counts) = nested_loops(&[&left, &right, &third], limit);
                let tables = [left.clone(), right.clone(), third.clone()];
                let mut c = JoinCounters::default();
                let piped = pipelined_join(&tables, &config, &[0, 1, 2], &mut c);
                prop_assert_eq!(&piped, &chained, "block_rows {}", block_rows);
                prop_assert_eq!(counted(&c), chain_counts, "block_rows {}", block_rows);
            }
        }
    }
}

/// First-k work is bounded by the answer, not by the driver block: one block
/// holds the whole 4096-row driver, each driver row fans out to three rows
/// at the first level and each of those to two at the second, and ten rows
/// are asked for.
#[test]
fn first_k_work_is_the_oracles_not_the_blocks() {
    let raw = |n: u64, f: fn(u64) -> Vec<u64>| (0..n).map(f).collect::<Vec<_>>();
    let driver = table(&[0, 1], &raw(4096, |i| vec![i, 10_000 + i]), |_, x| x);
    let first = table(
        &[1, 2],
        &raw(3 * 4096, |i| vec![10_000 + i / 3, 100_000 + i]),
        |_, x| x,
    );
    let second = table(
        &[2, 3],
        &raw(6 * 4096, |i| vec![100_000 + i / 2, 1_000_000 + i]),
        |_, x| x,
    );
    let config = MatchConfig {
        block_rows: 4096,
        result_mode: ResultMode::FirstK(10),
        ..MatchConfig::default()
    };
    let (expected, counts) = nested_loops(&[&driver, &first, &second], Some(10));
    let mut c = JoinCounters::default();
    let piped = pipelined_join(&[driver, first, second], &config, &[0, 1, 2], &mut c);
    assert_eq!(piped, expected);
    assert_eq!(counted(&c), counts);
    // Two driver rows, five first-level rows, the ten answers — of 4096.
    assert_eq!((c.driver_rows, c.intermediate_rows), (2, 15));
    assert_eq!(c.pipeline_rounds, 1);
}

/// The order the cost model selects is the cheaper one by the oracle's own
/// count, and the pipeline counts what the oracle counts in either order:
///
///   t0 [0]    : 1 row
///   t1 [0, 1] : 1 row
///   t2 [1, 2] : 100 rows, exactly 1 matching t1's column 1
///   t3 [0, 3] : 50 rows, all matching t0's column 0
///
/// After t0 and t1, joining t2 keeps one row and joining t3 first makes 50.
#[test]
fn the_selected_join_order_builds_fewer_rows_than_the_other() {
    let t0 = table(&[0], &[vec![1]], |_, x| x);
    let t1 = table(&[0, 1], &[vec![1, 10]], |_, x| x);
    let t2_rows: Vec<Vec<u64>> = std::iter::once(vec![10, 200])
        .chain((0..99).map(|i| vec![300 + i, 500 + i]))
        .collect();
    let t2 = table(&[1, 2], &t2_rows, |_, x| x);
    let t3_rows: Vec<Vec<u64>> = (0..50).map(|i| vec![1, 1000 + i]).collect();
    let t3 = table(&[0, 3], &t3_rows, |_, x| x);
    let tables = [t0, t1, t2, t3];
    let order = select_join_order(&tables, 256);
    assert_eq!(order, [0, 1, 2, 3]);
    let mut built = Vec::new();
    for order in [[0, 1, 2, 3], [0, 1, 3, 2]] {
        let in_order: Vec<&ResultTable> = order.iter().map(|&i| &tables[i]).collect();
        let (expected, counts) = nested_loops(&in_order, None);
        let mut c = JoinCounters::default();
        let piped = pipelined_join(&tables, &MatchConfig::default(), &order, &mut c);
        assert_eq!(piped, expected, "order {order:?}");
        assert_eq!(counted(&c), counts, "order {order:?}");
        built.push(counts.0);
    }
    assert!(built[0] < built[1], "intermediate rows {built:?}");
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
    let tables = [left, right];
    pipelined_join(
        &tables,
        &MatchConfig::default(),
        &[0, 1],
        &mut JoinCounters::default(),
    );
}
