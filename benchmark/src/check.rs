//! Result checking.
//!
//! Before anything is timed, every distinct query is answered once by the
//! system under test and compared with an independent matcher: on the
//! enumerating workload the whole table against `baselines::vf2`'s; on the
//! first-k workloads every delivered row must be a valid, distinct embedding
//! (`verify_all`) and the row count must be `min(k, |VF2|)`. The dynamic
//! workload is checked the same way against a `GraphMirror` rebuilt at three
//! points of the update stream. What is kept is a [`Digest`] per request;
//! every later pass must reproduce it.

use crate::digest::Digest;
use crate::workload::{Op, Spec};
use baselines::vf2;
use stwig::prelude::*;
use stwig::verify::{canonical_rows, verify_all};
use trinity_sim::MemoryCloud;

/// A table over `query`'s vertices in canonical order, for streamed rows.
pub fn canonical_table(query: &QueryGraph) -> ResultTable {
    ResultTable::new(query.vertices().collect())
}

/// Checks one answer of the system against `oracle`, the independent
/// matcher's answer to the same query on the same graph (`cloud`).
///
/// An enumerated table must equal VF2's: same row count and same sum of row
/// hashes, which no table with a wrong, missing or repeated row keeps. A
/// first-k answer is not a prefix of anything, so each row is verified as a
/// distinct valid embedding and the count must be `min(k, |VF2|)`.
pub fn check_answer(
    spec: &Spec,
    cloud: &MemoryCloud,
    query: &QueryGraph,
    table: &ResultTable,
    oracle: &Digest,
) -> Result<(), String> {
    let Some(k) = spec.match_config().result_limit() else {
        return if Digest::of_table(table) == *oracle {
            Ok(())
        } else {
            Err(format!(
                "table differs from VF2's ({} vs {} rows)",
                table.num_rows(),
                oracle.rows
            ))
        };
    };
    if let Err(row) = verify_all(cloud, query, table) {
        return Err(format!("row {row} is not an embedding"));
    }
    let distinct = canonical_rows(query, table).len() as u64;
    if distinct != table.num_rows() as u64 || distinct != oracle.rows.min(k as u64) {
        return Err(format!(
            "{} rows delivered, {distinct} distinct, VF2 finds {}",
            table.num_rows(),
            oracle.rows
        ));
    }
    Ok(())
}

/// VF2's answer to `query` on `cloud`, cut where the workload's is.
pub fn oracle(spec: &Spec, cloud: &MemoryCloud, query: &QueryGraph) -> Digest {
    Digest::of_table(&vf2(cloud, query, Some(spec.oracle_limit())))
}

/// The three query positions of a dynamic pass that are checked against the
/// mirror: the last query of each third of the sequence.
pub fn mirror_checkpoints(ops: &[Op]) -> [usize; 3] {
    let queries: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Query { .. }))
        .map(|(i, _)| i)
        .collect();
    let n = queries.len();
    [queries[n / 3 - 1], queries[2 * n / 3 - 1], queries[n - 1]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_are_query_positions_in_each_third() {
        let mut ops = Vec::new();
        for i in 0..9 {
            if i % 3 == 2 {
                ops.push(Op::Update(i / 3));
            }
            ops.push(Op::Query {
                query: i,
                tenant: 0,
            });
        }
        let points = mirror_checkpoints(&ops);
        for p in points {
            assert!(matches!(ops[p], Op::Query { .. }));
        }
        assert_eq!(ops[points[2]], *ops.last().unwrap());
        assert!(points[0] < points[1] && points[1] < points[2]);
    }
}
