//! What several integration suites share.

use stwig_match::prelude::*;

/// Serves `queries` through the engine's one door and returns one output
/// per query, in input order: `submit` each (draining the queue and
/// resubmitting when the door answers `QueueFull`), drain on the engine's
/// configured worker count, then `wait` for each. A per-query error fails
/// that slot only; a response without a table is the empty table.
pub fn run_batch(
    engine: &QueryEngine<'_>,
    queries: &[QueryGraph],
) -> Vec<Result<MatchOutput, StwigError>> {
    let workers = (engine.config().workers)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        .clamp(1, queries.len().max(1));
    let drain = || {
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| engine.drain());
            }
            engine.drain();
        })
    };
    let handles: Vec<QueryHandle> = (queries.iter())
        .map(|query| loop {
            match engine.submit(QueryRequest::new(query.clone())) {
                Submit::Accepted(handle) => break handle,
                Submit::Rejected(RejectReason::QueueFull { .. }) => drain(),
                Submit::Rejected(reason) => panic!("a deadline-free query was refused: {reason}"),
            }
        })
        .collect();
    drain();
    (handles.into_iter().zip(queries))
        .map(|(handle, query)| {
            let response = handle.wait()?;
            let table =
                (response.table).unwrap_or_else(|| ResultTable::new(query.vertices().collect()));
            Ok(MatchOutput {
                table,
                metrics: response.metrics,
            })
        })
        .collect()
}
