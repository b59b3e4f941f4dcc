//! The closed loop: one client, one request in flight, one serving worker.
//!
//! The client thread submits a request and sleeps until its last row is in
//! hand before sending the next; one other thread runs
//! `QueryEngine::serve`. The two alternate, on one processor (see
//! `host.rs`). A *pass* replays the whole request sequence once.

use crate::check::{canonical_table, check_answer, mirror_checkpoints, oracle};
use crate::digest::Digest;
use crate::workload::{Delivery, GraphInput, Inputs, Op, Spec, MACHINES};
use graph_gen::GraphMirror;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use stwig::metrics::QueryMetrics;
use stwig::prelude::*;
use trinity_sim::epoch::GraphEpochs;
use trinity_sim::prelude::{CostModel, StorageTier};
use trinity_sim::MemoryCloud;

/// What the client saw of one request.
#[derive(Debug, Default)]
pub struct Answer {
    /// Duration of the `submit*()` / `apply_updates()` / `seal_epoch()` call
    /// itself, ns.
    pub submit_ns: u64,
    /// Call → first row readable by the client, ns. For collect delivery
    /// that is when `wait()` returns.
    pub first_row_ns: u64,
    /// Call → last row in the client's hands (or update applied), ns.
    pub total_ns: u64,
    /// Digest of the delivered rows.
    pub digest: Digest,
    /// Accepted, served, and resolved `Complete` without error.
    pub ok: bool,
    /// Queue wait the engine reported, µs.
    pub queue_wait_us: f64,
    /// The engine's per-query metrics.
    pub metrics: QueryMetrics,
    /// The rows, when asked to keep them.
    pub table: Option<ResultTable>,
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Asks one query and waits for all of its rows.
pub fn ask(
    engine: &QueryEngine<'_>,
    delivery: Delivery,
    query: &QueryGraph,
    tenant: &TenantId,
    keep_rows: bool,
) -> Answer {
    let request = QueryRequest::new(query.clone()).with_tenant(tenant.clone());
    let mut answer = Answer::default();
    let t0 = Instant::now();
    let submitted = match delivery {
        Delivery::Collect => engine.submit(request),
        Delivery::Stream => engine.submit_streaming(request),
    };
    answer.submit_ns = ns_since(t0);
    let Submit::Accepted(handle) = submitted else {
        answer.total_ns = answer.submit_ns;
        answer.first_row_ns = answer.submit_ns;
        return answer;
    };
    // The client sleeps while it waits, as `wait()` and the row channel do.
    // (Polling instead was tried to keep wake-up cost out of the numbers:
    // two threads spinning at once exceed what this two-processor VM is
    // given, and the server then stalls for milliseconds.)
    let response = match delivery {
        Delivery::Collect => {
            let response = handle.wait();
            answer.total_ns = ns_since(t0);
            answer.first_row_ns = answer.total_ns;
            response
        }
        Delivery::Stream => {
            let rows = handle.rows().expect("a streaming handle has a row channel");
            let mut kept = keep_rows.then(|| canonical_table(query));
            for row in rows.iter() {
                if answer.digest.rows == 0 {
                    answer.first_row_ns = ns_since(t0);
                }
                answer.digest.add_row(&row);
                if let Some(table) = &mut kept {
                    table.push_row(&row);
                }
            }
            // The channel closes when the query has finished: only now does
            // the client know it holds the last row.
            answer.total_ns = ns_since(t0);
            if answer.digest.rows == 0 {
                answer.first_row_ns = answer.total_ns;
            }
            answer.table = kept;
            handle.wait()
        }
    };
    if let Ok(response) = response {
        answer.ok = response.metrics.outcome == QueryOutcome::Complete;
        answer.queue_wait_us = response.queue_wait_us;
        if let Some(table) = response.table {
            answer.digest = Digest::of_table(&table);
            if keep_rows {
                answer.table = Some(table);
            }
        }
        answer.metrics = response.metrics;
    }
    answer
}

/// Per-request record of one pass.
#[derive(Debug, Default)]
pub struct PassLog {
    /// When each request was sent, ns since the pass began.
    pub start_ns: Vec<u64>,
    /// One [`Answer`] per position of the sequence (tables dropped).
    pub answers: Vec<Answer>,
    /// Requests that were refused, shed, failed, ended other than
    /// `Complete`, or returned rows other than the reference's.
    pub failed: u64,
    /// Wall time of the pass, ns.
    pub wall_ns: u64,
}

impl PassLog {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.answers.len() as u64
    }
}

/// Replays the sequence once against `engine` (which some other thread is
/// serving). `expected[i]`, when given, is the digest position `i` must
/// reproduce.
pub fn run_ops(
    engine: &QueryEngine<'_>,
    spec: &Spec,
    inputs: &Inputs,
    expected: Option<&[Digest]>,
) -> PassLog {
    let tenants: Vec<TenantId> = (0..spec.tenants)
        .map(|t| TenantId::new(format!("tenant{t}")))
        .collect();
    let mut log = PassLog {
        start_ns: Vec::with_capacity(inputs.ops.len()),
        answers: Vec::with_capacity(inputs.ops.len()),
        ..PassLog::default()
    };
    let began = Instant::now();
    for (i, op) in inputs.ops.iter().enumerate() {
        let answer = match *op {
            Op::Query { query, tenant } => {
                log.start_ns.push(ns_since(began));
                let answer = ask(
                    engine,
                    spec.delivery,
                    &inputs.queries[query],
                    &tenants[tenant],
                    false,
                );
                let reproduced = expected.is_none_or(|e| e[i] == answer.digest);
                Answer {
                    ok: answer.ok && reproduced,
                    ..answer
                }
            }
            Op::Update(batch) => {
                let batch = inputs.batches[batch].clone();
                log.start_ns.push(ns_since(began));
                apply(engine, batch)
            }
            Op::Seal => {
                log.start_ns.push(ns_since(began));
                let t0 = Instant::now();
                let sealed = engine.seal_epoch();
                let ns = ns_since(t0);
                Answer {
                    submit_ns: ns,
                    first_row_ns: ns,
                    total_ns: ns,
                    ok: sealed.is_some(),
                    ..Answer::default()
                }
            }
        };
        log.failed += u64::from(!answer.ok);
        log.answers.push(answer);
    }
    log.wall_ns = ns_since(began);
    log
}

/// Applies one update batch through the engine's update door and waits.
fn apply(engine: &QueryEngine<'_>, batch: trinity_sim::epoch::UpdateBatch) -> Answer {
    let mut answer = Answer::default();
    let t0 = Instant::now();
    let submitted = engine.apply_updates(batch);
    answer.submit_ns = ns_since(t0);
    if let Submit::Accepted(handle) = submitted {
        if let Ok(response) = handle.wait() {
            answer.ok = true;
            answer.queue_wait_us = response.queue_wait_us;
        }
    }
    answer.total_ns = ns_since(t0);
    answer.first_row_ns = answer.total_ns;
    answer
}

/// Sets the stop flag when dropped, so a panicking client still releases
/// the serving worker and the scope can join it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs `client` while one other thread serves `engine`'s queue.
pub fn with_server<R>(engine: &QueryEngine<'_>, client: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| engine.serve(&stop));
        let result = {
            let _stop = StopOnDrop(&stop);
            client()
        };
        worker.join().expect("the serving worker does not panic");
        result
    })
}

/// A cloud with the engine that serves it.
// One stage exists at a time, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Stage<'c> {
    /// A static engine kept across passes, so its cache stays warm.
    Static(QueryEngine<'c>),
    /// A dynamic workload: every pass starts from a fresh
    /// `GraphEpochs::new(base.clone())` and a fresh engine, so position `i`
    /// of every pass meets the same graph and the same cache state.
    Dynamic {
        /// The epoch-0 graph.
        base: &'c MemoryCloud,
        /// Configuration of the per-pass engine.
        config: EngineConfig,
    },
}

impl<'c> Stage<'c> {
    /// The stage of `spec` over `cloud`, with the given engine config.
    pub fn new(spec: &Spec, cloud: &'c MemoryCloud, config: EngineConfig) -> Self {
        if spec.churn.is_some() {
            Stage::Dynamic {
                base: cloud,
                config,
            }
        } else {
            Stage::Static(QueryEngine::new(cloud, config))
        }
    }

    /// The graph the stage serves (epoch 0 of a dynamic stage).
    pub fn cloud(&self) -> &MemoryCloud {
        match self {
            Stage::Static(engine) => engine.cloud(),
            Stage::Dynamic { base, .. } => base,
        }
    }

    /// Runs `client` against the stage's engine while a worker serves it.
    /// The epoch manager is passed along for a dynamic stage.
    pub fn pass<R>(&self, client: impl FnOnce(&QueryEngine<'_>, Option<&GraphEpochs>) -> R) -> R {
        match self {
            Stage::Static(engine) => with_server(engine, || client(engine, None)),
            Stage::Dynamic { base, config } => {
                let epochs = GraphEpochs::new((*base).clone());
                let engine = QueryEngine::for_epochs(&epochs, config.clone());
                with_server(&engine, || client(&engine, Some(&epochs)))
            }
        }
    }
}

/// One timed set-up: inputs in memory → engine ready for the first measured
/// request. Builds the cloud, the engine (for a dynamic stage the epoch
/// manager too) and replays the sequence once to warm caches and lazy
/// state; then hands the ready stage to `body`.
pub fn set_up<R>(
    spec: &Spec,
    graph: &GraphInput,
    inputs: &Inputs,
    expected: &[Digest],
    body: impl FnOnce(&Stage<'_>, SetUp) -> R,
) -> R {
    let began = Instant::now();
    let cloud = graph.build_cloud(StorageTier::Compact);
    let load_s = began.elapsed().as_secs_f64();
    let stage = Stage::new(spec, &cloud, spec.engine_config());
    let warm = stage.pass(|engine, _| run_ops(engine, spec, inputs, Some(expected)));
    let total_s = began.elapsed().as_secs_f64();
    body(
        &stage,
        SetUp {
            load_s,
            total_s,
            warm,
        },
    )
}

/// Timings of one [`set_up`].
#[derive(Debug)]
pub struct SetUp {
    /// The loader's share: inputs → cloud.
    pub load_s: f64,
    /// The whole set-up.
    pub total_s: f64,
    /// The warm pass's log (its failures count).
    pub warm: PassLog,
}

/// Answers every request of the sequence once, untimed, checks each answer
/// against the independent matcher and returns the digest every later pass
/// must reproduce at each position (default for update and seal positions).
pub fn reference_pass(
    spec: &Spec,
    cloud: &MemoryCloud,
    inputs: &Inputs,
) -> Result<Vec<Digest>, String> {
    let stage = Stage::new(spec, cloud, spec.engine_config());
    let tenant = TenantId::new("reference");
    stage.pass(|engine, _| {
        let mut expected = vec![Digest::default(); inputs.ops.len()];
        if spec.churn.is_none() {
            // Static graph: a query's answer does not depend on where in the
            // sequence it is asked, so each distinct query is checked once.
            let mut per_query = Vec::with_capacity(inputs.queries.len());
            for (q, query) in inputs.queries.iter().enumerate() {
                let answer = ask(engine, spec.delivery, query, &tenant, true);
                let table = answer
                    .table
                    .as_ref()
                    .filter(|_| answer.ok)
                    .ok_or(format!("query {q} was not answered"))?;
                check_answer(spec, cloud, query, table, &inputs.oracle[q])
                    .map_err(|e| format!("query {q}: {e}"))?;
                per_query.push(answer.digest);
            }
            for (slot, op) in expected.iter_mut().zip(&inputs.ops) {
                if let Op::Query { query, .. } = op {
                    *slot = per_query[*query];
                }
            }
            return Ok(expected);
        }
        // Dynamic graph: replay the sequence, mirror the updates, and check
        // three positions against the mirror rebuilt from scratch.
        let checkpoints = mirror_checkpoints(&inputs.ops);
        let mut mirror = GraphMirror::from_cloud(cloud);
        for (i, op) in inputs.ops.iter().enumerate() {
            match *op {
                Op::Query { query, .. } => {
                    let check = checkpoints.contains(&i);
                    let query = &inputs.queries[query];
                    let answer = ask(engine, spec.delivery, query, &tenant, check);
                    if !answer.ok {
                        return Err(format!("position {i} was not answered"));
                    }
                    if let Some(table) = &answer.table {
                        // The graph as of now, rebuilt from scratch.
                        let rebuilt = mirror.build_cloud(MACHINES, CostModel::default());
                        check_answer(spec, &rebuilt, query, table, &oracle(spec, &rebuilt, query))
                            .map_err(|e| format!("position {i} vs mirror: {e}"))?;
                    }
                    expected[i] = answer.digest;
                }
                Op::Update(batch) => {
                    mirror.apply(&inputs.batches[batch]);
                    if !apply(engine, inputs.batches[batch].clone()).ok {
                        return Err(format!("update batch {batch} was refused"));
                    }
                }
                Op::Seal => {
                    engine.seal_epoch();
                }
            }
        }
        Ok(expected)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::small;
    use crate::workload::WORKLOADS;

    /// Every workload shape, shrunk: the reference pass agrees with VF2 (and
    /// with the mirror for the dynamic one), and a set-up plus a pass
    /// reproduce every digest.
    #[test]
    fn small_workloads_run_clean() {
        for base in &WORKLOADS {
            let spec = small(base);
            let graph = GraphInput::generate(&spec);
            let cloud = graph.build_cloud(StorageTier::Compact);
            let inputs = Inputs::generate(&spec, 3, &cloud);
            let expected = reference_pass(&spec, &cloud, &inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            set_up(&spec, &graph, &inputs, &expected, |stage, timing| {
                assert_eq!(timing.warm.failed, 0, "{} warm pass", spec.name);
                assert!(timing.load_s <= timing.total_s);
                let log = stage.pass(|engine, _| run_ops(engine, &spec, &inputs, Some(&expected)));
                assert_eq!(log.failed, 0, "{}", spec.name);
                assert_eq!(log.attempted() as usize, inputs.ops.len());
                for answer in &log.answers {
                    assert!(answer.first_row_ns <= answer.total_ns);
                    assert!(answer.submit_ns <= answer.total_ns);
                }
            });
        }
    }

    /// A wrong answer is a failed request, not a crash and not a pass.
    #[test]
    fn a_digest_mismatch_counts_as_failed() {
        let spec = small(&WORKLOADS[1]);
        let graph = GraphInput::generate(&spec);
        let cloud = graph.build_cloud(StorageTier::Compact);
        let inputs = Inputs::generate(&spec, 3, &cloud);
        let mut expected = reference_pass(&spec, &cloud, &inputs).unwrap();
        expected[0].hash ^= 1;
        expected[5].rows += 1;
        let stage = Stage::new(&spec, &cloud, spec.engine_config());
        let log = stage.pass(|engine, _| run_ops(engine, &spec, &inputs, Some(&expected)));
        assert_eq!(log.failed, 2);
        assert!(!log.answers[0].ok && !log.answers[5].ok && log.answers[1].ok);
    }
}
