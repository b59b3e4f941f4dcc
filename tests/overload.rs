//! Overload behavior of the serving engine: fair scheduling across tenants,
//! work conservation, zero-cost rejection/shedding, and open-loop serving
//! under deadline pressure.
//!
//! The admission/scheduling layer's contract (see DESIGN.md): a tenant
//! offering 10× the load of its neighbor gets the same *service share* —
//! the excess waits in its own queue or is refused, never in front of the
//! neighbor's work; every admitted query is eventually dispatched (work
//! conserving); and queries refused at the door or shed at dispatch cost no
//! exploration work and no transport envelopes.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use stwig_match::prelude::*;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

fn overload_cloud(machines: usize) -> MemoryCloud {
    synthetic_experiment_graph(600, 5.0, 5e-2, 0x0DDBA11)
        .build_cloud(machines, CostModel::default())
}

/// One DFS-induced query (≥ 1 match) all tenants share, so every submission
/// has the same estimated cost and DRR degenerates to strict alternation.
fn shared_query(cloud: &MemoryCloud) -> QueryGraph {
    query_batch(cloud, 3, 4, None, 0xFA1A)
        .into_iter()
        .next()
        .expect("workload generation degenerated")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// At a `skew : 1` offered-load ratio between two tenants submitting
    /// equal-cost queries, the scheduler (a) dispatches every admitted query
    /// — work conserving — and (b) serves the light tenant's i-th query
    /// within a bounded number of dispatches, independent of how deep the
    /// heavy tenant's backlog is: no starvation.
    #[test]
    fn fair_scheduling_is_work_conserving_and_starvation_free(
        light_count in 1usize..4,
        skew in 5usize..12,
        machines in 1usize..3,
    ) {
        let cloud = overload_cloud(machines);
        let query = shared_query(&cloud);
        let heavy_count = light_count * skew;
        let engine = QueryEngine::new(&cloud, EngineConfig::default());
        let heavy: Vec<QueryHandle> = (0..heavy_count)
            .map(|_| {
                engine
                    .submit(QueryRequest::new(query.clone()).with_tenant("heavy"))
                    .expect_accepted()
            })
            .collect();
        let light: Vec<QueryHandle> = (0..light_count)
            .map(|_| {
                engine
                    .submit(QueryRequest::new(query.clone()).with_tenant("light"))
                    .expect_accepted()
            })
            .collect();
        engine.drain();
        // Work conserving: every admitted query was dispatched and finished.
        prop_assert!(heavy.iter().chain(&light).all(|h| h.is_finished()));
        let light_seqs: Vec<u64> = light
            .into_iter()
            .map(|h| h.wait().unwrap().served_seq)
            .collect();
        for (i, &seq) in light_seqs.iter().enumerate() {
            // DRR with equal costs alternates tenants: the light tenant's
            // i-th query is served within ~2 dispatches per own query, not
            // after the heavy tenant's entire backlog.
            prop_assert!(
                (seq as usize) <= 2 * (i + 1) + 2,
                "light query {} served at dispatch {} behind {} queued heavies",
                i, seq, heavy_count
            );
            prop_assert!(
                (seq as usize) < heavy_count + light_seqs.len(),
                "light tenant starved"
            );
        }
        let snapshot = engine.metrics_snapshot();
        prop_assert_eq!(snapshot.scheduler.queue_depth, 0);
        prop_assert_eq!(
            snapshot.scheduler.accepted,
            (heavy_count + light_count) as u64
        );
        let light_stats = snapshot
            .tenants
            .iter()
            .find(|t| t.tenant == "light")
            .expect("light tenant accounted");
        prop_assert_eq!(light_stats.completed, light_count as u64);
    }
}

/// Backpressure refuses over-capacity submissions in O(query) — no
/// exploration work, no transport envelopes (under `Messages`) and no remote
/// reads (under `DirectRead`) — and everything that *was* admitted still
/// runs to completion.
#[test]
fn rejected_submissions_cost_nothing_and_admitted_work_completes() {
    let cloud = overload_cloud(2);
    let query = shared_query(&cloud);
    let capacity = 4usize;
    let extra = 3usize;
    for mode in [TransportMode::DirectRead, TransportMode::Messages] {
        let serve = ServeConfig::default()
            .with_admission(AdmissionConfig::default().with_queue_capacity(capacity));
        let config = EngineConfig::default()
            .with_serve(serve)
            .with_match_config(MatchConfig::default().with_transport_mode(mode));
        let engine = QueryEngine::new(&cloud, config);
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..capacity + extra {
            match engine.submit(QueryRequest::new(query.clone())) {
                Submit::Accepted(handle) => accepted.push(handle),
                Submit::Rejected(RejectReason::QueueFull { capacity: c }) => {
                    assert_eq!(c, capacity);
                    rejected += 1;
                }
                Submit::Rejected(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(accepted.len(), capacity, "{mode:?}");
        assert_eq!(rejected, extra, "{mode:?}");
        // Nothing has executed yet: rejection itself ran no query, so it
        // charged no ledger.
        let executed = || engine.metrics_snapshot().engine.queries_executed;
        assert_eq!(executed(), 0, "{mode:?}");
        engine.drain();
        for handle in accepted {
            let response = handle.wait().expect("admitted query completes");
            assert_eq!(response.metrics.outcome, QueryOutcome::Complete, "{mode:?}");
            if mode == TransportMode::Messages {
                assert_eq!(response.metrics.direct_remote_reads, 0);
            }
        }
        let snapshot = engine.metrics_snapshot();
        assert_eq!(snapshot.scheduler.rejected_queue_full, extra as u64);
        assert_eq!(snapshot.engine.queries_executed, capacity as u64);
    }
}

/// Open-loop serving under deadline pressure: hopeless (already-expired)
/// deadlines are shed at dispatch with zero execution work while feasible
/// queries complete normally — overload degrades goodput gracefully instead
/// of dragging every query past its deadline.
#[test]
fn open_loop_serving_sheds_hopeless_deadlines_and_completes_the_rest() {
    let cloud = overload_cloud(2);
    let query = shared_query(&cloud);
    // Admit everything (no predictive rejection): this test pins the
    // dispatch-time shed path, so expired deadlines must reach dispatch.
    let serve = ServeConfig::default()
        .with_admission(AdmissionConfig::default().with_reject_estimated_late(false));
    let engine = QueryEngine::new(&cloud, EngineConfig::default().with_serve(serve));
    let stop = AtomicBool::new(false);
    let handles: Vec<(bool, QueryHandle)> = std::thread::scope(|s| {
        let worker = s.spawn(|| engine.serve(&stop));
        let handles: Vec<(bool, QueryHandle)> = (0..12)
            .map(|i| {
                let hopeless = i % 3 == 0;
                let mut request = QueryRequest::new(query.clone()).with_tenant("open-loop");
                if hopeless {
                    request = request.with_deadline(Duration::ZERO);
                } else {
                    request = request.with_deadline(Duration::from_secs(3600));
                }
                (hopeless, engine.submit(request).expect_accepted())
            })
            .collect();
        while handles.iter().any(|(_, h)| !h.is_finished()) {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        worker.join().expect("serve worker exits");
        handles
    });
    let mut shed = 0u64;
    let mut completed = 0u64;
    for (hopeless, handle) in handles {
        let response = handle.wait().unwrap();
        if hopeless {
            assert!(
                response.was_shed(),
                "expired deadline must shed at dispatch"
            );
            assert!(response.table.is_none());
            assert_eq!(response.rows_delivered(), 0);
            shed += 1;
        } else {
            assert_eq!(response.metrics.outcome, QueryOutcome::Complete);
            assert!(response.table.is_some());
            completed += 1;
        }
    }
    assert_eq!(shed, 4);
    assert_eq!(completed, 8);
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.scheduler.shed_deadline_passed, shed);
    assert_eq!(snapshot.scheduler.shed(), shed);
    assert_eq!(snapshot.engine.queries_shed, shed);
    assert_eq!(snapshot.engine.queries_executed, completed);
    let tenant = snapshot
        .tenants
        .iter()
        .find(|t| t.tenant == "open-loop")
        .expect("tenant accounted");
    assert_eq!(tenant.shed, shed);
    assert_eq!(tenant.completed, completed);
}

/// Every snapshot agrees with itself while the engine serves: two tenants
/// submit against a queue of four drained by one `serve` worker (a fifth of
/// the requests carry a deadline that has already passed, so they shed, and
/// a fifth are cancelled right after admission), while this thread takes
/// snapshots. In each one every submission is accepted or rejected, and the
/// engine's totals are the sums of the tenants' counts.
#[test]
fn metrics_snapshots_agree_with_themselves_while_serving() {
    const PER_TENANT: usize = 5_000;
    let cloud = overload_cloud(1);
    let query = shared_query(&cloud);
    // Admit the expired deadlines, so that they reach dispatch and shed.
    let admission = AdmissionConfig::default()
        .with_queue_capacity(4)
        .with_reject_estimated_late(false);
    let serve = ServeConfig::default().with_admission(admission);
    let engine = QueryEngine::new(&cloud, EngineConfig::default().with_serve(serve));
    let stop = AtomicBool::new(false);
    let (taken, disagreed) = std::thread::scope(|s| {
        let worker = s.spawn(|| engine.serve(&stop));
        let submitters = ["a", "b"].map(|tenant| {
            let (engine, query) = (&engine, &query);
            s.spawn(move || {
                for i in 0..PER_TENANT {
                    let mut request = QueryRequest::new(query.clone()).with_tenant(tenant);
                    if i % 5 == 1 {
                        request = request.with_deadline(Duration::ZERO);
                    }
                    if let Submit::Accepted(handle) = engine.submit(request) {
                        if i % 5 == 2 {
                            handle.cancel();
                        }
                    }
                }
            })
        });
        let mut taken = 0u64;
        // Snapshots breaking each identity, in the order of the assertion.
        let mut disagreed = [0u64; 4];
        while submitters.iter().any(|t| !t.is_finished()) {
            let snapshot = engine.metrics_snapshot();
            let (scheduler, tenants) = (&snapshot.scheduler, &snapshot.tenants);
            let sum = |count: fn(&TenantStats) -> u64| tenants.iter().map(count).sum::<u64>();
            let broken = [
                scheduler.submitted != scheduler.accepted + scheduler.rejected(),
                sum(|t| t.submitted) != scheduler.submitted,
                sum(|t| t.shed) != scheduler.shed(),
                sum(|t| t.cancelled) != snapshot.engine.queries_cancelled,
            ];
            for (count, broken) in disagreed.iter_mut().zip(broken) {
                *count += u64::from(broken);
            }
            taken += 1;
        }
        for submitter in submitters {
            submitter.join().expect("submitter exits");
        }
        stop.store(true, Ordering::Release);
        worker.join().expect("serve worker exits");
        (taken, disagreed)
    });
    assert_eq!(
        disagreed, [0; 4],
        "of {taken} snapshots, these many broke: submitted = accepted + rejected, \
         Σ tenant submitted, Σ tenant shed, Σ tenant cancelled"
    );
    // The run exercised every count the identities read.
    let snapshot = engine.metrics_snapshot();
    let scheduler = &snapshot.scheduler;
    assert_eq!(scheduler.submitted, 2 * PER_TENANT as u64);
    assert!(
        scheduler.rejected() > 0 && scheduler.shed() > 0,
        "{scheduler:?}"
    );
    assert!(
        snapshot.engine.queries_cancelled > 0,
        "{:?}",
        snapshot.engine
    );
}
